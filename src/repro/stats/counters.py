"""Statistic primitives: counters, histograms, and grouped registries.

The simulator components each own a :class:`StatGroup` subclass whose
``__slots__`` are the component's counter names; the simulator merges
the groups into a flat, prefixed namespace when a run finishes.  The
hot simulation loop counts with plain attribute arithmetic
(``stats.hits += 1``) on those slots: no call, no string-keyed dict.
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import Iterator

__all__ = ["StatGroup", "Histogram", "flush_counts", "UNSET"]


class Histogram:
    """A sparse integer-valued histogram.

    Samples are integers (for example, FTQ occupancy per cycle, or fetch
    block lengths).  Only observed values consume storage.
    """

    __slots__ = ("_counts", "_total", "_sum")

    def __init__(self) -> None:
        self._counts: _Counter[int] = _Counter()
        self._total = 0
        self._sum = 0

    def observe(self, value: int, weight: int = 1) -> None:
        """Record ``value`` with the given ``weight``.

        A zero weight is a no-op (no bucket is created); negative
        weights are rejected — they would corrupt the totals.
        """
        if weight <= 0:
            if weight == 0:
                return
            raise ValueError(f"negative histogram weight: {weight}")
        self._counts[value] += weight
        self._total += weight
        self._sum += value * weight

    @property
    def total(self) -> int:
        """Total weight observed."""
        return self._total

    @property
    def mean(self) -> float:
        """Weighted mean of observed values (0.0 when empty)."""
        if self._total == 0:
            return 0.0
        return self._sum / self._total

    def fraction_at(self, value: int) -> float:
        """Fraction of total weight recorded exactly at ``value``."""
        if self._total == 0:
            return 0.0
        return self._counts[value] / self._total

    def percentile(self, q: float) -> int:
        """Smallest observed value v such that P(X <= v) >= q.

        ``q`` must be in (0, 1].  Raises ``ValueError`` on an empty
        histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self._total == 0:
            raise ValueError("percentile of an empty histogram")
        needed = q * self._total
        running = 0
        for value in sorted(self._counts):
            running += self._counts[value]
            if running >= needed:
                return value
        raise AssertionError("unreachable: histogram weights inconsistent")

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (value, count) pairs in increasing value order."""
        for value in sorted(self._counts):
            yield value, self._counts[value]

    def as_dict(self) -> dict[int, int]:
        """Return a plain dict copy of the histogram contents."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return (f"Histogram(total={self._total}, mean={self.mean:.2f}, "
                f"distinct={len(self._counts)})")


def flush_counts(counts: list[int], histogram: Histogram) -> None:
    """Move dense per-value counts into ``histogram``.

    A per-cycle series with few possible values (FTQ occupancy runs
    from 0 to the queue depth) is cheapest to record as
    ``counts[value] += 1``, one subscript per sample.  This observes
    each nonzero count once, weighted, which is arithmetically identical
    to per-sample recording, and zeroes it in place, so whoever holds
    ``counts`` keeps counting into the same list.
    """
    for value, count in enumerate(counts):
        if count:
            histogram.observe(value, count)
            counts[value] = 0


class _Unset(int):
    """The type of :data:`UNSET`."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # Pickled by reference, so an untouched counter in a restored
        # snapshot is the singleton again.
        return "UNSET"


#: The value of a declared counter nothing has added to since the last
#: reset.  It is an ``int`` equal to 0, so ``stats.x += n`` works on it
#: and replaces it with a plain int — which is what makes the counter
#: present in :meth:`StatGroup.counters`.
UNSET = _Unset(0)


class StatGroup:
    """A named group of integer counters and histograms.

    A component declares its counters as the ``__slots__`` of a
    subclass and counts with attribute arithmetic::

        class CacheStats(StatGroup):
            __slots__ = ("hits", "misses")

        stats = CacheStats("l1i")
        stats.hits += 1

    A counter is *present* — listed by :meth:`counters`, so reported in
    telemetry — if and only if something added to it (or :meth:`set`
    it) since the last :meth:`reset`, even when it added 0.  Untouched
    counters hold :data:`UNSET` and read as 0.

    The by-name methods (:meth:`bump`, :meth:`get`, :meth:`set`,
    :meth:`ratio`) serve counter names known only at run time; they
    raise ``AttributeError`` for a name the group does not declare.
    A group that declares no counters (a bare ``StatGroup``) is ad hoc
    instead: its by-name methods keep counters in a dict, each created
    on first use.
    """

    __slots__ = ("name", "_histograms", "_ad_hoc")

    #: Declared counter names: every subclass's ``__slots__``, base first.
    COUNTERS: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.COUNTERS = cls.COUNTERS + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, name: str) -> None:
        self.name = name
        self._histograms: dict[str, Histogram] = {}
        self._ad_hoc: dict[str, int] | None = None if self.COUNTERS else {}
        self.reset()

    def _declared(self, counter: str) -> str:
        if counter not in self.COUNTERS:
            raise AttributeError(
                f"stat group {self.name!r} ({type(self).__name__}) "
                f"declares no counter {counter!r}")
        return counter

    def bump(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter called ``counter``."""
        ad_hoc = self._ad_hoc
        if ad_hoc is not None:
            ad_hoc[counter] = ad_hoc.get(counter, 0) + amount
            return
        counter = self._declared(counter)
        setattr(self, counter, getattr(self, counter) + amount)

    def get(self, counter: str) -> int:
        """Current value of ``counter`` (0 while untouched)."""
        if self._ad_hoc is not None:
            return self._ad_hoc.get(counter, 0)
        return int(getattr(self, self._declared(counter)))

    def set(self, counter: str, value: int) -> None:
        """Set ``counter`` to an absolute value (making it present)."""
        if self._ad_hoc is not None:
            self._ad_hoc[counter] = value
            return
        setattr(self, self._declared(counter), value)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a float; 0.0 when empty."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def histogram(self, name: str) -> Histogram:
        """Return (creating on first use) the histogram called ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        return hist

    def counters(self) -> dict[str, int]:
        """The present counters, as a new dict in declaration order
        (first-use order in an ad hoc group)."""
        if self._ad_hoc is not None:
            return dict(self._ad_hoc)
        present: dict[str, int] = {}
        for counter in self.COUNTERS:
            value = getattr(self, counter)
            if value is not UNSET:
                present[counter] = value
        return present

    def histograms(self) -> dict[str, Histogram]:
        """The histograms in this group (live references)."""
        return dict(self._histograms)

    def reset(self) -> None:
        """Make every counter absent again and drop every histogram.

        Used at the end of simulation warm-up so reported statistics cover
        only the measured region.  The group object stays the same, so
        references hoisted out of a hot loop stay valid.
        """
        for counter in self.COUNTERS:
            setattr(self, counter, UNSET)
        if self._ad_hoc is not None:
            self._ad_hoc.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"counters={len(self.counters())}, "
                f"histograms={len(self._histograms)})")
