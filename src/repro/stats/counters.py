"""Statistic primitives: counters, histograms, and grouped registries.

The simulator components each own a :class:`StatGroup`; the simulator merges
the groups into a flat, prefixed namespace when a run finishes.  Counters are
plain integers behind a small API so the hot simulation loop can keep using
``group.bump(...)`` without dictionary churn in the common case.
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import Iterator

__all__ = ["StatGroup", "Histogram", "RunLengthObserver"]


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


class RunLengthObserver:
    """Deferred feeder for a :class:`Histogram` sampled every cycle.

    Per-cycle series (FTQ occupancy, queue depths) hold the same value
    for long runs; recording each sample individually makes
    ``Histogram.observe`` a hot-loop cost.  This observer accumulates
    consecutive equal samples and flushes each run as one weighted
    ``observe`` call, which is arithmetically identical to per-sample
    recording.  Call :meth:`flush` before reading the histogram.
    """

    __slots__ = ("_histogram", "_value", "_weight")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._value = 0
        self._weight = 0

    def observe(self, value: int, weight: int = 1) -> None:
        """Record ``value`` for ``weight`` consecutive samples.

        A zero-weight observe is a complete no-op: it neither flushes
        the buffered run nor switches the tracked value.
        """
        if weight == 0:
            return
        if value == self._value:
            self._weight += weight
        else:
            if self._weight:
                self._histogram.observe(self._value, self._weight)
            self._value = value
            self._weight = weight

    def flush(self) -> None:
        """Push any buffered run into the histogram."""
        if self._weight:
            self._histogram.observe(self._value, self._weight)
            self._weight = 0


class StatGroup:
    """A named group of integer counters and histograms.

    Components create their own group (``StatGroup('l1i')``) and bump
    counters by name.  Counter reads of names never bumped return 0, so
    report code does not need to guard against missing keys.
    """

    __slots__ = ("name", "_counters", "_histograms")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to ``counter`` (creating it at zero)."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def get(self, counter: str) -> int:
        """Current value of ``counter`` (0 if never bumped)."""
        return self._counters.get(counter, 0)

    def set(self, counter: str, value: int) -> None:
        """Set ``counter`` to an absolute value."""
        self._counters[counter] = value

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
        """A copy of all counters in this group."""
        return dict(self._counters)

    def histograms(self) -> dict[str, Histogram]:
        """The histograms in this group (live references)."""
        return dict(self._histograms)

    def reset(self) -> None:
        """Zero every counter and drop every histogram.

        Used at the end of simulation warm-up so reported statistics cover
        only the measured region.
        """
        self._counters.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"StatGroup({self.name!r}, counters={len(self._counters)}, "
                f"histograms={len(self._histograms)})")
