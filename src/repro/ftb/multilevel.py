"""Two-level fetch target buffer.

The companion scalable-front-end architecture (Reinman, Austin, Calder —
ISCA 1999) pairs a small, single-cycle L1 FTB with a much larger, slower
L2 FTB.  Fetch blocks evicted from (or never promoted to) the L1 are
found in the L2 after ``l2_latency`` cycles, during which the prediction
unit stalls; both levels are trained on installs.

Probe outcomes:

- ``HIT``  — found in the L1 FTB (single cycle, like a monolithic FTB);
- ``L2``   — missed the L1 but found in the L2; the entry is promoted,
  and the caller must charge ``l2_latency`` cycles before using it;
- ``MISS`` — in neither level: the front end falls back to a sequential
  fetch block (and trains both levels when the block mispredicts).
"""

from __future__ import annotations

from repro.component import StatsComponent
from repro.errors import ConfigError
from repro.ftb.ftb import FetchTargetBuffer, FTBEntry
from repro.stats import StatGroup

__all__ = ["TwoLevelFTB", "HIT", "L2", "MISS"]

HIT = "hit"
L2 = "l2"
MISS = "miss"


class TwoLevelFTBStats(StatGroup):
    """Counters of the :class:`TwoLevelFTB` (``ftb2``)."""

    __slots__ = ("l1_hits", "l2_hits", "misses", "installs")


class TwoLevelFTB(StatsComponent):
    """L1 + L2 fetch target buffers with promotion on L2 hits.

    Telemetry-wise the two levels report as children of the ``ftb2``
    node.  Both carry the legacy group name ``ftb``; the flat view
    resolves the collision the way the old merge did (L2 wins), while
    tree consumers see both levels distinctly by position.
    """

    def sub_components(self):
        return (self.l1, self.l2)

    def __init__(self, l1_sets: int, l1_ways: int, l2_sets: int,
                 l2_ways: int, l2_latency: int):
        if l2_latency < 1:
            raise ConfigError("two-level FTB needs l2_latency >= 1")
        self.l1 = FetchTargetBuffer(l1_sets, l1_ways)
        self.l2 = FetchTargetBuffer(l2_sets, l2_ways)
        self.l2_latency = l2_latency
        self.stats = TwoLevelFTBStats("ftb2")

    @property
    def capacity(self) -> int:
        return self.l1.capacity + self.l2.capacity

    def probe(self, pc: int) -> tuple[str, FTBEntry | None]:
        """Look up ``pc``; promote L2 hits into the L1."""
        entry = self.l1.lookup(pc)
        if entry is not None:
            self.stats.l1_hits += 1
            return HIT, entry
        entry = self.l2.lookup(pc)
        if entry is not None:
            self.stats.l2_hits += 1
            self.l1.install(entry)
            return L2, entry
        self.stats.misses += 1
        return MISS, None

    def install(self, entry: FTBEntry) -> None:
        """Train both levels (the L2 is effectively inclusive)."""
        self.l1.install(entry)
        self.l2.install(entry)
        self.stats.installs += 1

    def lookup(self, pc: int) -> FTBEntry | None:
        """Monolithic-interface convenience: L1-then-L2, no latency.

        Used by tests and tools; the prediction unit uses :meth:`probe`
        so it can charge the L2 latency.
        """
        _, entry = self.probe(pc)
        return entry

    def resident_entries(self) -> int:
        return self.l2.resident_entries()

    def __repr__(self) -> str:
        return (f"TwoLevelFTB(l1={self.l1.sets}x{self.l1.ways}, "
                f"l2={self.l2.sets}x{self.l2.ways}, "
                f"lat={self.l2_latency})")
