"""The fully-associative prefetch buffer.

FDIP (and, in this implementation, tagged next-line prefetching) does not
fill the L1-I directly.  Prefetched blocks land in a small fully-associative
buffer probed in parallel with the L1-I; a hit promotes the block into the
cache.  This keeps wrong-path and otherwise-useless prefetches from evicting
useful instructions — the pollution-avoidance property the paper leans on.

Replacement is FIFO over unreferenced entries, matching the simple hardware
the paper assumes for a 32-entry buffer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.component import StatsComponent
from repro.stats import StatGroup

__all__ = ["PrefetchBuffer"]


class PrefetchBuffer(StatsComponent):
    """Fully-associative FIFO buffer of prefetched cache blocks."""

    def __init__(self, entries: int, name: str = "pbuf"):
        if entries < 1:
            raise ValueError("prefetch buffer needs at least one entry")
        self.capacity = entries
        self.stats = StatGroup(name)
        # bid -> (wrong_path flag, fill cycle); insertion order is FIFO.
        self._blocks: OrderedDict[int, tuple[bool, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def contains(self, bid: int) -> bool:
        """Presence check without statistics or side effects."""
        return bid in self._blocks

    def insert(self, bid: int, wrong_path: bool = False,
               cycle: int = 0) -> int | None:
        """Add a prefetched block; returns an evicted block id, if any.

        ``cycle`` is the fill completion time, used to measure prefetch
        lead time when the block is later claimed.  Re-inserting a
        resident block refreshes nothing (FIFO order is kept) and evicts
        nothing.  An entry evicted before any demand hit is counted as a
        useless prefetch.
        """
        if bid in self._blocks:
            self.stats.bump("duplicate_fills")
            return None
        victim = None
        if len(self._blocks) >= self.capacity:
            victim, (victim_wrong, _) = self._blocks.popitem(last=False)
            self.stats.bump("evicted_unused")
            if victim_wrong:
                self.stats.bump("evicted_unused_wrong_path")
        self._blocks[bid] = (wrong_path, cycle)
        self.stats.bump("fills")
        return victim

    def claim(self, bid: int, now: int = 0) -> bool:
        """Demand probe: on hit, remove the block (it moves to the L1-I).

        Returns True on hit.  This is the *useful prefetch* event; the
        lead time between the fill and this use is recorded in the
        ``lead_cycles`` histogram.
        """
        entry = self._blocks.pop(bid, None)
        if entry is None:
            return False
        _, fill_cycle = entry
        self.stats.bump("useful_hits")
        if now > 0:
            self.stats.histogram("lead_cycles").observe(
                max(0, now - fill_cycle))
        return True

    def flush(self) -> None:
        """Drop all contents (used only by tests and resets)."""
        self._blocks.clear()

    def resident(self) -> list[int]:
        """Block ids currently buffered, oldest first."""
        return list(self._blocks)
