"""Miss status holding registers.

MSHRs track in-flight fills by block id.  They provide the merge semantics
the paper's machine relies on: a demand fetch that misses the L1-I but finds
its block already in flight (typically because FDIP prefetched it a little
too late) waits for the existing fill instead of issuing a second bus
transfer.  Such merges are counted as *late prefetches*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.component import StatsComponent
from repro.stats import StatGroup

__all__ = ["MshrFile", "MshrEntry"]


@dataclass(slots=True)
class MshrEntry:
    """One in-flight fill."""

    bid: int
    ready_cycle: int
    is_prefetch: bool
    # Set when a demand access merged into a prefetch in flight; the fill
    # must then go to the L1-I, not (only) the prefetch buffer.
    demand_merged: bool = False
    wrong_path: bool = False


@dataclass
class MshrFile(StatsComponent):
    """A bounded file of :class:`MshrEntry`, keyed by block id."""

    capacity: int
    stats: StatGroup = field(default_factory=lambda: StatGroup("mshr"))

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self._entries: dict[int, MshrEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, bid: int) -> MshrEntry | None:
        """The in-flight entry for ``bid``, or None."""
        return self._entries.get(bid)

    def allocate(self, bid: int, ready_cycle: int,
                 is_prefetch: bool, wrong_path: bool = False) -> MshrEntry:
        """Allocate an entry; caller must have checked ``full`` and ``get``."""
        if bid in self._entries:
            raise KeyError(f"block {bid} already has an MSHR entry")
        if self.full:
            raise OverflowError("MSHR file is full")
        entry = MshrEntry(bid=bid, ready_cycle=ready_cycle,
                          is_prefetch=is_prefetch, wrong_path=wrong_path)
        self._entries[bid] = entry
        self.stats.bump("allocations")
        if is_prefetch:
            self.stats.bump("prefetch_allocations")
        return entry

    def release(self, bid: int) -> MshrEntry:
        """Remove and return the entry for ``bid`` (fill completed)."""
        entry = self._entries.pop(bid, None)
        if entry is None:
            raise KeyError(f"no MSHR entry for block {bid}")
        return entry

    def merge_demand(self, bid: int) -> MshrEntry:
        """Record a demand access merging into an in-flight fill."""
        entry = self._entries[bid]
        entry.demand_merged = True
        self.stats.bump("demand_merges")
        if entry.is_prefetch:
            self.stats.bump("late_prefetch_merges")
        return entry

    def outstanding(self) -> list[MshrEntry]:
        """All in-flight entries (ordering unspecified)."""
        return list(self._entries.values())
