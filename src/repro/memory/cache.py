"""Set-associative cache contents with true-LRU replacement.

This models cache *contents* only (hit/miss and replacement); latency and
bandwidth live in :mod:`repro.memory.hierarchy` and :mod:`repro.memory.bus`.
Two lookup flavours matter to the paper:

- :meth:`lookup` — a demand access: updates LRU recency.
- :meth:`probe` — a tag-array probe (what cache probe filtering performs
  with idle tag ports): answers hit/miss without disturbing recency.
"""

from __future__ import annotations

from repro.component import StatsComponent
from repro.config import CacheGeometry
from repro.stats import StatGroup

__all__ = ["SetAssociativeCache"]


class CacheStats(StatGroup):
    """Counters of one :class:`SetAssociativeCache`."""

    __slots__ = ("hits", "misses", "probes", "fills", "evictions",
                 "invalidations")


class SetAssociativeCache(StatsComponent):
    """LRU set-associative cache keyed by block id."""

    # "name" stays a slot (shadowing the StatsComponent property) so the
    # hot lookup path keeps its direct attribute access.
    __slots__ = ("geometry", "name", "stats", "_set_mask", "_assoc",
                 "_sets")

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats(name)
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.assoc
        # Per-set list of block ids, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(geometry.num_sets)]

    def lookup(self, bid: int) -> bool:
        """Demand access: hit/miss, promoting the block to MRU on hit."""
        entry_set = self._sets[bid & self._set_mask]
        if bid in entry_set:
            if entry_set[-1] != bid:
                entry_set.remove(bid)
                entry_set.append(bid)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, bid: int) -> bool:
        """Tag probe: hit/miss without touching replacement state."""
        self.stats.probes += 1
        return bid in self._sets[bid & self._set_mask]

    def contains(self, bid: int) -> bool:
        """Like :meth:`probe` but without statistics (for assertions)."""
        return bid in self._sets[bid & self._set_mask]

    def fill(self, bid: int) -> int | None:
        """Insert ``bid`` as MRU; return the evicted block id, if any.

        Filling a block that is already present just refreshes its
        recency (no duplicate entries, no eviction).
        """
        entry_set = self._sets[bid & self._set_mask]
        if bid in entry_set:
            if entry_set[-1] != bid:
                entry_set.remove(bid)
                entry_set.append(bid)
            return None
        self.stats.fills += 1
        victim = None
        if len(entry_set) >= self._assoc:
            victim = entry_set.pop(0)
            self.stats.evictions += 1
        entry_set.append(bid)
        return victim

    def invalidate(self, bid: int) -> bool:
        """Remove ``bid`` if present; True when something was removed."""
        entry_set = self._sets[bid & self._set_mask]
        if bid in entry_set:
            entry_set.remove(bid)
            self.stats.invalidations += 1
            return True
        return False

    def resident_blocks(self) -> int:
        """Number of valid blocks currently held."""
        return sum(len(entry_set) for entry_set in self._sets)

    def flush(self) -> None:
        """Drop all contents (statistics are preserved)."""
        for entry_set in self._sets:
            entry_set.clear()

    def __repr__(self) -> str:
        return (f"SetAssociativeCache({self.name!r}, "
                f"{self.geometry.size_bytes // 1024}KB, "
                f"{self.geometry.num_sets}x{self._assoc})")
