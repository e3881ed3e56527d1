"""Fetch Target Buffer (FTB).

The FTB (Reinman, Calder, Austin — ISCA 1999) is a fetch-block-oriented
BTB: it is indexed by the *start address of a fetch block* and a hit
describes the block — where it ends (the address just past its terminating
control instruction) and where that control instruction goes.  The decoupled
front end queries the FTB once per cycle to produce the next fetch block;
on a miss it falls back to a maximum-length sequential block.

Entries are allocated/updated when the front end discovers its prediction
for a block start was wrong (taken branch not captured, or a stale target),
mirroring allocate-on-taken BTB policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.component import StatsComponent
from repro.config import is_power_of_two
from repro.errors import ConfigError
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.stats import StatGroup

__all__ = ["FTBEntry", "FetchTargetBuffer"]


@dataclass
class FTBEntry:
    """One fetch block description.

    ``fallthrough`` is the address immediately after the block's
    terminating control instruction (so the terminator sits at
    ``fallthrough - 4``); ``target`` is that terminator's most recently
    observed destination (None only transiently for returns, whose target
    comes from the RAS).
    """

    start: int
    fallthrough: int
    target: int | None
    kind: InstrKind

    @property
    def terminator_pc(self) -> int:
        return self.fallthrough - INSTRUCTION_BYTES

    @property
    def n_instrs(self) -> int:
        return (self.fallthrough - self.start) // INSTRUCTION_BYTES


class FTBStats(StatGroup):
    """Counters of one :class:`FetchTargetBuffer`."""

    __slots__ = ("hits", "misses", "updates", "installs", "evictions")


class FetchTargetBuffer(StatsComponent):
    """Set-associative, LRU FTB keyed by fetch-block start address."""

    def __init__(self, sets: int = 512, ways: int = 4):
        if not is_power_of_two(sets):
            raise ConfigError("FTB sets must be a power of two")
        if ways < 1:
            raise ConfigError("FTB ways must be >= 1")
        self.sets = sets
        self.ways = ways
        self.stats = FTBStats("ftb")
        # Per-set mapping start-pc -> entry; iteration order is LRU order
        # (dicts preserve insertion order; re-inserting refreshes).
        self._table: list[dict[int, FTBEntry]] = [{} for _ in range(sets)]
        self._set_mask = sets - 1

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def lookup(self, pc: int) -> FTBEntry | None:
        """Query the block starting at ``pc``; refreshes LRU on hit."""
        entry_set = self._table[(pc // INSTRUCTION_BYTES) & self._set_mask]
        entry = entry_set.get(pc)
        if entry is None:
            self.stats.misses += 1
            return None
        # Move to MRU position.
        del entry_set[pc]
        entry_set[pc] = entry
        self.stats.hits += 1
        return entry

    def probe(self, pc: int) -> tuple[str, FTBEntry | None]:
        """Level-aware lookup, uniform with :class:`TwoLevelFTB`.

        A monolithic FTB answers in one cycle, so the outcome is either
        ``"hit"`` or ``"miss"`` — never ``"l2"``.
        """
        entry = self.lookup(pc)
        if entry is None:
            return "miss", None
        return "hit", entry

    def install(self, entry: FTBEntry) -> None:
        """Insert or update the entry for ``entry.start`` (MRU)."""
        if entry.fallthrough <= entry.start:
            raise ConfigError(
                f"FTB entry with non-positive extent: {entry!r}")
        start = entry.start
        entry_set = self._table[(start // INSTRUCTION_BYTES)
                                & self._set_mask]
        if start in entry_set:
            del entry_set[start]
            self.stats.updates += 1
        else:
            self.stats.installs += 1
            if len(entry_set) >= self.ways:
                oldest = next(iter(entry_set))
                del entry_set[oldest]
                self.stats.evictions += 1
        entry_set[start] = entry

    def resident_entries(self) -> int:
        return sum(len(entry_set) for entry_set in self._table)

    def __repr__(self) -> str:
        return (f"FetchTargetBuffer({self.sets}x{self.ways}, "
                f"resident={self.resident_entries()})")
