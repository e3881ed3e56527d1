"""The Fetch Target Queue.

The FTQ is the paper's key decoupling structure: the branch-prediction unit
pushes predicted fetch blocks at its tail while the fetch engine consumes
the head.  Entries between head and tail describe the *future* fetch stream
— exactly the addresses the FDIP prefetch engine wants.

Each entry carries, besides the block's address range and predicted
successor, the bookkeeping the trace-driven simulator needs: which trace
records the block covers (for correct-path blocks), misprediction state,
and the prediction-unit checkpoint used to repair speculative state when
the block's terminal branch resolves as mispredicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bpred.ras import RasSnapshot
from repro.component import StatsComponent
from repro.errors import SimulationError
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.stats import StatGroup

__all__ = ["FTQEntry", "FetchTargetQueue"]


@dataclass(slots=True)
class FTQEntry:
    """One predicted fetch block in the FTQ."""

    seq: int                      # monotonically increasing id
    start: int                    # first instruction address
    end: int                      # one past the last instruction address
    predicted_next: int           # where the prediction unit went next
    wrong_path: bool = False
    # Correct-path bookkeeping (unused for wrong-path entries):
    first_index: int = -1         # trace index of the first record
    n_records: int = 0
    mispredict: bool = False
    true_next: int | None = None
    resume_cursor: int = -1       # trace index to resume at after squash
    # True terminal info (for state repair at resolution):
    terminal_pc: int | None = None
    terminal_kind: InstrKind | None = None
    terminal_taken: bool = False
    # Prediction-unit checkpoint captured before this block's speculative
    # updates (set only for mispredicted blocks):
    ckpt_history: int = 0
    ckpt_ras: RasSnapshot | None = None
    predicted_cond: bool = False  # a direction prediction was made
    # Consumption state:
    fetch_offset: int = 0         # bytes already fetched by the engine
    prefetch_scanned: bool = False

    @property
    def n_instrs(self) -> int:
        return (self.end - self.start) // INSTRUCTION_BYTES

    @property
    def fully_fetched(self) -> bool:
        return self.start + self.fetch_offset >= self.end

    @property
    def next_fetch_pc(self) -> int:
        return self.start + self.fetch_offset

    def __repr__(self) -> str:
        tag = "W" if self.wrong_path else ("M" if self.mispredict else " ")
        return (f"FTQEntry#{self.seq}[{tag}] {self.start:#x}..{self.end:#x} "
                f"-> {self.predicted_next:#x}")


class FetchTargetQueue(StatsComponent):
    """Bounded FIFO of :class:`FTQEntry`."""

    __slots__ = ("depth", "stats", "_entries")

    def __init__(self, depth: int):
        if depth < 1:
            raise SimulationError("FTQ depth must be >= 1")
        self.depth = depth
        self.stats = StatGroup("ftq")
        self._entries: list[FTQEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, entry: FTQEntry) -> None:
        if self.full:
            raise SimulationError("push into a full FTQ")
        self._entries.append(entry)
        self.stats.bump("pushes")

    def head(self) -> FTQEntry | None:
        """The entry the fetch engine is consuming (None when empty)."""
        return self._entries[0] if self._entries else None

    def pop_head(self) -> FTQEntry:
        if not self._entries:
            raise SimulationError("pop from an empty FTQ")
        self.stats.bump("pops")
        return self._entries.pop(0)

    def prefetch_candidates(self, start: int = 1,
                            stop: int | None = None,
                            ) -> Iterator[FTQEntry]:
        """Entries at queue positions [start, stop) not yet scanned.

        Position 0 is the head (being demand-fetched); the paper's
        prefetch engine scans from position 1.  ``start``/``stop`` give
        FDIP's lookahead window: raising ``start`` skips blocks about to
        be fetched anyway, lowering ``stop`` avoids prefetching far
        (likelier-wrong-path) blocks.
        """
        entries = self._entries
        stop = len(entries) if stop is None else min(stop, len(entries))
        for index in range(start, stop):
            entry = entries[index]
            if not entry.prefetch_scanned:
                yield entry

    def has_unscanned(self, start: int = 1,
                      stop: int | None = None) -> bool:
        """Whether :meth:`prefetch_candidates` would yield anything.

        Index-based (no slice allocation): this sits on the event
        engine's per-cycle quiescence gate.
        """
        entries = self._entries
        stop = len(entries) if stop is None else min(stop, len(entries))
        for index in range(start, stop):
            if not entries[index].prefetch_scanned:
                return True
        return False

    def clear(self) -> int:
        """Squash: drop every entry; returns how many were dropped.

        By construction every entry still queued at squash time is
        wrong-path (the mispredicted block itself has necessarily been
        fully consumed for its terminal branch to have resolved); this is
        asserted because it guards the simulator's recovery logic.
        """
        for entry in self._entries:
            if not entry.wrong_path:
                raise SimulationError(
                    f"squash found a correct-path entry in the FTQ: "
                    f"{entry!r}")
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.bump("squashed_entries", dropped)
        return dropped

    def occupancy(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FTQEntry]:
        return iter(self._entries)
