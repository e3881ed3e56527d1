"""Simplified out-of-order backend.

The paper's results are front-end bound; the backend's job in this
reproduction is to (a) convert delivered instruction streams into retired
instructions per cycle under a finite window and issue width, and (b)
apply back-pressure to the fetch engine when the window fills.

Model: each delivered instruction completes ``pipeline_depth`` cycles after
delivery plus its execution latency (loads take ``load_latency``, all else
one cycle).  Instructions retire in order, at most ``issue_width`` per
cycle, once complete.  This under-models issue contention but preserves the
property the evaluation needs: cycles lost in the front end are cycles lost
in IPC.
"""

from __future__ import annotations

from collections import deque

from repro.component import StatsComponent
from repro.config import CoreConfig
from repro.isa import LOAD
from repro.stats import StatGroup
from repro.trace import TraceRecord

__all__ = ["Backend"]


class BackendStats(StatGroup):
    """Counters of the :class:`Backend`."""

    __slots__ = ("delivered", "retired", "retire_stall_cycles",
                 "wrong_path_delivered", "wrong_path_flushed")


class Backend(StatsComponent):
    """Finite-window, in-order-retire backend model."""

    def __init__(self, core: CoreConfig):
        self.core = core
        self.stats = BackendStats("backend")
        self._window: deque[int] = deque()   # completion cycles, FIFO
        self._wrong_path_occupancy = 0       # squashed at flush
        self.retired = 0

    @property
    def free_slots(self) -> int:
        """Window slots available for newly fetched instructions."""
        return (self.core.window_size - len(self._window)
                - self._wrong_path_occupancy)

    @property
    def occupancy(self) -> int:
        return len(self._window) + self._wrong_path_occupancy

    def deliver(self, records: list[TraceRecord], now: int) -> None:
        """Accept fetched instructions into the window."""
        core = self.core
        window = self._window
        if len(records) > (core.window_size - len(window)
                           - self._wrong_path_occupancy):
            raise OverflowError(
                f"delivered {len(records)} instructions into "
                f"{self.free_slots} free slots")
        base = now + core.pipeline_depth
        load_latency = core.load_latency
        for record in records:
            window.append(base + load_latency if record.kind == LOAD
                          else base + 1)
        self.stats.delivered += len(records)

    def retire(self, now: int) -> int:
        """Retire up to ``issue_width`` completed instructions, in order."""
        window = self._window
        n = 0
        width = self.core.issue_width
        while window and n < width and window[0] <= now:
            window.popleft()
            n += 1
        self.retired += n
        self.stats.retired += n
        if n == 0 and window:
            self.stats.retire_stall_cycles += 1
        return n

    def deliver_wrong_path(self, count: int) -> None:
        """Wrong-path instructions enter the window (never retire)."""
        if count > self.free_slots:
            raise OverflowError(
                f"delivered {count} wrong-path instructions into "
                f"{self.free_slots} free slots")
        self._wrong_path_occupancy += count
        self.stats.wrong_path_delivered += count

    def flush_wrong_path(self) -> int:
        """Squash: drop all wrong-path occupants; returns how many."""
        flushed = self._wrong_path_occupancy
        self._wrong_path_occupancy = 0
        self.stats.wrong_path_flushed += flushed
        return flushed

    @property
    def drained(self) -> bool:
        return not self._window

    @property
    def next_completion(self) -> int | None:
        """Completion cycle of the oldest instruction (None when empty)."""
        return self._window[0] if self._window else None

    def next_wake_cycle(self, now: int) -> int | None:
        """Wake contract: in-order retirement cannot begin before the
        oldest instruction completes; an empty window retires nothing
        until fetch delivers (external input)."""
        return self._window[0] if self._window else None
