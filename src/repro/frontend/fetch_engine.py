"""The fetch engine: consumes the FTQ head and drives the L1-I.

One demand access per cycle: up to ``fetch_width`` instructions are
delivered from a single cache block of the current fetch block.  A miss
blocks the engine until the fill returns (prefetches keep flowing in the
background — that is the whole point of the decoupled design).

Wrong-path entries are fetched with full memory-system fidelity (they
occupy the bus, pollute caches, trigger prefetcher heuristics) but their
instructions are discarded rather than delivered to the backend.
"""

from __future__ import annotations

from typing import Callable

from repro.component import StatsComponent
from repro.config import CoreConfig
from repro.cpu.backend import Backend
from repro.errors import SimulationError
from repro.frontend.ftq import FetchTargetQueue, FTQEntry
from repro.isa import INSTRUCTION_BYTES
from repro.memory import HIT_L1, HIT_SIDECAR, RETRY, MemorySystem
from repro.prefetch.base import Prefetcher
from repro.stats import StatGroup
from repro.trace import Trace

__all__ = ["FetchEngine"]


class FetchStats(StatGroup):
    """Counters of the :class:`FetchEngine`."""

    __slots__ = ("active_cycles", "miss_stall_cycles", "ftq_empty_cycles",
                 "window_stall_cycles", "mshr_stall_cycles",
                 "wrong_path_cycles", "demand_misses", "instrs_delivered",
                 "wrong_path_instrs")


class FetchEngine(StatsComponent):
    """In-order instruction fetch from the FTQ head."""

    def __init__(self, trace: Trace, memory: MemorySystem,
                 ftq: FetchTargetQueue, backend: Backend,
                 prefetcher: Prefetcher, core: CoreConfig,
                 on_terminal_delivered: Callable[[FTQEntry, int], None]):
        self.trace = trace
        self.memory = memory
        self.ftq = ftq
        self.backend = backend
        self.core = core
        self.stats = FetchStats("fetch")
        self._on_terminal_delivered = on_terminal_delivered
        self._block_bytes = memory.block_bytes
        self._waiting_until: int | None = None
        # Demand feedback goes only to a prefetcher that overrides the
        # base class's no-op.
        self._on_demand = (
            prefetcher.on_demand
            if type(prefetcher).on_demand is not Prefetcher.on_demand
            else None)

    # ------------------------------------------------------------------

    @property
    def stalled_on_miss(self) -> bool:
        return self._waiting_until is not None

    @property
    def waiting_until(self) -> int | None:
        """Cycle the pending demand fill lands (None when not stalled)."""
        return self._waiting_until

    def next_wake_cycle(self, now: int) -> int | None:
        """Wake contract: the pending demand fill is the only
        self-scheduled wake; every other fetch stall (empty FTQ, full
        backend window) clears on external input only."""
        return self._waiting_until

    def tick(self, now: int) -> bool:
        """Perform this cycle's fetch work.

        Up to ``fetch_accesses_per_cycle`` demand accesses (a banked
        cache can fetch through a block boundary or across short fetch
        blocks in one cycle), delivering at most ``fetch_width``
        instructions total.  Returns whether any instructions were
        delivered — the event engine uses a False return as its cheap
        pre-filter before running the exact stall proof.

        Each access makes one call into the memory system and, for a
        hit, one into the backend; the window and delivery arithmetic
        is done here.
        """
        stats = self.stats
        if self._waiting_until is not None:
            if now < self._waiting_until:
                stats.miss_stall_cycles += 1
                return False
            self._waiting_until = None

        core = self.core
        entries = self.ftq._entries
        backend = self.backend
        window = backend._window
        window_size = core.window_size
        in_window = core.wrong_path_in_window
        block_bytes = self._block_bytes
        on_demand = self._on_demand
        budget = core.fetch_width
        delivered_any = False
        wrong_any = False
        for access in range(core.fetch_accesses_per_cycle):
            if not entries:
                if access == 0:
                    stats.ftq_empty_cycles += 1
                return delivered_any
            entry = entries[0]
            wrong_path = entry.wrong_path
            free_slots = (window_size - len(window)
                          - backend._wrong_path_occupancy)
            if (not wrong_path or in_window) and free_slots <= 0:
                if access == 0:
                    stats.window_stall_cycles += 1
                return delivered_any
            if budget <= 0:
                return delivered_any

            addr = entry.start + entry.fetch_offset
            bid = addr // block_bytes
            outcome, ready = self.memory.demand_fetch(bid, now)
            if on_demand is not None:
                on_demand(bid, outcome, now)

            if outcome == RETRY:
                if access == 0:
                    stats.mshr_stall_cycles += 1
                return delivered_any
            if outcome != HIT_L1 and outcome != HIT_SIDECAR:
                self._waiting_until = ready
                stats.demand_misses += 1
                if access == 0:
                    stats.miss_stall_cycles += 1
                return delivered_any

            # Deliver from the hit block: to the end of the fetch
            # block, the cache block, or the cycle's width budget.
            end = entry.end
            line_end = (bid + 1) * block_bytes
            if line_end < end:
                end = line_end
            width_end = addr + budget * INSTRUCTION_BYTES
            if width_end < end:
                end = width_end
            n = (end - addr) // INSTRUCTION_BYTES
            if n <= 0:
                raise SimulationError(
                    f"fetch delivered no instructions at {addr:#x} "
                    f"(entry {entry!r})")
            if wrong_path:
                if in_window:
                    if free_slots < n:
                        n = free_slots
                    backend.deliver_wrong_path(n)
                stats.wrong_path_instrs += n
            else:
                if free_slots < n:
                    n = free_slots
                first = entry.first_index + entry.fetch_offset \
                    // INSTRUCTION_BYTES
                backend.deliver(self.trace.records[first:first + n], now)
                stats.instrs_delivered += n
            entry.fetch_offset += n * INSTRUCTION_BYTES
            if entry.start + entry.fetch_offset >= entry.end:
                if self.ftq.pop_head() is not entry:
                    raise SimulationError("FTQ head changed mid-fetch")
                if entry.mispredict and not wrong_path:
                    self._on_terminal_delivered(
                        entry, now + core.pipeline_depth
                        + core.branch_resolve_latency)

            budget -= n
            if not delivered_any:
                stats.active_cycles += 1
                delivered_any = True
            if wrong_path and not wrong_any:
                stats.wrong_path_cycles += 1
                wrong_any = True
        return delivered_any

    # ------------------------------------------------------------------

    def squash(self) -> None:
        """Pipeline flush: abandon any in-progress (wrong-path) fetch."""
        self._waiting_until = None
