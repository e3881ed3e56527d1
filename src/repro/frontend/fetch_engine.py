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
from repro.memory import MemorySystem, RETRY
from repro.prefetch.base import Prefetcher
from repro.stats import StatGroup
from repro.trace import Trace

__all__ = ["FetchEngine"]


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
        self.prefetcher = prefetcher
        self.core = core
        self.stats = StatGroup("fetch")
        self._on_terminal_delivered = on_terminal_delivered
        self._block_bytes = memory.block_bytes
        self._waiting_until: int | None = None

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
        """
        if self._waiting_until is not None:
            if now < self._waiting_until:
                self.stats.bump("miss_stall_cycles")
                return False
            self._waiting_until = None

        budget = self.core.fetch_width
        delivered_any = False
        wrong_any = False
        for access in range(self.core.fetch_accesses_per_cycle):
            entry = self.ftq.head()
            if entry is None:
                if access == 0:
                    self.stats.bump("ftq_empty_cycles")
                return delivered_any
            needs_slots = (not entry.wrong_path
                           or self.core.wrong_path_in_window)
            if needs_slots and self.backend.free_slots <= 0:
                if access == 0:
                    self.stats.bump("window_stall_cycles")
                return delivered_any
            if budget <= 0:
                return delivered_any

            addr = entry.next_fetch_pc
            bid = addr // self._block_bytes
            result = self.memory.demand_fetch(bid, now)
            self.prefetcher.on_demand(bid, result.outcome, now)

            if result.outcome == RETRY:
                if access == 0:
                    self.stats.bump("mshr_stall_cycles")
                return delivered_any
            if not result.is_hit:
                self._waiting_until = result.ready_cycle
                self.stats.bump("demand_misses")
                if access == 0:
                    self.stats.bump("miss_stall_cycles")
                return delivered_any
            budget -= self._deliver(entry, addr, bid, now, budget)
            if not delivered_any:
                self.stats.bump("active_cycles")
                delivered_any = True
            if entry.wrong_path and not wrong_any:
                self.stats.bump("wrong_path_cycles")
                wrong_any = True
        return delivered_any

    # ------------------------------------------------------------------

    def _deliver(self, entry: FTQEntry, addr: int, bid: int,
                 now: int, budget: int) -> int:
        """Deliver instructions from the hit cache block.

        Returns how many instructions were consumed from the cycle's
        ``budget``.
        """
        line_end = (bid + 1) * self._block_bytes
        width_end = addr + budget * INSTRUCTION_BYTES
        deliver_end = min(entry.end, line_end, width_end)
        n = (deliver_end - addr) // INSTRUCTION_BYTES
        if n <= 0:
            raise SimulationError(
                f"fetch delivered no instructions at {addr:#x} "
                f"(entry {entry!r})")

        if entry.wrong_path:
            if self.core.wrong_path_in_window:
                n = min(n, self.backend.free_slots)
                self.backend.deliver_wrong_path(n)
            self.stats.bump("wrong_path_instrs", n)
        else:
            n = min(n, self.backend.free_slots)
            first = entry.first_index + entry.fetch_offset \
                // INSTRUCTION_BYTES
            records = self.trace.records[first:first + n]
            self.backend.deliver(records, now)
            self.stats.bump("instrs_delivered", n)

        entry.fetch_offset += n * INSTRUCTION_BYTES
        if entry.fully_fetched:
            popped = self.ftq.pop_head()
            if popped is not entry:
                raise SimulationError("FTQ head changed mid-fetch")
            if popped.mispredict and not popped.wrong_path:
                resolve_at = (now + self.core.pipeline_depth
                              + self.core.branch_resolve_latency)
                self._on_terminal_delivered(popped, resolve_at)
        return n

    # ------------------------------------------------------------------

    def squash(self) -> None:
        """Pipeline flush: abandon any in-progress (wrong-path) fetch."""
        self._waiting_until = None

    def _extra_state(self) -> dict:
        return {"waiting_until": self._waiting_until}

    def _load_extra_state(self, state: dict) -> None:
        waiting = state["waiting_until"]
        self._waiting_until = int(waiting) if waiting is not None else None
