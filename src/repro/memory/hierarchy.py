"""The memory system seen by the fetch engine and the prefetchers.

Composition: an L1 instruction cache with a small number of tag ports, a
unified L2 reached over a shared bus (demand priority), main memory behind
the L2, an MSHR file providing merge semantics, and an optional *sidecar*
— prefetcher-owned storage (the FDIP/NLP prefetch buffer, or stream
buffers) probed in parallel with the L1-I on every demand access.

Timing rules:

- L1-I hit (or sidecar hit, which promotes the block into the L1-I):
  ``icache_hit_latency``.
- L1-I miss: one bus transfer (queued behind in-flight transfers) plus the
  L2 hit latency, or the memory latency on an L2 miss.  Completed memory
  fills also install the block in the L2.
- Prefetches use the same path but may only start when the bus is idle
  *and* an MSHR is free; they fill the sidecar (unless a demand access
  merged into them while in flight, in which case the fill goes to the
  L1-I and is counted as a *late prefetch*).
- The L1-I tag array has ``icache_tag_ports`` ports per cycle.  Demand
  accesses consume ports first; cache probe filtering may use whatever is
  left via :meth:`cpf_probe`.
"""

from __future__ import annotations

import heapq
from typing import Protocol

from repro.component import StatsComponent
from repro.config import MemoryConfig
from repro.errors import SimulationError
from repro.memory.bus import Bus
from repro.memory.cache import SetAssociativeCache
from repro.memory.mshr import MshrEntry, MshrFile
from repro.stats import StatGroup

__all__ = ["MemorySystem", "Sidecar", "DemandResult",
           "HIT_L1", "HIT_SIDECAR", "MERGED", "MISS", "RETRY"]

HIT_L1 = "l1"
HIT_SIDECAR = "sidecar"
MERGED = "merged"
MISS = "miss"
RETRY = "retry"


class Sidecar(Protocol):
    """Prefetcher-owned storage probed in parallel with the L1-I."""

    def probe_and_claim(self, bid: int, now: int) -> bool:
        """Demand probe at cycle ``now``; on hit the block leaves the
        sidecar (promoted into the L1-I)."""

    def fill(self, bid: int, entry: MshrEntry) -> None:
        """A prefetch issued by the owner completed; store the block."""

    def fill_merged(self, bid: int) -> None:
        """A prefetch the owner issued completed, but a demand access
        merged into it in flight; the block went to the L1-I instead."""


class DemandResult:
    """Outcome of one demand fetch access (plain value object)."""

    __slots__ = ("outcome", "ready_cycle")

    def __init__(self, outcome: str, ready_cycle: int | None):
        self.outcome = outcome
        self.ready_cycle = ready_cycle

    @property
    def is_hit(self) -> bool:
        return self.outcome in (HIT_L1, HIT_SIDECAR)

    def __repr__(self) -> str:
        return f"DemandResult({self.outcome}, ready={self.ready_cycle})"


class MemorySystem(StatsComponent):
    """L1-I + L2 + memory + bus + MSHRs + sidecar, cycle-accurate.

    The hierarchy reports as one telemetry subtree: the ``mem`` node
    with the caches, bus, and MSHR file as children.  (The sidecar is
    prefetcher-owned and reports under the prefetcher's node.)
    """

    def sub_components(self):
        return (self.l1i, self.l2, self.bus, self.mshrs)

    def __init__(self, config: MemoryConfig, sidecar: Sidecar | None = None,
                 prefetch_fill_to_l1: bool = False):
        self.config = config
        # Ablation: route completed prefetches straight into the L1-I
        # instead of the prefetch buffer (the paper's argument for the
        # buffer is exactly the pollution this causes).
        self.prefetch_fill_to_l1 = prefetch_fill_to_l1
        self.block_bytes = config.icache.block_bytes
        self.l1i = SetAssociativeCache(config.icache, name="l1i")
        self.l2 = SetAssociativeCache(config.l2, name="l2")
        self.bus = Bus(config.bus_transfer_cycles)
        self.mshrs = MshrFile(config.mshr_entries)
        self.sidecar = sidecar
        self.stats = StatGroup("mem")
        self._events: list[tuple[int, int]] = []   # (ready_cycle, bid) heap
        self._ports_used = 0
        self._now = 0

    # ------------------------------------------------------------------
    # Cycle bookkeeping
    # ------------------------------------------------------------------

    def begin_cycle(self, now: int) -> None:
        """Advance to ``now``: complete due fills, reset the port budget."""
        self._now = now
        self._ports_used = 0
        while self._events and self._events[0][0] <= now:
            _, bid = heapq.heappop(self._events)
            self._complete_fill(bid)

    def _complete_fill(self, bid: int) -> None:
        entry = self.mshrs.release(bid)
        if entry.is_prefetch and not entry.demand_merged:
            if self.prefetch_fill_to_l1:
                self.l1i.fill(bid)
                self.stats.bump("prefetch_fills_to_l1")
                return
            if self.sidecar is None:
                raise SimulationError(
                    "prefetch fill completed with no sidecar attached")
            self.sidecar.fill(bid, entry)
            return
        self.l1i.fill(bid)
        if entry.is_prefetch:
            self.stats.bump("late_prefetch_fills")
            if self.sidecar is not None:
                self.sidecar.fill_merged(bid)

    @property
    def next_event_cycle(self) -> int | None:
        """Earliest pending fill-completion cycle (None when none)."""
        return self._events[0][0] if self._events else None

    def next_wake_cycle(self, now: int) -> int | None:
        """Wake contract: the memory system self-schedules exactly its
        pending fill completions (the per-cycle tag-port budget reset
        is input-free bookkeeping the engines inline)."""
        return self._events[0][0] if self._events else None

    def drain_in_flight(self) -> None:
        """Complete every outstanding fill immediately (end of simulation)."""
        while self._events:
            _, bid = heapq.heappop(self._events)
            self._complete_fill(bid)

    # ------------------------------------------------------------------
    # Demand path (fetch engine)
    # ------------------------------------------------------------------

    def demand_fetch(self, bid: int, now: int) -> DemandResult:
        """One demand access to block ``bid`` at cycle ``now``.

        Consumes an L1-I tag port.  Returns the outcome and, for misses,
        the cycle at which the fill completes (``RETRY`` means the MSHR
        file was full and the access must be retried next cycle).
        """
        self._ports_used += 1
        self.stats.bump("demand_accesses")
        if self.l1i.lookup(bid):
            return DemandResult(HIT_L1, now)
        if self.sidecar is not None \
                and self.sidecar.probe_and_claim(bid, now):
            self.l1i.fill(bid)
            self.stats.bump("sidecar_promotions")
            return DemandResult(HIT_SIDECAR, now)
        in_flight = self.mshrs.get(bid)
        if in_flight is not None:
            self.mshrs.merge_demand(bid)
            return DemandResult(MERGED, in_flight.ready_cycle)
        if self.mshrs.full:
            self.stats.bump("demand_mshr_stalls")
            return DemandResult(RETRY, None)
        start = self.bus.acquire_demand(now)
        ready = start + self.bus.transfer_cycles + self._backing_latency(bid)
        self.mshrs.allocate(bid, ready, is_prefetch=False)
        heapq.heappush(self._events, (ready, bid))
        self.stats.bump("demand_misses")
        return DemandResult(MISS, ready)

    def _backing_latency(self, bid: int) -> int:
        """L2 lookup for latency; memory fills install into the L2."""
        if self.l2.lookup(bid):
            return self.config.l2_hit_latency
        self.l2.fill(bid)
        self.stats.bump("l2_misses")
        return self.config.memory_latency

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------

    def try_issue_prefetch(self, bid: int, now: int,
                           wrong_path: bool = False) -> bool:
        """Attempt to start a prefetch of ``bid``.

        Fails (returns False) when the block is already in flight, the
        MSHR file is full, or the bus is not idle (demand priority).
        """
        if self.mshrs.get(bid) is not None:
            self.stats.bump("prefetch_already_in_flight")
            return False
        if self.mshrs.full:
            self.stats.bump("prefetch_mshr_stalls")
            return False
        start = self.bus.try_acquire_prefetch(now)
        if start is None:
            return False
        ready = start + self.bus.transfer_cycles + self._backing_latency(bid)
        self.mshrs.allocate(bid, ready, is_prefetch=True,
                            wrong_path=wrong_path)
        heapq.heappush(self._events, (ready, bid))
        self.stats.bump("prefetches_issued")
        if wrong_path:
            self.stats.bump("prefetches_issued_wrong_path")
        return True

    # ------------------------------------------------------------------
    # Tag ports / cache probe filtering
    # ------------------------------------------------------------------

    @property
    def idle_tag_ports(self) -> int:
        """Tag ports still unused this cycle."""
        return max(0, self.config.icache_tag_ports - self._ports_used)

    def cpf_probe(self, bid: int) -> bool | None:
        """Cache-probe-filter probe using one idle tag port.

        Returns None when no idle port remains this cycle; otherwise
        consumes a port and answers whether ``bid`` is in the L1-I.
        """
        if self.idle_tag_ports == 0:
            self.stats.bump("cpf_no_port")
            return None
        self._ports_used += 1
        self.stats.bump("cpf_probes")
        return self.l1i.probe(bid)

    def oracle_probe(self, bid: int) -> bool:
        """Port-free, stat-free residence check (ideal filtering)."""
        return self.l1i.contains(bid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def in_flight_blocks(self) -> list[int]:
        return [entry.bid for entry in self.mshrs.outstanding()]

    def __repr__(self) -> str:
        return (f"MemorySystem(l1i={self.l1i!r}, l2={self.l2!r}, "
                f"in_flight={len(self.mshrs)})")
