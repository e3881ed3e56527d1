"""Stream buffers (Jouppi), the paper's other classic baseline.

``stream_buffers`` FIFO buffers of ``stream_depth`` blocks each.  A demand
miss (optionally gated by a two-consecutive-misses allocation filter, per
Palacharla & Kessler) allocates the least-recently-used buffer and starts
prefetching the sequential blocks that follow the miss.  Every demand
access compares against the *head* of each buffer; a head hit supplies the
block to the L1-I, shifts the buffer, and requests the next sequential
block at the tail.

Stream buffers follow straight-line streams only — they cannot anticipate
taken branches, which is precisely the weakness fetch-directed prefetching
addresses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.config import PrefetchConfig
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import MISS, MemorySystem, Sidecar
from repro.memory.mshr import MshrEntry
from repro.prefetch.base import Prefetcher

__all__ = ["StreamBufferPrefetcher"]


@dataclass(slots=True)
class _Slot:
    bid: int
    arrived: bool = False


class _StreamBuffer:
    """One sequential stream."""

    def __init__(self, depth: int):
        self.depth = depth
        self.slots: deque[_Slot] = deque()
        self.next_bid: int | None = None    # next sequential block to request
        self.last_touch = -1

    @property
    def active(self) -> bool:
        return self.next_bid is not None

    def reset(self, start_bid: int, now: int) -> None:
        self.slots.clear()
        self.next_bid = start_bid
        self.last_touch = now

    @property
    def wants_request(self) -> bool:
        return self.active and len(self.slots) < self.depth


class StreamBufferPrefetcher(Prefetcher):
    """Multi-buffer sequential stream prefetcher."""

    def __init__(self, memory: MemorySystem, config: PrefetchConfig):
        super().__init__("stream", memory)
        self.config = config
        self.buffers = [_StreamBuffer(config.stream_depth)
                        for _ in range(config.stream_buffers)]
        # bid -> slots awaiting that fill (usually exactly one).
        self._pending: dict[int, list[_Slot]] = {}
        self._last_miss_bid: int | None = None
        self._now = 0

    @property
    def sidecar(self) -> Sidecar:
        return self

    @property
    def total_storage_blocks(self) -> int:
        """Block capacity (for equal-storage comparisons with FDIP)."""
        return self.config.stream_buffers * self.config.stream_depth

    # ------------------------------------------------------------------
    # Sidecar protocol (probed by the memory system)
    # ------------------------------------------------------------------

    def probe_and_claim(self, bid: int, now: int = 0) -> bool:
        probe_depth = self.config.stream_probe_depth
        for buffer in self.buffers:
            found = None
            for position, slot in enumerate(buffer.slots):
                if position >= probe_depth:
                    break
                if slot.bid == bid:
                    found = position
                    break
            if found is None:
                continue
            # Shift out everything up to and including the hit (skipped
            # leading slots are discarded, as in lookup-variant stream
            # buffers).
            hit = None
            for _ in range(found + 1):
                hit = buffer.slots.popleft()
                self._unpend(hit.bid, hit)
            buffer.last_touch = self._now
            if found > 0:
                self.stats.bump("non_head_hits")
            if hit.arrived:
                self.stats.bump("head_hits")
                return True
            # In flight: the demand access will merge in the MSHRs.
            self.stats.bump("head_hits_in_flight")
            return False
        return False

    def fill(self, bid: int, entry: MshrEntry) -> None:
        for slot in self._pending.pop(bid, []):
            slot.arrived = True

    def fill_merged(self, bid: int) -> None:
        """A prefetch we issued was overtaken by a demand merge."""
        for slot in self._pending.pop(bid, []):
            slot.arrived = True
        self.stats.bump("late_fills")

    def _unpend(self, bid: int, slot: _Slot) -> None:
        waiting = self._pending.get(bid)
        if not waiting:
            return
        if slot in waiting:
            waiting.remove(slot)
        if not waiting:
            del self._pending[bid]

    # ------------------------------------------------------------------
    # Demand feedback: allocation
    # ------------------------------------------------------------------

    def on_demand(self, bid: int, outcome: str, now: int) -> None:
        self._now = now
        if outcome != MISS:
            return
        if self.config.allocation_filter:
            sequential = (self._last_miss_bid is not None
                          and bid == self._last_miss_bid + 1)
            self._last_miss_bid = bid
            if not sequential:
                self.stats.bump("allocations_filtered")
                return
        self._allocate(bid, now)

    def _allocate(self, bid: int, now: int) -> None:
        victim = min(self.buffers, key=lambda b: b.last_touch)
        for slot in list(victim.slots):
            self._unpend(slot.bid, slot)
        victim.reset(bid + 1, now)
        self.stats.bump("allocations")

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        # A buffer wanting a request issues (or bumps rejection counters)
        # every cycle; otherwise tick only refreshes the internal clock,
        # which on_skip reproduces.
        return not any(buffer.wants_request for buffer in self.buffers)

    def on_skip(self, last_cycle: int) -> None:
        # The naive loop sets _now on every tick; catch the clock up so
        # LRU timestamps taken before our next tick are identical.
        self._now = last_cycle

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        self._now = now
        issued = 0
        for buffer in self.buffers:
            if issued >= self.config.max_prefetches_per_cycle:
                break
            if not buffer.wants_request:
                continue
            bid = buffer.next_bid
            slot = _Slot(bid)
            if bid in self._pending:
                # Another buffer already requested it; share the fill.
                self._pending[bid].append(slot)
                buffer.slots.append(slot)
                buffer.next_bid = bid + 1
                continue
            if self.memory.oracle_probe(bid) \
                    or self.memory.mshrs.get(bid) is not None:
                # Already resident or inbound: the slot is satisfied.
                slot.arrived = True
                buffer.slots.append(slot)
                buffer.next_bid = bid + 1
                self.stats.bump("requests_satisfied_locally")
                continue
            if not self.memory.try_issue_prefetch(bid, now):
                break  # bus busy / MSHRs full
            self._pending[bid] = [slot]
            buffer.slots.append(slot)
            buffer.next_bid = bid + 1
            issued += 1
            self.stats.bump("issued")
