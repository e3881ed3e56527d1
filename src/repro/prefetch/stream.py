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
from repro.stats import StatGroup

__all__ = ["StreamBufferPrefetcher"]


@dataclass(slots=True)
class _Slot:
    bid: int
    arrived: bool = False


class _StreamBuffer:
    """One sequential stream.

    A buffer *wants a request* while it is active and has a free slot.
    Only its owner changes ``next_bid`` and ``slots``, and it keeps its
    count of wanting buffers in step at each change.
    """

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


class StreamStats(StatGroup):
    """Counters of the :class:`StreamBufferPrefetcher`."""

    __slots__ = ("allocations", "allocations_filtered", "issued",
                 "requests_satisfied_locally", "head_hits",
                 "head_hits_in_flight", "non_head_hits", "late_fills")


class StreamBufferPrefetcher(Prefetcher):
    """Multi-buffer sequential stream prefetcher."""

    def __init__(self, memory: MemorySystem, config: PrefetchConfig):
        super().__init__(StreamStats("stream"), memory)
        self.config = config
        self.buffers = [_StreamBuffer(config.stream_depth)
                        for _ in range(config.stream_buffers)]
        # bid -> slots awaiting that fill (usually exactly one).
        self._pending: dict[int, list[_Slot]] = {}
        self._last_miss_bid: int | None = None
        self._now = 0
        # How many buffers want a request (active, with a free slot).
        self._wanting = 0

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
            # buffers).  A buffer holding slots is active, so freeing
            # one makes a full buffer want a request again.
            if len(buffer.slots) >= buffer.depth:
                self._wanting += 1
            hit = None
            for _ in range(found + 1):
                hit = buffer.slots.popleft()
                self._unpend(hit.bid, hit)
            buffer.last_touch = self._now
            if found > 0:
                self.stats.non_head_hits += 1
            if hit.arrived:
                self.stats.head_hits += 1
                return True
            # In flight: the demand access will merge in the MSHRs.
            self.stats.head_hits_in_flight += 1
            return False
        return False

    def fill(self, bid: int, entry: MshrEntry) -> None:
        for slot in self._pending.pop(bid, []):
            slot.arrived = True

    def fill_merged(self, bid: int) -> None:
        """A prefetch we issued was overtaken by a demand merge."""
        for slot in self._pending.pop(bid, []):
            slot.arrived = True
        self.stats.late_fills += 1

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
                self.stats.allocations_filtered += 1
                return
        self._allocate(bid, now)

    def _allocate(self, bid: int, now: int) -> None:
        victim = min(self.buffers, key=lambda b: b.last_touch)
        for slot in list(victim.slots):
            self._unpend(slot.bid, slot)
        if victim.next_bid is None or len(victim.slots) >= victim.depth:
            self._wanting += 1   # the reset buffer wants its first block
        victim.reset(bid + 1, now)
        self.stats.allocations += 1

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        # A buffer wanting a request issues (or bumps rejection counters)
        # every cycle; otherwise tick only refreshes the internal clock,
        # which on_skip reproduces.
        return not self._wanting

    def on_skip(self, last_cycle: int) -> None:
        # The naive loop sets _now on every tick; catch the clock up so
        # LRU timestamps taken before our next tick are identical.
        self._now = last_cycle

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        self._now = now
        if not self._wanting:
            return
        memory = self.memory
        pending = self._pending
        limit = self.config.max_prefetches_per_cycle
        issued = 0
        for buffer in self.buffers:
            if issued >= limit:
                break
            bid = buffer.next_bid
            if bid is None or len(buffer.slots) >= buffer.depth:
                continue
            slot = _Slot(bid)
            if bid in pending:
                # Another buffer already requested it; share the fill.
                pending[bid].append(slot)
                self._append(buffer, slot)
                continue
            if memory.oracle_probe(bid) or memory.mshrs.get(bid) is not None:
                # Already resident or inbound: the slot is satisfied.
                slot.arrived = True
                self._append(buffer, slot)
                self.stats.requests_satisfied_locally += 1
                continue
            if not memory.try_issue_prefetch(bid, now):
                break  # bus busy / MSHRs full
            pending[bid] = [slot]
            self._append(buffer, slot)
            issued += 1
            self.stats.issued += 1

    def _append(self, buffer: _StreamBuffer, slot: _Slot) -> None:
        """Queue ``slot`` at the tail and advance the stream past it."""
        buffer.slots.append(slot)
        buffer.next_bid = slot.bid + 1
        if len(buffer.slots) >= buffer.depth:
            self._wanting -= 1
