"""Fetch-directed instruction prefetching — the paper's contribution.

The FDIP prefetch engine watches the FTQ.  Every cycle it:

1. (*remove* filtering only) spends idle L1-I tag ports probing blocks
   already waiting in the prefetch instruction queue (PIQ), discarding
   those that turn out to be cache resident;
2. scans the non-head FTQ entries its cursor (``FetchTargetQueue.
   scan_index``) has not passed, decomposes each predicted fetch block
   into cache-block addresses, applies *enqueue* filtering (probe on the
   way into the PIQ, when an idle port exists), and enqueues the
   survivors.  A cycle with no new entry costs no scan work; an entry
   whose blocks fill the PIQ mid-way is not passed, and is rescanned
   from its start once the PIQ has room;
3. issues up to ``max_prefetches_per_cycle`` PIQ-head blocks to the L2 —
   only when the bus is idle and an MSHR is free, preserving demand
   priority.  Heads already in the prefetch buffer or in flight are
   dropped on the way.

Prefetched blocks fill the fully-associative prefetch buffer, which the
memory system probes in parallel with the L1-I on demand fetches.

Filtering variants (:class:`~repro.config.FilterMode`):

- ``none`` — no probes; every candidate is enqueued and issued.
- ``enqueue`` — probe at PIQ-entry time if an idle port exists; without a
  port the candidate is enqueued unfiltered (conservative).
- ``remove`` — enqueue filtering plus PIQ re-probing with leftover ports.
- ``ideal`` — oracle: candidates resident in the L1-I are dropped with no
  port cost, and issue re-checks residence.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from itertools import islice

from repro.config import FilterMode, PrefetchConfig
from repro.errors import SimulationError
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import MemorySystem, Sidecar
from repro.memory.mshr import MshrEntry
from repro.memory.prefetch_buffer import PrefetchBuffer
from repro.prefetch.base import Prefetcher
from repro.stats import StatGroup

__all__ = ["FdipPrefetcher", "PrefetchBufferSidecar"]


class PrefetchBufferSidecar:
    """Adapts :class:`PrefetchBuffer` to the memory-system sidecar API."""

    def __init__(self, buffer: PrefetchBuffer):
        self.buffer = buffer

    def probe_and_claim(self, bid: int, now: int) -> bool:
        return self.buffer.claim(bid, now)

    def fill(self, bid: int, entry: MshrEntry) -> None:
        self.buffer.insert(bid, wrong_path=entry.wrong_path,
                           cycle=entry.ready_cycle)

    def fill_merged(self, bid: int) -> None:
        """The block went straight to the L1-I; nothing to buffer."""


class FdipStats(StatGroup):
    """Counters of the :class:`FdipPrefetcher`."""

    __slots__ = ("candidates", "duplicate_candidates", "filtered_in_buffer",
                 "filtered_ideal", "filtered_enqueue", "filtered_remove",
                 "enqueued_unfiltered", "dropped_in_flight", "issued",
                 "issued_wrong_path", "piq_squashed")


class FdipPrefetcher(Prefetcher):
    """The FDIP prefetch engine with cache probe filtering."""

    def __init__(self, memory: MemorySystem, config: PrefetchConfig):
        super().__init__(FdipStats("fdip"), memory)
        self.config = config
        self.buffer = PrefetchBuffer(config.buffer_entries)
        self._sidecar = PrefetchBufferSidecar(self.buffer)
        # PIQ: bid -> wrong_path flag; insertion order = issue order.
        self._piq: OrderedDict[int, bool] = OrderedDict()
        # The config decoded once for the per-cycle tick.
        mode = config.filter_mode
        self._remove = mode == FilterMode.REMOVE
        self._ideal = mode == FilterMode.IDEAL
        self._probe = mode in (FilterMode.ENQUEUE, FilterMode.REMOVE)
        self._piq_depth = config.piq_depth
        self._max_issue = config.max_prefetches_per_cycle
        self._min_lookahead = config.min_lookahead
        self._max_lookahead = (sys.maxsize if config.max_lookahead is None
                               else config.max_lookahead)

    @property
    def sidecar(self) -> Sidecar:
        return self._sidecar

    @property
    def piq_occupancy(self) -> int:
        return len(self._piq)

    # ------------------------------------------------------------------

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        # An empty PIQ silences the remove filter and the issue stage;
        # with the scan cursor at or past the end of the lookahead
        # window the scan stage has nothing to consume either, so tick
        # is a no-op.
        if self._piq:
            return False
        stop = min(len(ftq._entries), self._max_lookahead)
        return max(self._min_lookahead, ftq.scan_index) >= stop

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        piq = self._piq
        memory = self.memory
        stats = self.stats
        buffered = self.buffer._blocks
        if self._remove and piq:
            # Stage 1: probe PIQ heads with this cycle's idle tag ports
            # and drop the resident ones.  Each probe takes one port, so
            # the heads probed are the first idle_tag_ports of the PIQ.
            idle = memory.idle_tag_ports
            if idle:
                for bid in list(islice(piq, idle)):
                    if memory.cpf_probe(bid):
                        del piq[bid]
                        stats.filtered_remove += 1
        # Stage 2: scan the entries the cursor has not passed, in queue
        # order, and enqueue their blocks through enqueue filtering.
        entries = ftq._entries
        stop = len(entries)
        if self._max_lookahead < stop:
            stop = self._max_lookahead
        index = ftq.scan_index
        if index < self._min_lookahead:
            index = self._min_lookahead
        if index < stop:
            room = self._piq_depth - len(piq)
            ideal = self._ideal
            probe = self._probe
            block_bytes = memory.block_bytes
            while index < stop and room > 0:
                entry = entries[index]
                wrong_path = entry.wrong_path
                # The cache blocks of [start, end); a block is never
                # empty.
                for bid in range(entry.start // block_bytes,
                                 (entry.end - 1) // block_bytes + 1):
                    if not room:
                        break
                    if bid in piq:
                        stats.duplicate_candidates += 1
                        continue
                    stats.candidates += 1
                    if bid in buffered:
                        stats.filtered_in_buffer += 1
                        continue
                    if ideal:
                        if memory.oracle_probe(bid):
                            stats.filtered_ideal += 1
                            continue
                    elif probe:
                        resident = memory.cpf_probe(bid)
                        if resident:
                            stats.filtered_enqueue += 1
                            continue
                        if resident is None:
                            stats.enqueued_unfiltered += 1
                    piq[bid] = wrong_path
                    room -= 1
                else:
                    index += 1
                    continue
                break  # PIQ filled up mid-entry; rescan it next cycle
            ftq.scan_index = index
        if not piq:
            return
        # Stage 3: issue up to max_prefetches_per_cycle PIQ heads to the
        # L2, dropping heads already buffered or in flight on the way.
        # Nothing here changes the PIQ, so the walk counts the heads it
        # is done with and they leave the queue after it.
        in_flight = memory.mshrs._entries
        issued = done = 0
        for bid, wrong_path in piq.items():
            if bid in buffered:
                stats.filtered_in_buffer += 1
            elif self._ideal and memory.oracle_probe(bid):
                stats.filtered_ideal += 1
            elif bid in in_flight:
                stats.dropped_in_flight += 1
            elif memory.try_issue_prefetch(bid, now, wrong_path):
                issued += 1
                stats.issued += 1
                if wrong_path:
                    stats.issued_wrong_path += 1
            else:
                break  # bus busy or MSHRs full; retry next cycle
            done += 1
            if issued == self._max_issue:
                break
        while done:
            piq.popitem(last=False)
            done -= 1

    def squash(self) -> None:
        """Pipeline flush: pending (unissued) prefetches are discarded."""
        self.stats.piq_squashed += len(self._piq)
        self._piq.clear()

    # ------------------------------------------------------------------

    def extra_stat_groups(self):
        return [self.stats, self.buffer.stats]

    def validate(self) -> None:
        """Internal consistency check used by tests."""
        if len(self._piq) > self.config.piq_depth:
            raise SimulationError("PIQ exceeded its configured depth")
