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
   priority.

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

from repro.config import FilterMode, PrefetchConfig
from repro.errors import SimulationError
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.block import blocks_spanning
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
        if self._remove and piq:
            self._remove_filter()
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
            depth = self._piq_depth
            ideal = self._ideal
            probe = self._probe
            memory = self.memory
            block_bytes = memory.block_bytes
            buffered = self.buffer.contains
            stats = self.stats
            while index < stop and len(piq) < depth:
                entry = entries[index]
                wrong_path = entry.wrong_path
                for bid in blocks_spanning(entry.start, entry.end,
                                           block_bytes):
                    if len(piq) >= depth:
                        break
                    if bid in piq:
                        stats.duplicate_candidates += 1
                        continue
                    stats.candidates += 1
                    if buffered(bid):
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
                else:
                    index += 1
                    continue
                break  # PIQ filled up mid-entry; rescan it next cycle
            ftq.scan_index = index
        if piq:
            self._issue(now)

    def squash(self) -> None:
        """Pipeline flush: pending (unissued) prefetches are discarded."""
        self.stats.piq_squashed += len(self._piq)
        self._piq.clear()

    # ------------------------------------------------------------------
    # Stage 1: remove filtering of queued candidates
    # ------------------------------------------------------------------

    def _remove_filter(self) -> None:
        """Probe PIQ entries with idle tag ports; drop resident blocks."""
        for bid in list(self._piq):
            if self.memory.idle_tag_ports == 0:
                break
            resident = self.memory.cpf_probe(bid)
            if resident is None:
                break
            if resident:
                del self._piq[bid]
                self.stats.filtered_remove += 1

    # ------------------------------------------------------------------
    # Stage 3: issue
    # ------------------------------------------------------------------

    def _issue(self, now: int) -> None:
        piq = self._piq
        memory = self.memory
        stats = self.stats
        issued = 0
        while piq and issued < self._max_issue:
            bid, wrong_path = next(iter(piq.items()))
            if self.buffer.contains(bid):
                del piq[bid]
                stats.filtered_in_buffer += 1
                continue
            if self._ideal and memory.oracle_probe(bid):
                del piq[bid]
                stats.filtered_ideal += 1
                continue
            if memory.mshrs.get(bid) is not None:
                del piq[bid]
                stats.dropped_in_flight += 1
                continue
            if not memory.try_issue_prefetch(bid, now,
                                             wrong_path=wrong_path):
                break  # bus busy or MSHRs full; retry next cycle
            del piq[bid]
            issued += 1
            stats.issued += 1
            if wrong_path:
                stats.issued_wrong_path += 1

    # ------------------------------------------------------------------

    def extra_stat_groups(self):
        return [self.stats, self.buffer.stats]

    def validate(self) -> None:
        """Internal consistency check used by tests."""
        if len(self._piq) > self.config.piq_depth:
            raise SimulationError("PIQ exceeded its configured depth")
