"""Fetch-directed instruction prefetching — the paper's contribution.

The FDIP prefetch engine watches the FTQ.  Every cycle it:

1. (*remove* filtering only) spends idle L1-I tag ports probing blocks
   already waiting in the prefetch instruction queue (PIQ), discarding
   those that turn out to be cache resident;
2. scans not-yet-scanned non-head FTQ entries, decomposes each predicted
   fetch block into cache-block addresses, applies *enqueue* filtering
   (probe on the way into the PIQ, when an idle port exists), and enqueues
   the survivors;
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

    @property
    def sidecar(self) -> Sidecar:
        return self._sidecar

    @property
    def piq_occupancy(self) -> int:
        return len(self._piq)

    # ------------------------------------------------------------------

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        # An empty PIQ silences the remove filter and the issue stage;
        # with no unscanned FTQ entry in the lookahead window the scan
        # stage has nothing to consume either, so tick is a no-op.
        return (not self._piq
                and not ftq.has_unscanned(self.config.min_lookahead,
                                          self.config.max_lookahead))

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        if self.config.filter_mode == FilterMode.REMOVE:
            self._remove_filter()
        self._scan_ftq(ftq)
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
        if not self._piq:
            return
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
    # Stage 2: FTQ scan + enqueue filtering
    # ------------------------------------------------------------------

    def _scan_ftq(self, ftq: FetchTargetQueue) -> None:
        mode = self.config.filter_mode
        for entry in ftq.prefetch_candidates(
                start=self.config.min_lookahead,
                stop=self.config.max_lookahead):
            if len(self._piq) >= self.config.piq_depth:
                break
            for bid in blocks_spanning(entry.start, entry.end,
                                       self.memory.block_bytes):
                if len(self._piq) >= self.config.piq_depth:
                    break
                self._consider(bid, entry.wrong_path, mode)
            else:
                entry.prefetch_scanned = True
                continue
            break  # PIQ filled up mid-entry; rescan the rest next cycle

    def _consider(self, bid: int, wrong_path: bool, mode: str) -> None:
        """Apply enqueue-time filtering and enqueue survivors."""
        if bid in self._piq:
            self.stats.duplicate_candidates += 1
            return
        self.stats.candidates += 1
        if self.buffer.contains(bid):
            self.stats.filtered_in_buffer += 1
            return
        if mode == FilterMode.IDEAL:
            if self.memory.oracle_probe(bid):
                self.stats.filtered_ideal += 1
                return
        elif mode in (FilterMode.ENQUEUE, FilterMode.REMOVE):
            resident = self.memory.cpf_probe(bid)
            if resident:
                self.stats.filtered_enqueue += 1
                return
            if resident is None:
                self.stats.enqueued_unfiltered += 1
        self._piq[bid] = wrong_path

    # ------------------------------------------------------------------
    # Stage 3: issue
    # ------------------------------------------------------------------

    def _issue(self, now: int) -> None:
        issued = 0
        while self._piq and issued < self.config.max_prefetches_per_cycle:
            bid, wrong_path = next(iter(self._piq.items()))
            if self.buffer.contains(bid):
                del self._piq[bid]
                self.stats.filtered_in_buffer += 1
                continue
            if (self.config.filter_mode == FilterMode.IDEAL
                    and self.memory.oracle_probe(bid)):
                del self._piq[bid]
                self.stats.filtered_ideal += 1
                continue
            if self.memory.mshrs.get(bid) is not None:
                del self._piq[bid]
                self.stats.dropped_in_flight += 1
                continue
            if not self.memory.try_issue_prefetch(bid, now,
                                                  wrong_path=wrong_path):
                break  # bus busy or MSHRs full; retry next cycle
            del self._piq[bid]
            issued += 1
            self.stats.issued += 1
            if wrong_path:
                self.stats.issued_wrong_path += 1

    # ------------------------------------------------------------------

    def extra_stat_groups(self):
        return [self.stats, self.buffer.stats]

    def validate(self) -> None:
        """Internal consistency check used by tests."""
        if len(self._piq) > self.config.piq_depth:
            raise SimulationError("PIQ exceeded its configured depth")
