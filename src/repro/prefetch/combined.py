"""Combined FDIP + next-line prefetching.

FDIP covers control-flow-predicted misses; tagged next-line prefetching
covers the straight-line misses FDIP misses when the FTQ is shallow
(right after a squash) or when the prediction unit falls behind.  The
combination shares one prefetch buffer, so the storage comparison with
the individual techniques stays fair.

FDIP keeps issue priority: next-line requests only use whatever issue
bandwidth the PIQ leaves unused in a cycle.
"""

from __future__ import annotations

from collections import deque

from repro.config import PrefetchConfig
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import (
    HIT_L1,
    HIT_SIDECAR,
    MERGED,
    MISS,
    MemorySystem,
    Sidecar,
)
from repro.prefetch.base import Prefetcher
from repro.prefetch.fdip import FdipPrefetcher
from repro.stats import StatGroup

__all__ = ["CombinedPrefetcher"]

_NLP_QUEUE_DEPTH = 16


class CombinedStats(StatGroup):
    """The next-line helper's counters (FDIP's stay in its own group)."""

    __slots__ = ("nlp_issued", "nlp_filtered")


class CombinedPrefetcher(Prefetcher):
    """FDIP plus a tagged next-line helper sharing FDIP's buffer."""

    def __init__(self, memory: MemorySystem, config: PrefetchConfig):
        super().__init__(CombinedStats("combined"), memory)
        self.config = config
        self.fdip = FdipPrefetcher(memory, config)
        self._tags: set[int] = set()
        self._nlp_requests: deque[int] = deque()

    @property
    def buffer(self):
        return self.fdip.buffer

    @property
    def sidecar(self) -> Sidecar:
        return self.fdip.sidecar

    # ------------------------------------------------------------------

    def on_demand(self, bid: int, outcome: str, now: int) -> None:
        if outcome in (MISS, MERGED):
            self._trigger(bid)
            self._tags.discard(bid)
        elif outcome == HIT_SIDECAR:
            self._tags.discard(bid)
            if self.config.nlp_tagged:
                self._trigger(bid)
        elif outcome == HIT_L1 and bid in self._tags:
            self._tags.discard(bid)
            if self.config.nlp_tagged:
                self._trigger(bid)

    def _trigger(self, bid: int) -> None:
        for successor in range(bid + 1, bid + 1 + self.config.nlp_degree):
            if successor in self._nlp_requests:
                continue
            if len(self._nlp_requests) >= _NLP_QUEUE_DEPTH:
                return
            self._nlp_requests.append(successor)

    # ------------------------------------------------------------------

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        return self.fdip.quiescent(ftq) and not self._nlp_requests

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        fdip_stats = self.fdip.stats
        issued_before = fdip_stats.issued
        self.fdip.tick(now, ftq)
        fdip_issued = fdip_stats.issued - issued_before
        budget = self.config.max_prefetches_per_cycle - fdip_issued
        self._issue_nlp(now, budget)

    def _issue_nlp(self, now: int, budget: int) -> None:
        issued = 0
        while self._nlp_requests and issued < budget:
            bid = self._nlp_requests[0]
            if (self.buffer.contains(bid)
                    or self.memory.mshrs.get(bid) is not None
                    or self.memory.oracle_probe(bid)):
                self._nlp_requests.popleft()
                self.stats.nlp_filtered += 1
                continue
            if not self.memory.try_issue_prefetch(bid, now):
                break
            self._nlp_requests.popleft()
            self._tags.add(bid)
            issued += 1
            self.stats.nlp_issued += 1

    # ------------------------------------------------------------------

    def squash(self) -> None:
        """FDIP's PIQ is control-flow speculative; the NLP queue is
        demand driven and survives flushes (like stream buffers)."""
        self.fdip.squash()

    def extra_stat_groups(self):
        return [self.stats, self.fdip.stats, self.buffer.stats]
