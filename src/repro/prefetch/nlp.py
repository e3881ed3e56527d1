"""Tagged next-line prefetching (Smith), one of the paper's baselines.

On a demand miss for block X, prefetch X+1 .. X+degree.  With tagging
enabled (the classic improvement), the *first demand use* of a block that
arrived via prefetch also triggers prefetching of its successors, letting
the prefetcher stay ahead on sequential runs instead of only reacting to
misses.

Prefetched blocks land in the same fully-associative prefetch buffer FDIP
uses, so the comparison against FDIP is storage-for-storage fair.
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
from repro.memory.mshr import MshrEntry
from repro.memory.prefetch_buffer import PrefetchBuffer
from repro.prefetch.base import Prefetcher

__all__ = ["NlpPrefetcher"]

_REQUEST_QUEUE_DEPTH = 16


class _TaggedBufferSidecar:
    """Prefetch-buffer sidecar that tracks first-use tags for NLP."""

    def __init__(self, buffer: PrefetchBuffer, tags: set[int]):
        self.buffer = buffer
        self._tags = tags

    def probe_and_claim(self, bid: int, now: int) -> bool:
        return self.buffer.claim(bid, now)

    def fill(self, bid: int, entry: MshrEntry) -> None:
        self.buffer.insert(bid, wrong_path=entry.wrong_path,
                           cycle=entry.ready_cycle)
        self._tags.add(bid)

    def fill_merged(self, bid: int) -> None:
        """The block was demanded while in flight; it is no longer a
        not-yet-used prefetch, so it carries no tag."""


class NlpPrefetcher(Prefetcher):
    """Tagged next-line instruction prefetcher."""

    def __init__(self, memory: MemorySystem, config: PrefetchConfig):
        super().__init__("nlp", memory)
        self.config = config
        self.buffer = PrefetchBuffer(config.buffer_entries)
        self._tags: set[int] = set()       # prefetched, not yet demanded
        self._sidecar = _TaggedBufferSidecar(self.buffer, self._tags)
        self._requests: deque[int] = deque()

    @property
    def sidecar(self) -> Sidecar:
        return self._sidecar

    # ------------------------------------------------------------------

    def on_demand(self, bid: int, outcome: str, now: int) -> None:
        if outcome in (MISS, MERGED):
            self._trigger(bid)
            self._tags.discard(bid)
        elif outcome == HIT_SIDECAR:
            # First use of a prefetched block (it just left the buffer).
            self._tags.discard(bid)
            if self.config.nlp_tagged:
                self._trigger(bid)
                self.stats.bump("tag_triggers")
        elif outcome == HIT_L1 and bid in self._tags:
            # First demand use of a block promoted earlier.
            self._tags.discard(bid)
            if self.config.nlp_tagged:
                self._trigger(bid)
                self.stats.bump("tag_triggers")

    def _trigger(self, bid: int) -> None:
        self.stats.bump("triggers")
        for successor in range(bid + 1, bid + 1 + self.config.nlp_degree):
            if successor in self._requests:
                continue
            if len(self._requests) >= _REQUEST_QUEUE_DEPTH:
                self.stats.bump("request_queue_overflow")
                return
            self._requests.append(successor)

    # ------------------------------------------------------------------

    def extra_stat_groups(self):
        return [self.stats, self.buffer.stats]

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        # With an empty request queue tick touches nothing; a non-empty
        # queue keeps probing/issuing (and bumping counters) every cycle.
        return not self._requests

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        issued = 0
        while self._requests and issued < self.config.max_prefetches_per_cycle:
            bid = self._requests[0]
            if (self.buffer.contains(bid)
                    or self.memory.mshrs.get(bid) is not None
                    or self.memory.oracle_probe(bid)):
                # Next-line prefetchers sit beside the cache and can check
                # the tag array for their single candidate cheaply.
                self._requests.popleft()
                self.stats.bump("filtered")
                continue
            if not self.memory.try_issue_prefetch(bid, now):
                break
            self._requests.popleft()
            issued += 1
            self.stats.bump("issued")
