"""The no-prefetch baseline."""

from __future__ import annotations

from repro.config import PrefetchConfig
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import MemorySystem, Sidecar
from repro.prefetch.base import Prefetcher
from repro.stats import StatGroup

__all__ = ["NonePrefetcher"]


class NonePrefetcher(Prefetcher):
    """Issues no prefetches; every L1-I miss pays full latency."""

    inert_tick = True   # tick is a literal no-op on every cycle

    def __init__(self, memory: MemorySystem,
                 config: PrefetchConfig | None = None):
        super().__init__(StatGroup("nopf"), memory)   # counts nothing

    @property
    def sidecar(self) -> Sidecar | None:
        return None

    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        """Nothing to do."""

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        return True
