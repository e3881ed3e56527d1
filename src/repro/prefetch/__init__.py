"""Instruction prefetchers: FDIP and the paper's baselines.

:func:`make_prefetcher` instantiates whichever kind a ``SimConfig``
selects (``none``, ``nlp``, ``stream``, ``fdip``, ``fdip_nlp``; the
kinds ``PrefetchConfig`` accepts are ``PrefetcherKind.ALL``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import PrefetcherKind
from repro.prefetch.base import Prefetcher
from repro.prefetch.combined import CombinedPrefetcher
from repro.prefetch.fdip import FdipPrefetcher, PrefetchBufferSidecar
from repro.prefetch.nlp import NlpPrefetcher
from repro.prefetch.none import NonePrefetcher
from repro.prefetch.stream import StreamBufferPrefetcher

if TYPE_CHECKING:
    from repro.config import SimConfig
    from repro.memory.hierarchy import MemorySystem

__all__ = [
    "Prefetcher",
    "CombinedPrefetcher",
    "NonePrefetcher",
    "NlpPrefetcher",
    "StreamBufferPrefetcher",
    "FdipPrefetcher",
    "PrefetchBufferSidecar",
    "make_prefetcher",
]

# One class per PrefetcherKind.ALL entry; each constructor takes
# (memory, prefetch_config).
_PREFETCHERS: dict[str, type[Prefetcher]] = {
    PrefetcherKind.NONE: NonePrefetcher,
    PrefetcherKind.NLP: NlpPrefetcher,
    PrefetcherKind.STREAM: StreamBufferPrefetcher,
    PrefetcherKind.FDIP: FdipPrefetcher,
    PrefetcherKind.COMBINED: CombinedPrefetcher,
}


def make_prefetcher(config: "SimConfig",
                    memory: "MemorySystem") -> Prefetcher:
    """Instantiate the prefetcher selected by ``config.prefetch.kind``."""
    return _PREFETCHERS[config.prefetch.kind](memory, config.prefetch)
