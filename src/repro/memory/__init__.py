"""Memory substrate: caches, bus, MSHRs, prefetch buffer, hierarchy."""

from repro.memory.block import block_base, block_id, blocks_spanning
from repro.memory.bus import Bus
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import (
    HIT_L1,
    HIT_SIDECAR,
    MERGED,
    MISS,
    RETRY,
    MemorySystem,
    Sidecar,
)
from repro.memory.mshr import MshrEntry, MshrFile
from repro.memory.prefetch_buffer import PrefetchBuffer

__all__ = [
    "block_id",
    "block_base",
    "blocks_spanning",
    "Bus",
    "SetAssociativeCache",
    "MshrFile",
    "MshrEntry",
    "PrefetchBuffer",
    "MemorySystem",
    "Sidecar",
    "HIT_L1",
    "HIT_SIDECAR",
    "MERGED",
    "MISS",
    "RETRY",
]
