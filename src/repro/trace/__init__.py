"""Dynamic instruction traces: records, containers, IO, stats, caching."""

from repro.trace.cache import TraceCache, default_cache_dir
from repro.trace.io import TRACE_MAGIC, TRACE_VERSION, read_trace, write_trace
from repro.trace.records import TraceRecord
from repro.trace.stats import TraceStats, characterize
from repro.trace.stream import Trace

__all__ = [
    "TraceRecord",
    "Trace",
    "TraceStats",
    "characterize",
    "read_trace",
    "write_trace",
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "TraceCache",
    "default_cache_dir",
]
