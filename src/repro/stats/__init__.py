"""Statistics primitives, the telemetry spine, and report formatting."""

from repro.stats.counters import Histogram, RunLengthObserver, StatGroup
from repro.stats.report import (
    format_table,
    format_value,
    rows_to_csv,
    rows_to_json,
    telemetry_table,
)
from repro.stats.sweep import (
    merge_counters,
    merge_snapshots,
    summary_line,
)
from repro.stats.telemetry import (
    SCHEMA,
    IntervalSample,
    IntervalSampler,
    IntervalSeries,
    TelemetryNode,
    TelemetrySnapshot,
    merge_nodes,
)

__all__ = [
    "Histogram",
    "RunLengthObserver",
    "StatGroup",
    "SCHEMA",
    "TelemetryNode",
    "TelemetrySnapshot",
    "IntervalSample",
    "IntervalSampler",
    "IntervalSeries",
    "merge_nodes",
    "merge_snapshots",
    "format_table",
    "format_value",
    "rows_to_csv",
    "rows_to_json",
    "telemetry_table",
    "merge_counters",
    "summary_line",
]
