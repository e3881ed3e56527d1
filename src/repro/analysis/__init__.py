"""Post-simulation analysis: stall accounting, prefetch timeliness,
pipeline tracing and ASCII charts."""

from repro.analysis.chart import bar_chart, histogram_chart
from repro.analysis.pipetrace import CycleSnapshot, PipeTracer
from repro.analysis.stalls import StallBreakdown, stall_breakdown
from repro.analysis.timeliness import TimelinessSummary, timeliness_summary

__all__ = [
    "bar_chart",
    "histogram_chart",
    "PipeTracer",
    "CycleSnapshot",
    "StallBreakdown",
    "stall_breakdown",
    "TimelinessSummary",
    "timeliness_summary",
]
