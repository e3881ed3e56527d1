"""Structured observability: event log, span tracing, cycle profiler.

Zero-dependency observability spine for the whole stack (see
``docs/observability.md``):

- :mod:`repro.obs.events` — typed, versioned JSON-lines events with
  monotonic timestamps and run/point/attempt correlation ids,
  emitted by the simulator, the supervised pool, the sweep, the result
  store, and the simulation service; sinks (file / stderr / none) configured via the
  CLI, :func:`configure_logging`, or ``REPRO_LOG_*`` env vars;
- :mod:`repro.obs.spans` — nested spans reconstructed from the event
  log, exported as Chrome ``trace_event`` JSON loadable in Perfetto;
- :mod:`repro.obs.profile` — an opt-in per-component cycle-attribution
  profiler whose buckets sum to the measured cycle count, identical
  under both cycle engines, surfaced as ``repro profile`` and
  ``repro stats --profile``.

Everything degrades to a no-op when not configured: simulation results
are bit-identical whether or not any observability feature is on.
"""

from repro.obs.events import (
    KINDS,
    SCHEMA as EVENT_SCHEMA,
    configure_logging,
    current_context,
    current_run_id,
    emit,
    logging_active,
    obs_context,
    parse_event_line,
    read_events,
    reset_logging,
    validate_event,
)
from repro.obs.profile import (
    CATEGORIES as PROFILE_CATEGORIES,
    PROFILE_SCHEMA,
    CycleProfiler,
    profile_run,
)
from repro.obs.spans import (
    Span,
    export_chrome_trace,
    spans_from_events,
    trace_from_events,
    validate_chrome_trace,
)

__all__ = [
    # events
    "EVENT_SCHEMA",
    "KINDS",
    "configure_logging",
    "reset_logging",
    "logging_active",
    "current_run_id",
    "emit",
    "obs_context",
    "current_context",
    "validate_event",
    "parse_event_line",
    "read_events",
    # spans
    "Span",
    "spans_from_events",
    "trace_from_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    # profiler
    "PROFILE_SCHEMA",
    "PROFILE_CATEGORIES",
    "CycleProfiler",
    "profile_run",
]
