"""Span tracing: nested spans and Chrome ``trace_event`` export.

:func:`spans_from_events` / :func:`export_chrome_trace` reconstruct the
span tree of a whole run from its structured event log (see
:mod:`repro.obs.events`) as Chrome-trace JSON (the format Perfetto and
``chrome://tracing`` load): sweep → point attempt → simulation →
warmup/measure phases, with pool workers' simulations appearing under
their own process ids.  Timestamps use the events' wall clock, so spans
from different processes align on one timeline.

The export is the minimal stable subset of the trace-event format:
complete spans (``"ph": "X"``, microsecond ``ts``/``dur``) plus
process-scoped instant markers (``"ph": "i"``) for point-in-time
events (checkpoints written, watchdog stalls, pool rebuilds, ...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.events import (
    _CORRELATION_FIELDS,
    read_events,
    validate_event,
)

__all__ = [
    "Span",
    "spans_from_events",
    "trace_from_events",
    "export_chrome_trace",
    "validate_chrome_trace",
]


@dataclass
class Span:
    """One completed span: a named, nested wall-clock interval."""

    name: str
    start: float              # wall-clock seconds
    duration: float           # seconds
    pid: int = 0
    tid: int = 0
    args: dict = field(default_factory=dict)

    def to_trace_event(self, origin: float) -> dict:
        """The span as one Chrome ``"ph": "X"`` complete event."""
        return {"name": self.name, "ph": "X", "cat": "repro",
                "ts": round((self.start - origin) * 1e6, 3),
                "dur": round(self.duration * 1e6, 3),
                "pid": self.pid, "tid": self.tid, "args": self.args}


# ----------------------------------------------------------------------
# Event log -> span tree
# ----------------------------------------------------------------------

# (open kind, {closing kind: phase suffix or None})
_SIM_OPEN = "run_start"
_ATTEMPT_SETTLES = ("task_done", "task_retry", "task_failed",
                    "task_timeout")
_INSTANT_KINDS = ("checkpoint_written", "checkpoint_resumed",
                  "checkpoint_quarantined", "watchdog_stall",
                  "task_stall", "worker_crash", "pool_rebuild",
                  "store_quarantine")


def _label(event: dict) -> str:
    point = event.get("point")
    if point:
        return str(point)
    return str(event.get("data", {}).get("name", "") or "run")


def spans_from_events(events: list[dict]) -> list[Span]:
    """Reconstruct the span tree of one logged run.

    Produced spans:

    - ``sweep`` — ``sweep_start`` → ``sweep_end``;
    - ``attempt <point> #<n>`` — ``task_spawn`` → the matching
      settle (``task_done`` / ``task_retry`` / ``task_failed`` /
      ``task_timeout``), keyed by ``(point, attempt)``;
    - ``sim <label>`` — ``run_start`` → ``run_end`` within one
      process, with ``warmup``/``measure`` child phases when a
      ``warmup_end`` was logged in between.

    Unclosed opens (a crashed worker's ``run_start``) are dropped —
    a crash is visible through its ``worker_crash`` instant instead.
    """
    spans: list[Span] = []
    open_attempts: dict[tuple, dict] = {}
    open_sims: dict[tuple, list[dict]] = {}
    sweep_open: dict | None = None
    tids: dict[tuple, int] = {}

    def tid_for(pid: int, label: str) -> int:
        return tids.setdefault((pid, label), len(
            [k for k in tids if k[0] == pid]) + 1)

    def close(name: str, opened: dict, closed: dict,
              extra: dict | None = None, tid: int | None = None) -> None:
        args = dict(opened.get("data", {}))
        args.update(closed.get("data", {}))
        if extra:
            args.update(extra)
        for key in _CORRELATION_FIELDS:
            if opened.get(key) is not None:
                args.setdefault(key, opened[key])
        spans.append(Span(
            name=name, start=opened["wall"],
            duration=max(0.0, closed["wall"] - opened["wall"]),
            pid=opened["pid"],
            tid=tid if tid is not None else tid_for(opened["pid"],
                                                    _label(opened)),
            args=args))

    for event in events:
        kind = event["kind"]
        pid = event["pid"]
        if kind == "sweep_start":
            sweep_open = event
        elif kind == "sweep_end" and sweep_open is not None:
            close("sweep", sweep_open, event, tid=0)
            sweep_open = None
        elif kind == "task_spawn":
            open_attempts[(event.get("point"), event.get("attempt"))] = \
                event
        elif kind in _ATTEMPT_SETTLES:
            key = (event.get("point"), event.get("attempt"))
            opened = open_attempts.pop(key, None)
            if opened is not None:
                close(f"attempt {_label(event)} #{event.get('attempt')}",
                      opened, event, extra={"outcome": kind})
        elif kind == _SIM_OPEN:
            open_sims.setdefault((pid, _label(event)), []).append(event)
        elif kind == "warmup_end":
            stack = open_sims.get((pid, _label(event)))
            if stack:
                stack.append(event)
        elif kind == "run_end":
            stack = open_sims.pop((pid, _label(event)), None)
            if stack:
                started = stack[0]
                close(f"sim {_label(started)}", started, event)
                if len(stack) > 1:          # a warmup_end in between
                    boundary = stack[1]
                    close("warmup", started, boundary)
                    close("measure", boundary, event)
    return spans


def trace_from_events(events: list[dict]) -> dict:
    """Chrome trace-event document for one event log.

    Spans (see :func:`spans_from_events`) become complete events;
    point-in-time kinds become process-scoped instant markers.  The
    time origin is the earliest event's wall clock.
    """
    for event in events:
        validate_event(event)
    origin = min((e["wall"] for e in events), default=0.0)
    trace_events = [span.to_trace_event(origin)
                    for span in spans_from_events(events)]
    for event in events:
        if event["kind"] in _INSTANT_KINDS:
            args = dict(event.get("data", {}))
            for key in _CORRELATION_FIELDS:
                if event.get(key) is not None:
                    args[key] = event[key]
            trace_events.append({
                "name": event["kind"], "ph": "i", "s": "p",
                "cat": "repro",
                "ts": round((event["wall"] - origin) * 1e6, 3),
                "pid": event["pid"], "tid": 0, "args": args})
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def export_chrome_trace(events_path: str | Path,
                        out_path: str | Path) -> int:
    """Convert one JSONL event log into a Chrome-trace JSON file.

    Returns the number of trace events written.  The output loads
    directly in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    document = trace_from_events(read_events(events_path))
    Path(out_path).write_text(json.dumps(document, indent=1),
                              encoding="utf-8")
    return len(document["traceEvents"])


def validate_chrome_trace(data: dict) -> dict:
    """Structural check of one trace-event document; returns it.

    Verifies the container shape and every event's required fields —
    the checks Perfetto's loader effectively performs — raising
    :class:`~repro.errors.ObservabilityError` on the first defect.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ObservabilityError(
            "chrome trace must be an object with a 'traceEvents' list")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ObservabilityError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ObservabilityError(f"{where} is not an object")
        ph = event.get("ph")
        if ph not in ("X", "i"):
            raise ObservabilityError(
                f"{where}: unsupported phase {ph!r} (this build writes "
                f"'X' and 'i' events)")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ObservabilityError(f"{where}: missing event name")
        for key in ("ts",) + (("dur",) if ph == "X" else ()):
            value = event.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                raise ObservabilityError(
                    f"{where}: field {key!r} must be a non-negative "
                    f"number, got {value!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ObservabilityError(
                    f"{where}: field {key!r} must be an int")
    return data
