"""Structured JSON-lines event log (schema ``repro.events/v2``).

One event is one JSON object on one line::

    {"schema": "repro.events/v2", "kind": "task_retry", "ts": 12.034,
     "wall": 1754550123.4, "pid": 4242, "seq": 17,
     "run": "a3f9c2e1b4d0", "point": "8c2f...",
     "attempt": 2, "data": {"error_type": "WorkerCrashError", ...}}

Required fields:

- ``schema`` — the literal :data:`SCHEMA` string (versioned);
- ``kind`` — one of :data:`KINDS`;
- ``ts`` — monotonic seconds in the emitting process (ordering within
  a process); ``wall`` — epoch seconds (alignment *across* processes);
- ``pid`` / ``seq`` — emitting process and its per-process sequence
  number (``(pid, seq)`` is a total order per process);
- ``run`` / ``point`` / ``attempt`` — correlation ids (``None`` when
  not applicable).  ``run`` identifies one top-level invocation and is
  inherited by pool workers through the environment; ``point`` is the
  supervised task key (sweep-point hash or a workload name) or a serve
  request's cache key; ``attempt`` counts from 1.
- ``data`` — kind-specific payload (JSON-compatible scalars only).

Sinks are pluggable and process-global: a JSONL file (opened with
``O_APPEND`` so concurrent writers interleave whole lines, never
fragments) and/or stderr.  Configuration comes from three equivalent
places — :func:`configure_logging`, the CLI ``--log-file`` /
``--log-stderr`` flags, or the ``REPRO_LOG_FILE`` / ``REPRO_LOG_STDERR``
environment variables (read lazily on first emit, which is how pool
workers pick the parent's configuration up).  With no sink configured,
:func:`emit` is a cheap no-op — the instrumented hot paths stay free.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import sys
import threading
import time
from typing import Any, Iterable, Iterator

from repro.errors import ObservabilityError

__all__ = [
    "SCHEMA",
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
]

SCHEMA = "repro.events/v2"

#: Closed set of event kinds.  Growing it is a schema revision (bump
#: :data:`SCHEMA` when an existing kind's payload changes meaning).
KINDS = frozenset({
    # simulator lifecycle
    "run_start", "warmup_end", "run_end", "watchdog_stall",
    # in-run machine checkpointing
    "checkpoint_written", "checkpoint_resumed", "checkpoint_quarantined",
    # supervised pool
    "task_spawn", "task_done", "task_retry", "task_failed",
    "task_timeout", "task_stall", "worker_crash", "pool_rebuild",
    # sweep orchestration
    "sweep_start", "sweep_end",
    # result store
    "store_quarantine",
    # simulation service (daemon lifecycle + request lifecycle)
    "serve_start", "serve_stop", "serve_enqueued", "serve_coalesced",
    "serve_cache_hit", "serve_scheduled", "serve_running", "serve_done",
    "serve_failed", "serve_rejected",
})

_ENV_FILE = "REPRO_LOG_FILE"
_ENV_STDERR = "REPRO_LOG_STDERR"
_ENV_RUN_ID = "REPRO_LOG_RUN_ID"

_CORRELATION_FIELDS = ("run", "point", "attempt")

# ----------------------------------------------------------------------
# Correlation context
# ----------------------------------------------------------------------

_context: contextvars.ContextVar[dict] = contextvars.ContextVar(
    "repro_obs_context", default={})


@contextlib.contextmanager
def obs_context(**ids: Any) -> Iterator[None]:
    """Bind correlation ids (``run``/``point``/``attempt``) to every
    event emitted inside the ``with`` block.

    Contexts nest: inner bindings shadow outer ones field by field and
    are restored on exit.  Unknown fields raise
    :class:`~repro.errors.ObservabilityError` (they would silently never
    appear in the log).
    """
    for name in ids:
        if name not in _CORRELATION_FIELDS:
            raise ObservabilityError(
                f"unknown correlation field {name!r}; expected one of "
                f"{', '.join(_CORRELATION_FIELDS)}")
    merged = {**_context.get(), **ids}
    token = _context.set(merged)
    try:
        yield
    finally:
        _context.reset(token)


def current_context() -> dict:
    """The correlation ids currently bound (a copy)."""
    return dict(_context.get())


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class _State:
    """Process-global sink configuration (lazily env-initialized)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.configured = False
        self.file_path: str | None = None
        self.file_fd: int | None = None
        self.stderr = False
        self.run_id: str | None = None
        self.seq = 0


_state = _State()


def _make_run_id() -> str:
    return os.urandom(6).hex()


def _open_append(path: str) -> int:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # O_APPEND makes each whole-line write atomic between processes on
    # POSIX; workers and the supervisor share one JSONL file safely.
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)


def _ensure_configured() -> None:
    """Adopt the environment configuration once per process."""
    if _state.configured:
        return
    with _state.lock:
        if _state.configured:
            return
        from repro import env

        path = env.log_file()
        _state.file_path = path
        _state.stderr = env.log_stderr()
        _state.run_id = env.log_run_id()
        if path is not None:
            _state.file_fd = _open_append(path)
        _state.configured = True


def configure_logging(*, file: str | None = None, stderr: bool = False,
                      run_id: str | None = None,
                      propagate: bool = True) -> str:
    """Install the process-global event sinks; returns the run id.

    ``file`` appends events as JSON lines; ``stderr`` mirrors them to
    the standard error stream.  ``run_id`` defaults to a fresh random
    id.  With ``propagate`` (the default) the configuration is exported
    through ``REPRO_LOG_*`` environment variables so worker processes
    spawned later log to the same file under the same run id.
    """
    with _state.lock:
        if _state.file_fd is not None:
            os.close(_state.file_fd)
        _state.file_path = file
        _state.file_fd = _open_append(file) if file is not None else None
        _state.stderr = stderr
        _state.run_id = run_id or _make_run_id()
        _state.configured = True
        if propagate:
            if file is not None:
                os.environ[_ENV_FILE] = file
            else:
                os.environ.pop(_ENV_FILE, None)
            os.environ[_ENV_STDERR] = "1" if stderr else "0"
            os.environ[_ENV_RUN_ID] = _state.run_id
        return _state.run_id


def reset_logging(*, scrub_env: bool = True) -> None:
    """Drop all sinks and forget the run id (used by tests and the CLI)."""
    with _state.lock:
        if _state.file_fd is not None:
            os.close(_state.file_fd)
        _state.file_path = None
        _state.file_fd = None
        _state.stderr = False
        _state.run_id = None
        _state.configured = False
        _state.seq = 0
        if scrub_env:
            for name in (_ENV_FILE, _ENV_STDERR, _ENV_RUN_ID):
                os.environ.pop(name, None)


def logging_active() -> bool:
    """Whether any sink is currently installed (env included)."""
    _ensure_configured()
    return _state.file_fd is not None or _state.stderr


def current_run_id() -> str | None:
    """The configured run id, or None when logging is inactive."""
    _ensure_configured()
    return _state.run_id


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def emit(kind: str, *, data: dict | None = None, **ids: Any) -> None:
    """Emit one event to the configured sinks (no-op when there are none).

    ``ids`` are correlation-field overrides (``point=...``,
    ``attempt=...``); anything not given falls back to the ambient
    :func:`obs_context` and the ``run`` id falls back to the process
    configuration.
    """
    _ensure_configured()
    if _state.file_fd is None and not _state.stderr:
        return
    if kind not in KINDS:
        raise ObservabilityError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(KINDS))}")
    context = _context.get()
    record: dict = {"schema": SCHEMA, "kind": kind,
                    "ts": time.monotonic(), "wall": time.time(),
                    "pid": os.getpid()}
    with _state.lock:
        _state.seq += 1
        record["seq"] = _state.seq
    for name in _CORRELATION_FIELDS:
        value = ids.get(name, context.get(name))
        if name == "run" and value is None:
            value = _state.run_id
        record[name] = value
    record["data"] = dict(data) if data else {}
    line = json.dumps(record, separators=(",", ":")) + "\n"
    payload = line.encode("utf-8")
    if _state.file_fd is not None:
        try:
            os.write(_state.file_fd, payload)
        except OSError:
            pass   # a full disk must not kill the simulation
    if _state.stderr:
        try:
            sys.stderr.write(line)
        except (OSError, ValueError):
            pass


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------

def validate_event(event: dict) -> dict:
    """Check one decoded event against the v2 schema; returns it.

    Raises :class:`~repro.errors.ObservabilityError` naming the first
    defect (wrong schema tag, unknown kind, missing or mistyped field).
    """
    if not isinstance(event, dict):
        raise ObservabilityError(
            f"event must be a JSON object, got {type(event).__name__}")
    if event.get("schema") != SCHEMA:
        raise ObservabilityError(
            f"unsupported event schema {event.get('schema')!r} "
            f"(this build reads {SCHEMA})")
    kind = event.get("kind")
    if kind not in KINDS:
        raise ObservabilityError(f"unknown event kind {kind!r}")
    for name, types in (("ts", (int, float)), ("wall", (int, float)),
                        ("pid", int), ("seq", int)):
        value = event.get(name)
        if not isinstance(value, types) or isinstance(value, bool):
            raise ObservabilityError(
                f"event field {name!r} must be "
                f"{'numeric' if name in ('ts', 'wall') else 'an int'}, "
                f"got {value!r}")
    for name in _CORRELATION_FIELDS:
        if name not in event:
            raise ObservabilityError(f"event is missing the correlation "
                                     f"field {name!r}")
    attempt = event["attempt"]
    if attempt is not None and (not isinstance(attempt, int)
                                or isinstance(attempt, bool)):
        raise ObservabilityError(
            f"event field 'attempt' must be an int or null, "
            f"got {attempt!r}")
    if not isinstance(event.get("data"), dict):
        raise ObservabilityError("event field 'data' must be an object")
    return event


def parse_event_line(line: str) -> dict:
    """Decode and validate one JSONL event line."""
    try:
        event = json.loads(line)
    except ValueError as exc:
        raise ObservabilityError(
            f"event line is not valid JSON ({exc})") from None
    return validate_event(event)


def read_events(path: str | os.PathLike,
                kinds: Iterable[str] | None = None) -> list[dict]:
    """All validated events in a JSONL file, optionally kind-filtered.

    Events are returned in stable order across emitting processes:
    by wall time, tie-broken by ``(pid, seq)``.
    """
    wanted = frozenset(kinds) if kinds is not None else None
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = parse_event_line(line)
            if wanted is None or event["kind"] in wanted:
                events.append(event)
    events.sort(key=lambda e: (e["wall"], e["pid"], e["seq"]))
    return events
