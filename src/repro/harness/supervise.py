"""Supervised multiprocess execution: retries, timeouts, pool rebuild.

:func:`run_supervised` is the fault-tolerant core under
:func:`~repro.harness.parallel.parallel_sweep`.  It executes a batch of
independent tasks on a process pool and survives the failure modes a
long ``REPRO_FULL=1`` sweep actually hits:

- **transient exceptions** — retried up to ``RetryPolicy.max_retries``
  times with exponential backoff and *deterministic* jitter (hashed from
  the task key and attempt number, so reruns behave identically);
- **hung workers** — each attempt gets a wall-clock deadline; on expiry
  the pool is torn down (terminating the stuck process), rebuilt, and the
  surviving in-flight tasks are resubmitted without losing an attempt.
  With a ``progress`` probe (e.g. the machine checkpointer's heartbeat
  file, see :mod:`repro.sim.checkpoint`), a task whose probe value moved
  since the deadline was set is *slow but progressing*: its deadline is
  extended instead of the worker killed (counted under ``stalls``), so
  long points with live heartbeats are never mistaken for livelock;
- **dead workers** — a worker that segfaults or ``os._exit``\\ s marks the
  ``ProcessPoolExecutor`` broken (``BrokenProcessPool``); the supervisor
  rebuilds the pool and retries everything that was in flight.  At most
  one attempt per worker is outstanding, so only attempts that were
  actually running fail with the pool.  A task that was running alone
  is charged the crash; when several were running, the pool cannot say
  which one died, so none is charged and the suspects re-run one at a
  time until each has completed or crashed alone;
- **deterministic failures** — a task that exhausts its attempts is
  recorded as a :class:`TaskFailure` with its full attempt history; the
  batch keeps going (graceful degradation) instead of aborting.

With ``processes=1`` everything runs inline in this process: retries and
backoff still apply, but wall-clock timeouts are not enforced (there is
no worker to kill).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import PointTimeoutError, RetryExhaustedError
from repro.obs import events as obs_events

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "TaskFailure",
    "SupervisedOutcome",
    "run_supervised",
]

# Poll floor so deadline/backoff scans stay responsive without spinning.
_MIN_WAIT = 0.02


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout policy for one batch of supervised tasks.

    ``max_retries`` is the number of *re*-tries after the first attempt
    (so a task runs at most ``max_retries + 1`` times).  Backoff before
    retry *n* is ``backoff_base * backoff_factor**(n-1)`` capped at
    ``backoff_max``, then scaled by a deterministic jitter in
    ``[1 - jitter_fraction, 1 + jitter_fraction]`` derived from the task
    key — no global RNG state, so sweeps stay reproducible.
    """

    max_retries: int = 2
    point_timeout: float | None = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter_fraction: float = 0.25

    def backoff(self, key: str, attempt: int) -> float:
        """Delay in seconds before retrying ``key`` after attempt ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_max,
                    self.backoff_base * self.backoff_factor ** (attempt - 1))
        digest = hashlib.sha256(f"{key}|{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return delay * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt of one task."""

    attempt: int
    error_type: str
    message: str
    duration: float


@dataclass
class TaskFailure:
    """A task that failed on every attempt the policy allowed."""

    key: str
    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def error_type(self) -> str:
        return self.attempts[-1].error_type if self.attempts else "unknown"

    @property
    def message(self) -> str:
        return self.attempts[-1].message if self.attempts else ""

    def as_error(self) -> RetryExhaustedError:
        return RetryExhaustedError(self.key, self.attempts)


@dataclass
class SupervisedOutcome:
    """Results, failures, and execution counters for one batch."""

    results: dict[str, Any]
    failures: dict[str, TaskFailure]
    counters: dict[str, int]


@dataclass
class _Pending:
    key: str
    args: tuple
    attempt: int
    ready_at: float


@dataclass
class _InFlight:
    """Bookkeeping for one submitted attempt."""

    key: str
    args: tuple
    attempt: int
    deadline: float | None
    started: float
    progress_token: Any = None


def _new_counters() -> dict[str, int]:
    return {"completed": 0, "retried": 0, "failed": 0,
            "timeouts": 0, "stalls": 0, "crashes": 0, "rebuilds": 0}


def _call_with_context(fn, key: str, attempt: int, args: tuple):
    """Worker-side shim: bind the task's correlation ids, then run it.

    Module-level so it pickles into the pool.  Everything the task
    emits (``run_start``, ``checkpoint_written``, ...) then carries the
    supervised ``point``/``attempt`` ids automatically; the sink
    configuration itself rides over through the ``REPRO_LOG_*``
    environment (see :mod:`repro.obs.events`).
    """
    with obs_events.obs_context(point=key, attempt=attempt):
        return fn(*args)


def run_supervised(fn: Callable[..., Any],
                   tasks: list[tuple[str, tuple]],
                   *,
                   processes: int | None = None,
                   policy: RetryPolicy | None = None,
                   on_success: Callable[[str, Any], None] | None = None,
                   on_failure: Callable[[str, TaskFailure], None] | None = None,
                   progress: Callable[[str], Any] | None = None,
                   ) -> SupervisedOutcome:
    """Run ``fn(*args)`` for every ``(key, args)`` task, fault-tolerantly.

    ``on_success``/``on_failure`` fire in *this* process as each task
    settles — the checkpointing hooks used by the sweep layer.

    ``progress`` probes a task's forward progress by key (any comparable
    token; None means "no signal").  It distinguishes *slow* from
    *stuck* at deadline expiry: a task whose token changed since its
    deadline was set gets the deadline extended (counted under
    ``stalls``) instead of its worker killed.  Tokens are only consulted
    when ``point_timeout`` is set and the pool path runs.

    Returns a :class:`SupervisedOutcome`; never raises for task-level
    failures.
    """
    if policy is None:
        policy = RetryPolicy()
    if processes == 1 or not tasks:
        return _run_inline(fn, tasks, policy, on_success, on_failure)
    if processes is None:
        processes = os.cpu_count() or 1   # ProcessPoolExecutor's default
    return _run_pooled(fn, tasks, processes, policy, on_success, on_failure,
                       progress)


def _run_inline(fn, tasks, policy, on_success, on_failure) -> SupervisedOutcome:
    results: dict[str, Any] = {}
    failures: dict[str, TaskFailure] = {}
    counters = _new_counters()
    for key, args in tasks:
        attempts: list[AttemptRecord] = []
        attempt = 1
        while True:
            started = time.monotonic()
            obs_events.emit("task_spawn", point=key, attempt=attempt,
                            data={"inline": True})
            try:
                value = _call_with_context(fn, key, attempt, args)
            except Exception as exc:  # noqa: BLE001 — classify, don't die
                duration = time.monotonic() - started
                attempts.append(AttemptRecord(
                    attempt, type(exc).__name__, str(exc), duration))
                detail = {"error_type": type(exc).__name__,
                          "message": str(exc), "duration": duration}
                if attempt > policy.max_retries:
                    failure = TaskFailure(key, attempts)
                    failures[key] = failure
                    counters["failed"] += 1
                    obs_events.emit("task_failed", point=key,
                                    attempt=attempt, data=detail)
                    if on_failure is not None:
                        on_failure(key, failure)
                    break
                counters["retried"] += 1
                obs_events.emit("task_retry", point=key, attempt=attempt,
                                data=detail)
                delay = policy.backoff(key, attempt)
                if delay:
                    time.sleep(delay)
                attempt += 1
            else:
                results[key] = value
                counters["completed"] += 1
                obs_events.emit(
                    "task_done", point=key, attempt=attempt,
                    data={"duration": time.monotonic() - started})
                if on_success is not None:
                    on_success(key, value)
                break
    return SupervisedOutcome(results, failures, counters)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, reclaiming hung or dead workers."""
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + 5.0
    for proc in processes:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:  # noqa: BLE001
            pass


def _run_pooled(fn, tasks, processes, policy,
                on_success, on_failure, progress=None) -> SupervisedOutcome:
    results: dict[str, Any] = {}
    failures: dict[str, TaskFailure] = {}
    counters = _new_counters()
    attempts: dict[str, list[AttemptRecord]] = {key: [] for key, _ in tasks}

    pool = ProcessPoolExecutor(max_workers=processes)
    pending: list[_Pending] = [
        _Pending(key, args, 1, 0.0) for key, args in tasks]
    inflight: dict[Any, _InFlight] = {}
    # Tasks that were running together when a worker died; they run
    # alone until each has settled, so any further crash is attributable.
    suspects: set[str] = set()

    def probe(key: str) -> Any:
        if progress is None:
            return None
        try:
            return progress(key)
        except Exception:  # noqa: BLE001 — a broken probe must not kill
            return None    # the batch; it just loses stall detection

    def settle_failure(key: str, args: tuple, attempt: int,
                       error_type: str, message: str, duration: float,
                       *, count_attempt: bool = True) -> None:
        """Record a failed attempt and either reschedule or give up."""
        if not count_attempt:
            pending.append(_Pending(key, args, attempt, time.monotonic()))
            return
        attempts[key].append(
            AttemptRecord(attempt, error_type, message, duration))
        settle = None
        if error_type == PointTimeoutError.__name__:
            counters["timeouts"] += 1
            settle = "task_timeout"
        elif error_type == "WorkerCrashError":
            counters["crashes"] += 1
            obs_events.emit("worker_crash", point=key, attempt=attempt,
                            data={"message": message})
        detail = {"error_type": error_type, "message": message,
                  "duration": duration}
        if attempt > policy.max_retries:
            failure = TaskFailure(key, attempts[key])
            failures[key] = failure
            suspects.discard(key)
            counters["failed"] += 1
            detail["final"] = True
            obs_events.emit(settle or "task_failed", point=key,
                            attempt=attempt, data=detail)
            if on_failure is not None:
                on_failure(key, failure)
        else:
            counters["retried"] += 1
            detail["final"] = False
            obs_events.emit(settle or "task_retry", point=key,
                            attempt=attempt, data=detail)
            ready = time.monotonic() + policy.backoff(key, attempt)
            pending.append(_Pending(key, args, attempt + 1, ready))

    def rebuild() -> None:
        nonlocal pool
        counters["rebuilds"] += 1
        obs_events.emit("pool_rebuild",
                        data={"rebuilds": counters["rebuilds"]})
        _kill_pool(pool)
        pool = ProcessPoolExecutor(max_workers=processes)

    def submit_ready(now: float) -> None:
        nonlocal pool
        limit = 1 if suspects else processes
        remaining: list[_Pending] = []
        # Suspects first (a stable sort keeps the order otherwise).
        for item in sorted(pending, key=lambda item: item.key not in suspects):
            if item.ready_at > now or len(inflight) >= limit:
                remaining.append(item)
                continue
            deadline = (now + policy.point_timeout
                        if policy.point_timeout else None)
            try:
                future = pool.submit(_call_with_context, fn, item.key,
                                     item.attempt, item.args)
            except BrokenProcessPool:
                # Pool died between batches; rebuild and resubmit.
                rebuild()
                future = pool.submit(_call_with_context, fn, item.key,
                                     item.attempt, item.args)
            obs_events.emit("task_spawn", point=item.key,
                            attempt=item.attempt,
                            data={"timeout": policy.point_timeout})
            inflight[future] = _InFlight(item.key, item.args, item.attempt,
                                         deadline, now,
                                         progress_token=probe(item.key))
        pending[:] = remaining

    try:
        while pending or inflight:
            now = time.monotonic()
            submit_ready(now)
            if not inflight:
                next_ready = min(item.ready_at for item in pending)
                time.sleep(max(_MIN_WAIT, next_ready - time.monotonic()))
                continue

            horizons = [meta.deadline for meta in inflight.values()
                        if meta.deadline is not None]
            # Ready items wait for a free worker, not for the clock.
            horizons.extend(item.ready_at for item in pending
                            if item.ready_at > now)
            timeout = None
            if horizons:
                timeout = max(_MIN_WAIT, min(horizons) - time.monotonic())
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            crashed: list[_InFlight] = []
            crash_message = ""
            for future in done:
                meta = inflight.pop(future)
                duration = time.monotonic() - meta.started
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    crash_message = str(exc) or "process pool broken"
                    crashed.append(meta)
                except Exception as exc:  # noqa: BLE001 — worker exception
                    settle_failure(meta.key, meta.args, meta.attempt,
                                   type(exc).__name__, str(exc), duration)
                else:
                    results[meta.key] = value
                    suspects.discard(meta.key)
                    counters["completed"] += 1
                    obs_events.emit("task_done", point=meta.key,
                                    attempt=meta.attempt,
                                    data={"duration": duration})
                    if on_success is not None:
                        on_success(meta.key, value)

            if crashed:
                # Every future on a broken pool fails with it.
                crashed.extend(inflight.values())
                inflight.clear()
                if len(crashed) == 1:
                    meta = crashed[0]
                    settle_failure(meta.key, meta.args, meta.attempt,
                                   "WorkerCrashError", crash_message,
                                   time.monotonic() - meta.started)
                else:
                    counters["crashes"] += 1
                    obs_events.emit("worker_crash", data={
                        "message": crash_message,
                        "suspects": sorted(m.key for m in crashed)})
                    for meta in crashed:
                        suspects.add(meta.key)
                        settle_failure(meta.key, meta.args, meta.attempt,
                                       "", "", 0.0, count_attempt=False)
                rebuild()
                continue

            now = time.monotonic()
            expired = [future for future, meta in inflight.items()
                       if meta.deadline is not None and now >= meta.deadline]
            timed_out = []
            for future in expired:
                meta = inflight[future]
                token = probe(meta.key)
                if token is not None and token != meta.progress_token:
                    # Slow but provably progressing (the heartbeat moved
                    # since the deadline was set): extend instead of kill.
                    meta.progress_token = token
                    meta.deadline = now + policy.point_timeout
                    counters["stalls"] += 1
                    obs_events.emit(
                        "task_stall", point=meta.key, attempt=meta.attempt,
                        data={"elapsed": now - meta.started,
                              "extended_by": policy.point_timeout})
                    continue
                timed_out.append(future)
            if timed_out:
                for future in timed_out:
                    meta = inflight.pop(future)
                    error = PointTimeoutError(meta.key, policy.point_timeout)
                    settle_failure(meta.key, meta.args, meta.attempt,
                                   type(error).__name__, str(error),
                                   now - meta.started)
                # A hung worker cannot be reclaimed individually: tear the
                # pool down and resubmit the survivors, without charging
                # them an attempt.
                survivors = list(inflight.values())
                inflight.clear()
                rebuild()
                for meta in survivors:
                    settle_failure(meta.key, meta.args, meta.attempt,
                                   "", "", 0.0, count_attempt=False)
    finally:
        _kill_pool(pool)

    return SupervisedOutcome(results, failures, counters)
