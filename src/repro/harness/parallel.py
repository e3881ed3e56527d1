"""Fault-tolerant multiprocess sweep execution.

Full-length sweeps (``REPRO_FULL=1``) are embarrassingly parallel across
(workload, configuration) points.  :func:`parallel_sweep` fans the points
out over a *supervised* process pool (see
:mod:`repro.harness.supervise`): per-point wall-clock timeouts, bounded
retry with exponential backoff and deterministic jitter, worker-death
detection with pool rebuild, and graceful degradation — a point that
exhausts its retries becomes a structured :class:`PointFailure` instead
of aborting the sweep.

The return value is a :class:`SweepOutcome`.  It behaves as a read-only
mapping ``{point: SimResult}`` over the *completed* points and
additionally carries the failure records and execution counters
(completed/retried/failed/resumed/...).

With a :class:`~repro.harness.persist.ResultStore`, every point the
store already holds is served from it (counted as ``resumed``) and
every simulated point is stored as it finishes, so an interrupted sweep
rerun over the same store simulates only the unfinished points.  The
store is the only record of progress: results are deterministic and
content-addressed, so a stored entry is the point's result.

Workers validate their result against the simulator's structural
invariants (:func:`repro.sim.guard_invariants`) before returning, so a
counter-corrupting bug surfaces as a classifiable, diagnostics-carrying
point failure rather than an ``AssertionError`` escaping the pool.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.config import SimConfig
from repro.harness.persist import ResultStore, result_key
from repro.harness.supervise import (
    AttemptRecord,
    RetryPolicy,
    TaskFailure,
    run_supervised,
)
# Bound as a module-level name (rather than called through repro.api)
# so tests can monkeypatch `repro.harness.parallel.simulate`.
from repro.api import simulate
from repro.errors import RetryExhaustedError
from repro.obs import events as obs_events
from repro.sim import SimResult, guard_invariants
from repro.sim.checkpoint import DEFAULT_CHECKPOINT_INTERVAL
from repro.stats.sweep import merge_counters, summary_line
from repro.workloads import build_trace

__all__ = [
    "parallel_sweep",
    "SweepPoint",
    "SweepOutcome",
    "PointFailure",
    "RetryPolicy",
]

SweepPoint = tuple[str, SimConfig]


@dataclass
class PointFailure:
    """One (workload, config) point that failed after all retries."""

    workload: str
    config: SimConfig
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


class SweepOutcome(Mapping):
    """Completed results plus per-point failures and execution counters.

    Mapping access (``outcome[point]``, ``len``, iteration) covers the
    completed points only; ``failures`` lists what could not be computed.
    """

    def __init__(self, results: dict[SweepPoint, SimResult],
                 failures: list[PointFailure],
                 counters: dict[str, int]):
        self.results = results
        self.failures = failures
        self.counters = counters

    def __getitem__(self, point: SweepPoint) -> SimResult:
        return self.results[point]

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One-line completed/retried/failed report for logs and the CLI."""
        return summary_line(self.counters)

    def raise_if_failed(self) -> None:
        """Raise :class:`RetryExhaustedError` for the first failed point."""
        if self.failures:
            raise self.failures[0].as_error()

    def __repr__(self) -> str:
        return (f"SweepOutcome(completed={len(self.results)}, "
                f"failed={len(self.failures)})")


def effective_config(config: SimConfig, warmup: int) -> SimConfig:
    """The config a point actually runs: a point without a warm-up gets
    ``warmup`` instructions of it.  The Runner and the sweep key their
    memo and store with this config."""
    if warmup and config.warmup_instructions == 0:
        return config.replace(warmup_instructions=warmup)
    return config


def _run_point(workload: str, config: SimConfig, trace_length: int,
               seed: int, checkpoint_dir: str | None = None,
               checkpoint_interval: int = 0) -> SimResult:
    """Worker: simulate one (workload, config) point and validate it.

    With ``checkpoint_dir`` the point runs through the machine
    checkpointer: snapshots every ``checkpoint_interval`` cycles,
    heartbeats for the supervisor's stall probe, and resume from the
    latest snapshot when this attempt follows a killed one.  The result
    is bit-identical to an uncheckpointed run.
    """
    trace = build_trace(workload, trace_length, seed=seed)
    if checkpoint_dir is not None:
        from repro.sim.checkpoint import run_with_checkpoints

        result = run_with_checkpoints(
            trace, config, directory=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            name=workload).result
    else:
        result = simulate(trace, config, name=workload)
    return guard_invariants(result,
                            warmed_up=config.warmup_instructions > 0,
                            context=workload)


def parallel_sweep(points: list[SweepPoint], trace_length: int = 60_000,
                   seed: int = 1, warmup: int | None = None,
                   processes: int | None = None, *,
                   max_retries: int = 2,
                   point_timeout: float | None = None,
                   policy: RetryPolicy | None = None,
                   store: ResultStore | None = None,
                   machine_checkpoints: str | Path | None = None,
                   checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                   ) -> SweepOutcome:
    """Run every (workload, config) point under supervision.

    With ``processes=1`` (or a single point) everything runs inline —
    useful for tests and debugging (timeouts are not enforced inline).
    A point without a warm-up runs with ``warmup`` instructions of it
    (default ``trace_length // 5``), so two points can run the same
    simulation; each distinct store key is simulated once, every input
    point maps to its key's result (or failure), and the ``points``
    counter counts keys.

    With a ``store``, points it already holds are loaded instead of
    simulated (counted as ``resumed``) and every simulated point is
    stored as it completes: rerunning an interrupted sweep over the
    same store simulates only what is missing.  To recompute a point,
    delete its entry or use a fresh store directory.

    ``machine_checkpoints`` turns on *in-run* machine snapshots (see
    :mod:`repro.sim.checkpoint`): each point writes a resumable machine
    snapshot every ``checkpoint_interval`` cycles into its own
    subdirectory, so a killed or hung worker's retry continues from the
    latest snapshot instead of cycle 0 — with a bit-identical final
    result.  The snapshot heartbeats also feed the supervisor's
    slow-vs-stuck probe, so a progressing point never dies to
    ``point_timeout``.  The outcome's counters gain ``snapshots``,
    ``ckpt_resumes``, and ``stalls``.
    """
    if warmup is None:
        warmup = trace_length // 5
    if policy is None:
        policy = RetryPolicy(max_retries=max_retries,
                             point_timeout=point_timeout)

    keys: dict[SweepPoint, str] = {}
    runs: dict[str, SweepPoint] = {}    # key -> (workload, run config)
    for point in points:
        if point not in keys:
            config = effective_config(point[1], warmup)
            key = result_key(point[0], config, trace_length, seed)
            keys[point] = key
            runs.setdefault(key, (point[0], config))

    done: dict[str, SimResult] = {}
    failed: dict[str, TaskFailure] = {}
    ckpt_counters = {"snapshots": 0, "ckpt_resumes": 0}

    def point_dir(key: str) -> Path:
        assert machine_checkpoints is not None
        return Path(machine_checkpoints) / key

    todo = []
    for key, (workload, config) in runs.items():
        cached = store.load_key(key) if store is not None else None
        if cached is not None:
            done[key] = cached
            continue
        args = (workload, config, trace_length, seed)
        if machine_checkpoints is not None:
            args += (str(point_dir(key)), checkpoint_interval)
        todo.append((key, args))
    resumed = len(done)

    progress = None
    if machine_checkpoints is not None:
        from repro.sim.checkpoint import read_heartbeat

        def _heartbeat_progress(key: str):
            beat = read_heartbeat(point_dir(key))
            if beat is None:
                return None
            return (beat.get("cycle"), beat.get("retired"))

        progress = _heartbeat_progress

    def on_success(key: str, result: SimResult) -> None:
        done[key] = result
        if store is not None:
            store.store_key(key, result)
        if machine_checkpoints is not None:
            from repro.sim.checkpoint import read_summary

            summary = read_summary(point_dir(key))
            if summary is not None:
                ckpt_counters["snapshots"] += int(
                    summary.get("snapshots", 0))
                if summary.get("resumed_from_cycle") is not None:
                    ckpt_counters["ckpt_resumes"] += 1

    def on_failure(key: str, failure: TaskFailure) -> None:
        failed[key] = failure

    if processes is None and len(todo) <= 1:
        # No parallelism to exploit; skip the pool (the worker is trusted
        # simulator code, so inline execution is safe).
        processes = 1
    obs_events.emit("sweep_start", data={
        "points": len(runs), "todo": len(todo), "resumed": resumed,
        "trace_length": trace_length, "seed": seed})
    supervised = run_supervised(_run_point, todo, processes=processes,
                                policy=policy, on_success=on_success,
                                on_failure=on_failure, progress=progress)

    results = {point: done[key] for point, key in keys.items()
               if key in done}
    failures = [PointFailure(point[0], point[1], key, failed[key].attempts)
                for point, key in keys.items() if key in failed]
    counters = merge_counters(supervised.counters,
                              {"points": len(runs), "resumed": resumed},
                              ckpt_counters)
    obs_events.emit("sweep_end", data=dict(counters))
    return SweepOutcome(results, failures, counters)
