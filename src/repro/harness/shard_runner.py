"""Fan one sharded simulation out over the supervised process pool.

The planning and merge logic lives in :mod:`repro.sim.sharding`; this
module supplies the execution strategies:

- :func:`run_sharded` — shard an in-memory :class:`~repro.trace.Trace`.
  Workers receive their (already sliced) sub-trace, so nothing is
  re-derived; good for one-off traces.
- :func:`run_sharded_workload` — shard a *synthetic workload* by name.
  Workers rebuild the trace from ``(workload, trace_length, seed)`` and
  slice their own window, so only a few scalars cross the process
  boundary; ``repro shard`` and the overlap calibration use it.

Both inherit the sweep's fault-tolerance machinery via
:func:`~repro.harness.supervise.run_supervised`: per-shard retries with
deterministic-jitter backoff, wall-clock timeouts, and pool rebuild on
worker death.  A shard that exhausts its retries aborts the run with
:class:`~repro.errors.RetryExhaustedError` — unlike a sweep, a sharded
run cannot gracefully degrade, because every window is needed for the
merged result.

Configurations cross the process boundary as canonical dicts
(:meth:`~repro.config.SimConfig.to_dict` /
:meth:`~repro.config.SimConfig.from_dict`), not pickles, so workers
re-validate them on entry.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.harness.supervise import RetryPolicy, run_supervised
from repro.obs import events as obs_events
from repro.sim.results import SimResult
from repro.sim.sharding import (
    ShardPlan,
    ShardSpec,
    _check_mode,
    plan_shards,
    run_one_shard,
    run_shards_inline,
    shard_checkpoint_dir,
    sharded_result,
)
from repro.stats.telemetry import TelemetrySnapshot
from repro.trace import Trace

__all__ = ["run_sharded", "run_sharded_workload"]


def _run_shard_subtrace(records, name: str, seed: int, config_data: dict,
                        index: int, sim_start: int, start: int, stop: int,
                        warm: str,
                        checkpoint_dir: str | None = None,
                        ) -> TelemetrySnapshot:
    """Worker: simulate one pre-sliced shard sub-trace.

    ``sim_start``/``start``/``stop`` index into ``records`` — the parent
    rebased them to match the slice it shipped (the full prefix in
    ``functional`` mode, the overlap window in ``overlap`` mode).
    """
    config = SimConfig.from_dict(config_data)
    trace = Trace(records, name=name, seed=seed)
    spec = ShardSpec(index=index, sim_start=sim_start, start=start,
                     stop=stop)
    with obs_events.obs_context(shard=index):
        obs_events.emit("shard_start", data={
            "name": name, "start": start, "stop": stop, "warm": warm})
        snapshot = run_one_shard(trace, config, spec, name=name, warm=warm,
                                 checkpoint_dir=checkpoint_dir)
        obs_events.emit("shard_end", data={"name": name})
    return snapshot


def _run_shard_workload(workload: str, trace_length: int, seed: int,
                        config_data: dict, index: int, sim_start: int,
                        start: int, stop: int, warm: str,
                        checkpoint_dir: str | None = None,
                        ) -> TelemetrySnapshot:
    """Worker: rebuild the workload trace and simulate one shard."""
    from repro.workloads import build_trace

    config = SimConfig.from_dict(config_data)
    trace = build_trace(workload, trace_length, seed=seed)
    spec = ShardSpec(index=index, sim_start=sim_start, start=start,
                     stop=stop)
    with obs_events.obs_context(shard=index):
        obs_events.emit("shard_start", data={
            "name": workload, "start": start, "stop": stop, "warm": warm})
        snapshot = run_one_shard(trace, config, spec, warm=warm,
                                 checkpoint_dir=checkpoint_dir)
        obs_events.emit("shard_end", data={"name": workload})
    return snapshot


def _collect(outcome, plan: ShardPlan) -> list[TelemetrySnapshot]:
    """Per-shard snapshots in shard order; raise on any failed shard."""
    if outcome.failures:
        first = sorted(outcome.failures)[0]
        raise outcome.failures[first].as_error()
    return [outcome.results[f"shard{spec.index}"] for spec in plan.shards]


def _policy(policy: RetryPolicy | None, max_retries: int,
            point_timeout: float | None) -> RetryPolicy:
    if policy is not None:
        return policy
    return RetryPolicy(max_retries=max_retries,
                       point_timeout=point_timeout)


def run_sharded(trace: Trace, config: SimConfig | None = None, *,
                shards: int, overlap: int | None = None,
                warm: str = "functional", name: str | None = None,
                processes: int | None = None, max_retries: int = 2,
                point_timeout: float | None = None,
                policy: RetryPolicy | None = None,
                checkpoint_dir: str | None = None) -> SimResult:
    """Simulate ``trace`` split into ``shards`` windows; merge telemetry.

    With ``processes=1`` (or a single shard) every window runs inline in
    this process — same result, no pool.  ``overlap`` defaults to
    :data:`~repro.sim.sharding.DEFAULT_SHARD_OVERLAP`; ``warm`` picks
    the warm-up mode (see :mod:`repro.sim.sharding`).  The merged
    result carries shard provenance under
    ``result.telemetry.meta["sharding"]``.

    ``checkpoint_dir`` gives every shard its own machine-checkpoint
    subdirectory (snapshots every ``config.checkpoint_interval``
    cycles): a shard whose worker is killed resumes from its latest
    snapshot on retry, and the merged result stays bit-identical.
    """
    _check_mode(warm)
    if config is None:
        config = SimConfig()
    name = name or trace.name
    total = len(trace)
    if config.max_instructions is not None:
        total = min(total, config.max_instructions)
        trace = trace.slice(0, total)
        config = config.replace(max_instructions=None)
    plan = plan_shards(total, shards, overlap,
                       warmup=config.warmup_instructions)
    if len(plan) == 1 or processes == 1:
        snapshots = run_shards_inline(trace, config, plan, warm=warm,
                                      checkpoint_dir=checkpoint_dir)
    else:
        config_data = config.to_dict()
        tasks = []
        for spec in plan.shards:
            # Ship exactly the records the shard consumes (the full
            # prefix under functional warming, just the overlap window
            # otherwise) and rebase the spec onto that slice.  The
            # run-level warm-up (first shard) is applied by shard_config
            # from the config itself.
            lo = 0 if warm == "functional" else spec.sim_start
            sub = trace if (lo, spec.stop) == (0, len(trace)) \
                else trace.slice(lo, spec.stop)
            tasks.append((f"shard{spec.index}",
                          (sub.records, f"{name}#shard{spec.index}",
                           trace.seed, config_data, spec.index,
                           spec.sim_start - lo, spec.start - lo,
                           spec.stop - lo, warm,
                           shard_checkpoint_dir(checkpoint_dir,
                                                spec.index))))
        outcome = run_supervised(
            _run_shard_subtrace, tasks,
            processes=min(processes or len(plan), len(plan)),
            policy=_policy(policy, max_retries, point_timeout))
        snapshots = _collect(outcome, plan)
    return sharded_result(snapshots, plan, name=name,
                          first_warmup=config.warmup_instructions,
                          warm=warm)


def run_sharded_workload(workload: str, trace_length: int, seed: int,
                         config: SimConfig, *, shards: int,
                         overlap: int | None = None,
                         warm: str = "functional",
                         processes: int | None = None,
                         max_retries: int = 2,
                         point_timeout: float | None = None,
                         policy: RetryPolicy | None = None,
                         checkpoint_dir: str | None = None) -> SimResult:
    """Sharded simulation of a synthetic workload, rebuilt per worker.

    Equivalent to building the trace here and calling
    :func:`run_sharded`, but workers reconstruct their window from the
    ``(workload, trace_length, seed)`` identity instead of receiving
    pickled records — the cheap pool path (see "Sharded single-trace
    simulation" in ``docs/performance.md``).
    """
    _check_mode(warm)
    if config.max_instructions is not None:
        raise ConfigError(
            "run_sharded_workload shards the full trace_length; set "
            "trace_length instead of max_instructions")
    plan = plan_shards(trace_length, shards, overlap,
                       warmup=config.warmup_instructions)
    if len(plan) == 1 or processes == 1:
        from repro.workloads import build_trace

        trace = build_trace(workload, trace_length, seed=seed)
        snapshots = run_shards_inline(trace, config, plan, warm=warm,
                                      checkpoint_dir=checkpoint_dir)
    else:
        config_data = config.to_dict()
        tasks = [(f"shard{spec.index}",
                  (workload, trace_length, seed, config_data, spec.index,
                   spec.sim_start, spec.start, spec.stop, warm,
                   shard_checkpoint_dir(checkpoint_dir, spec.index)))
                 for spec in plan.shards]
        outcome = run_supervised(
            _run_shard_workload, tasks,
            processes=min(processes or len(plan), len(plan)),
            policy=_policy(policy, max_retries, point_timeout))
        snapshots = _collect(outcome, plan)
    return sharded_result(snapshots, plan, name=workload,
                          first_warmup=config.warmup_instructions,
                          warm=warm)
