"""Stable top-level API for running simulations and sweeps.

This module is the supported entry point for programmatic use; the
examples, benchmarks, and CLI all go through it.  It intentionally
exposes a small surface:

- :func:`simulate` — run one (trace, config) point to a
  :class:`~repro.sim.results.SimResult`, optionally sharded across
  worker processes (``shards=K``);
- :func:`make_runner` — construct the memoizing experiment
  :class:`~repro.harness.runner.Runner`;
- :func:`sweep` — run many points fault-tolerantly in parallel, where
  a point is a typed :class:`~repro.spec.Point` and
  :class:`~repro.spec.ExperimentSpec` names a whole collection
  (legacy ``(workload, config)`` tuples are rejected with a
  :class:`~repro.errors.ConfigError` naming the replacement);
- :func:`execute` — run one typed :class:`~repro.spec.RunRequest` to a
  :class:`~repro.spec.RunResponse`; the canonical entry point that the
  serving daemon, the CLI, and the convenience wrappers all share;
- :func:`profile_run` — simulate one point with the cycle-attribution
  profiler on and return a :class:`~repro.spec.RunResponse` whose
  ``profile`` field carries the ``repro.profile/v1`` document (see
  :mod:`repro.obs.profile`).

Every entry point normalizes its inputs through one shared
:func:`~repro.spec.resolve_request` path, so the identity a result
cache keys on and the simulation a library call runs can never
disagree (see ``docs/serving.md`` for the cache-key definition).

Every :class:`~repro.sim.results.SimResult` carries the full
hierarchical telemetry tree on ``result.telemetry`` (a
:class:`~repro.stats.telemetry.TelemetrySnapshot`, re-exported here
along with :class:`~repro.stats.telemetry.TelemetryNode` and
:func:`~repro.stats.sweep.merge_snapshots` for cross-shard
aggregation).

Everything here is re-exported from the top-level :mod:`repro`
package::

    from repro import simulate, SimConfig, PrefetchConfig
    from repro.workloads import build_trace

    trace = build_trace("gcc_like", length=200_000)
    result = simulate(trace, SimConfig(prefetch=PrefetchConfig(
        kind="fdip", filter_mode="enqueue")))

The long-deprecated ``repro.run_simulation`` alias has been removed;
:func:`simulate` is the one way to run a single point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.obs.profile import profile_run  # noqa: F401  (re-exported)
from repro.sim.results import SimResult
from repro.spec import (  # noqa: F401  (re-exported)
    ExperimentSpec,
    Point,
    RunRequest,
    RunResponse,
    resolve_request,
)
from repro.sim.simulator import Simulator
from repro.stats import TelemetryNode, TelemetrySnapshot, \
    merge_snapshots  # noqa: F401  (re-exported)
from repro.trace import Trace

if TYPE_CHECKING:
    from repro.harness.parallel import SweepOutcome
    from repro.harness.runner import Runner

__all__ = ["simulate", "make_runner", "sweep", "profile_run",
           "execute", "resolve_request", "RunRequest", "RunResponse",
           "Point", "ExperimentSpec",
           "TelemetryNode", "TelemetrySnapshot", "merge_snapshots"]


def execute(request: RunRequest, *, trace: Trace | None = None,
            processes: int | None = None, profile: bool = False,
            tracer=None, engine: str | None = None) -> RunResponse:
    """Execute one typed request and return its typed response.

    The canonical run entry point: the request is normalized through
    :func:`~repro.spec.resolve_request` (the same path every cache key
    derives from), the workload trace is built from the request's
    ``(workload, trace_length, seed)`` identity unless an in-memory
    ``trace`` is supplied, and execution dispatches on the resolved
    shard count — monolithic in-process, or fanned out over the
    supervised pool (``processes`` workers).

    ``profile=True`` turns the cycle-attribution profiler on (the
    result stays bit-identical; monolithic runs only) and fills the
    response's ``profile`` field.  ``tracer`` and ``engine`` (one of
    :data:`~repro.config.ENGINES`) are per-call execution knobs that
    never contribute to the request's identity (both engines are
    bit-identical); a ``tracer`` does not compose with sharding.
    """
    request = resolve_request(request)
    config = request.config
    if trace is None:
        from repro.workloads import build_trace

        trace = build_trace(request.workload, request.trace_length,
                            seed=request.seed)
    assert request.shards is not None
    if request.shards > 1:
        if tracer is not None:
            raise ConfigError(
                "a pipeline tracer does not compose with sharded "
                "simulation; run with shards=1 to trace")
        if profile:
            raise ConfigError(
                "the cycle profiler needs a monolithic run; "
                "run with shards=1 to profile")
        from repro.harness.shard_runner import run_sharded

        if engine is not None:
            config = config.replace(engine=engine)
        result = run_sharded(trace, config, shards=request.shards,
                             overlap=request.shard_overlap,
                             name=request.label, processes=processes)
        return RunResponse(result=result, request=request)
    if profile and not config.profile:
        config = config.replace(profile=True)
    sim = Simulator(trace, config, name=request.label, tracer=tracer,
                    engine=engine)
    result = sim.run()
    return RunResponse(result=result, request=request,
                       profile=sim.profile_report() if profile else None)


def simulate(trace: Trace, config: SimConfig | None = None, *,
             name: str | None = None, tracer=None,
             engine: str | None = None,
             shards: int | None = None,
             shard_overlap: int | None = None,
             processes: int | None = None) -> SimResult:
    """Simulate ``trace`` under ``config`` and return the result.

    A thin shim over :func:`execute`: the trace's identity and the
    keyword arguments are bundled into a :class:`~repro.spec.
    RunRequest` and resolved through the shared normalization path.

    ``config`` defaults to a stock :class:`~repro.config.SimConfig`.
    ``name`` labels the result (defaults to the trace's name),
    ``tracer`` attaches a per-cycle pipeline tracer (which forces the
    naive cycle loop), and ``engine`` overrides ``config.engine`` for
    this run (one of :data:`~repro.config.ENGINES`; both are
    bit-identical, see ``docs/performance.md``).

    ``shards=K`` splits the trace into ``K`` windows simulated on a
    supervised process pool (``processes`` workers) and merges the
    telemetry; ``shard_overlap`` sets each window's timed warm-up
    prefix (see :mod:`repro.sim.sharding`).  ``shards=1`` (and the
    default of ``None``) runs monolithically; a ``tracer`` does not
    compose with sharding.
    """
    request = resolve_request(
        workload=trace.name or "trace", config=config,
        trace_length=len(trace), seed=trace.seed,
        shards=shards, shard_overlap=shard_overlap, label=name)
    return execute(request, trace=trace, processes=processes,
                   tracer=tracer, engine=engine).result


def make_runner(trace_length: int | None = None, seed: int = 1,
                warmup_fraction: float = 0.2,
                persist_dir: str | None = None,
                processes: int | None = None) -> "Runner":
    """Construct the memoizing experiment runner.

    A thin constructor wrapper so callers need not import
    :mod:`repro.harness` directly; see
    :class:`~repro.harness.runner.Runner` for the semantics of each
    parameter.  ``persist_dir`` (default: ``REPRO_RESULT_CACHE``) names
    its result store; ``processes`` is its default worker budget.
    """
    from repro.harness.runner import Runner

    return Runner(trace_length=trace_length, seed=seed,
                  warmup_fraction=warmup_fraction,
                  persist_dir=persist_dir, processes=processes)


def sweep(points: "list[Point] | ExperimentSpec",
          *, trace_length: int | None = None, seed: int = 1,
          warmup_fraction: float = 0.2, processes: int | None = None,
          max_retries: int = 2,
          point_timeout: float | None = None) -> "SweepOutcome":
    """Run many sweep points fault-tolerantly.

    ``points`` is a list of typed :class:`~repro.spec.Point` objects
    or an :class:`~repro.spec.ExperimentSpec` (legacy ``(workload,
    config)`` tuples are rejected with a ``ConfigError``).  Fans out
    across ``processes`` workers with per-point retries and optional
    timeouts — the same machinery the experiment harness uses (see
    :meth:`repro.harness.runner.Runner.sweep`).  With
    ``REPRO_RESULT_CACHE`` set, points already in that result store
    are served from it and the rest are stored as they complete.
    Returns the :class:`~repro.harness.parallel.SweepOutcome` mapping
    each point's ``(workload, config)`` identity to its result.
    """
    runner = make_runner(trace_length=trace_length, seed=seed,
                         warmup_fraction=warmup_fraction)
    return runner.sweep(points, processes=processes,
                        max_retries=max_retries,
                        point_timeout=point_timeout)
