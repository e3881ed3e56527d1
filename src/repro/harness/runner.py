"""Experiment runner with in-process result memoization.

The twelve experiments share many (workload, configuration) simulation
runs; this runner keys every run by its exact inputs so an experiment
that re-requests an already-simulated point pays nothing.  Traces are
cached on disk (see :class:`~repro.trace.cache.TraceCache`), simulation
results in memory and, with a result store, on disk.
"""

from __future__ import annotations

import math

from repro import env
# Bound as a module-level name (rather than called through repro.api)
# so tests can monkeypatch `repro.harness.runner.simulate`.
from repro.api import simulate
from repro.config import SimConfig
from repro.harness.parallel import SweepOutcome, effective_config, \
    parallel_sweep
from repro.harness.persist import ResultStore, result_key
from repro.spec import ExperimentSpec, Point, normalize_points
from repro.sim import SimResult, guard_invariants
from repro.stats.sweep import merge_counters
from repro.trace import Trace
from repro.workloads import build_trace

__all__ = ["Runner", "default_trace_length", "geomean"]

_QUICK_LENGTH = 60_000
_FULL_LENGTH = 400_000


def default_trace_length() -> int:
    """Trace length for experiments.

    ``REPRO_TRACE_LEN`` overrides exactly; ``REPRO_FULL=1`` selects the
    long configuration; the default keeps a full experiment sweep in the
    minutes range on a laptop.  Malformed values raise
    :class:`~repro.errors.ConfigError` (see :mod:`repro.env`).
    """
    override = env.trace_length_override()
    if override is not None:
        return override
    if env.full_run_requested():
        return _FULL_LENGTH
    return _QUICK_LENGTH


def geomean(values: list[float]) -> float:
    """Geometric mean (0.0 for an empty list)."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Runner:
    """Runs (workload, config) points with memoization.

    A point without a warm-up runs with ``warmup_fraction`` of the
    trace as warm-up.  Results are memoized in memory and, with
    ``persist_dir``/``store`` (default: ``REPRO_RESULT_CACHE``), in a
    :class:`~repro.harness.persist.ResultStore` under the point's
    :func:`~repro.harness.persist.result_key`, the key
    :func:`~repro.harness.parallel.parallel_sweep` uses too.
    ``processes`` is the default worker budget of :meth:`sweep`.
    """

    def __init__(self, trace_length: int | None = None, seed: int = 1,
                 warmup_fraction: float = 0.2,
                 persist_dir: str | None = None,
                 store: ResultStore | None = None,
                 processes: int | None = None):
        self.trace_length = trace_length or default_trace_length()
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self.processes = processes
        self._traces: dict[str, Trace] = {}
        self._results: dict[tuple, SimResult] = {}
        self.sweep_counters: dict[str, int] = {}
        if store is not None:
            self._store = store
        else:
            if persist_dir is None:
                persist_dir = env.result_cache_dir()
            self._store = None
            if persist_dir:
                self._store = ResultStore(persist_dir)

    def trace(self, workload: str) -> Trace:
        trace = self._traces.get(workload)
        if trace is None:
            trace = build_trace(workload, self.trace_length, seed=self.seed)
            self._traces[workload] = trace
        return trace

    @property
    def _warmup(self) -> int:
        return int(self.trace_length * self.warmup_fraction)

    def memoized(self, workload: str, config: SimConfig) -> SimResult | None:
        """The in-memory result of one point, or None; never simulates."""
        return self._results.get(
            (workload, effective_config(config, self._warmup)))

    def run(self, workload: str, config: SimConfig) -> SimResult:
        """Simulate ``workload`` under ``config`` (memoized).

        A simulated result must pass
        :func:`~repro.sim.guard_invariants` before it is memoized or
        stored, as a sweep worker's must.
        """
        config = effective_config(config, self._warmup)
        result = self._results.get((workload, config))
        if result is not None:
            return result
        key = None
        if self._store is not None:
            key = result_key(workload, config, self.trace_length, self.seed)
            result = self._store.load_key(key)
        if result is None:
            result = guard_invariants(
                simulate(self.trace(workload), config, name=workload),
                warmed_up=config.warmup_instructions > 0, context=workload)
            if self._store is not None:
                self._store.store_key(key, result)
        self._results[(workload, config)] = result
        return result

    def with_seed(self, seed: int) -> "Runner":
        """A runner over the same lengths/persistence but another seed.

        Child runners share nothing in memory (different traces), but do
        share the on-disk trace/result caches.  All settings travel
        through the constructor (no post-construction mutation), so
        constructor logic always applies to children.
        """
        return Runner(trace_length=self.trace_length, seed=seed,
                      warmup_fraction=self.warmup_fraction,
                      store=self._store, processes=self.processes)

    def sweep(self, points: "list[Point] | ExperimentSpec",
              processes: int | None = None, *,
              max_retries: int = 2,
              point_timeout: float | None = None) -> SweepOutcome:
        """Run many points fault-tolerantly and memoize the survivors.

        ``points`` may be typed :class:`~repro.spec.Point` objects or
        an :class:`~repro.spec.ExperimentSpec`; legacy ``(workload,
        config)`` tuples are rejected with a
        :class:`~repro.errors.ConfigError` naming the replacement.
        The points fan out through
        :func:`~repro.harness.parallel.parallel_sweep` over the
        runner's store, so points the store already holds are served
        from it.  Completed results join the in-memory memo so
        subsequent :meth:`run` calls are free; execution counters
        accumulate on :attr:`sweep_counters` (reported in the markdown
        report footer).
        """
        outcome = parallel_sweep(
            [point.key for point in normalize_points(points)],
            trace_length=self.trace_length, seed=self.seed,
            warmup=self._warmup,
            processes=processes if processes is not None
            else self.processes,
            max_retries=max_retries, point_timeout=point_timeout,
            store=self._store)
        for (workload, config), result in outcome.items():
            self._results.setdefault(
                (workload, effective_config(config, self._warmup)), result)
        self.sweep_counters = merge_counters(self.sweep_counters,
                                             outcome.counters)
        return outcome

    def speedup(self, workload: str, config: SimConfig,
                baseline: SimConfig) -> float:
        """IPC ratio of ``config`` over ``baseline`` on ``workload``."""
        return self.run(workload, config).speedup_over(
            self.run(workload, baseline))

    @property
    def runs_performed(self) -> int:
        return len(self._results)
