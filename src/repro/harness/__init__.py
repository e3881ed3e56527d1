"""Experiment harness: techniques, runners, reports, and the E1..E22 registry."""

from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentTable,
    run_experiment,
)
from repro.harness.parallel import (
    PointFailure,
    SweepOutcome,
    SweepPoint,
    parallel_sweep,
)
from repro.cachekey import cache_key, shard_variant
from repro.harness.persist import ResultStore, result_key
from repro.harness.report import generate_report
from repro.harness.runner import Runner, default_trace_length, geomean
from repro.harness.shard_runner import run_sharded, run_sharded_workload
from repro.spec import ExperimentSpec, Point, normalize_points
from repro.harness.supervise import (
    AttemptRecord,
    RetryPolicy,
    TaskFailure,
    run_supervised,
)
from repro.harness.techniques import (
    TECHNIQUE_ORDER,
    TECHNIQUES,
    technique_config,
)

__all__ = [
    "Runner",
    "Point",
    "ExperimentSpec",
    "normalize_points",
    "run_sharded",
    "run_sharded_workload",
    "parallel_sweep",
    "SweepPoint",
    "SweepOutcome",
    "PointFailure",
    "RetryPolicy",
    "AttemptRecord",
    "TaskFailure",
    "run_supervised",
    "ResultStore",
    "result_key",
    "cache_key",
    "shard_variant",
    "generate_report",
    "default_trace_length",
    "geomean",
    "TECHNIQUES",
    "TECHNIQUE_ORDER",
    "technique_config",
    "EXPERIMENTS",
    "ExperimentTable",
    "run_experiment",
]
