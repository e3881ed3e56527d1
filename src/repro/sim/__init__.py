"""Simulator wiring and results."""

from repro.sim.invariants import (
    InvariantViolation,
    assert_invariants,
    check_invariants,
    guard_invariants,
)
from repro.sim.results import SimResult
from repro.sim.sharding import (
    DEFAULT_SHARD_OVERLAP,
    ShardPlan,
    ShardSpec,
    merge_shard_snapshots,
    plan_shards,
    sharded_result,
)
from repro.sim.serialize import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.sim.simulator import Simulator
from repro.sim.checkpoint import (
    CheckpointManager,
    CheckpointedRun,
    read_heartbeat,
    run_with_checkpoints,
    snapshot_meta,
)

__all__ = [
    "Simulator",
    "SimResult",
    "CheckpointManager",
    "CheckpointedRun",
    "run_with_checkpoints",
    "snapshot_meta",
    "read_heartbeat",
    "DEFAULT_SHARD_OVERLAP",
    "ShardPlan",
    "ShardSpec",
    "plan_shards",
    "merge_shard_snapshots",
    "sharded_result",
    "check_invariants",
    "guard_invariants",
    "assert_invariants",
    "InvariantViolation",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
]


def __getattr__(name: str):
    if name == "run_simulation":
        raise AttributeError(
            "repro.sim.run_simulation was removed; call "
            "repro.simulate(trace, config, name=...) instead "
            "(same signature and behavior)")
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
