"""Sharded single-trace simulation: planning, merge equivalence, pool.

The load-bearing guarantees under test (see ``repro.sim.sharding``):

- ``K=1`` degenerates to the monolithic run bit-for-bit;
- ``K>1`` merged counters tile the monolithic measured region up to
  the retire-width quantization at each window boundary, and the
  merged IPC/MPKI stay within the documented short-trace tolerance;
- the supervised pool and the inline path produce identical snapshots;
- the merged result carries complete shard provenance.
"""

from __future__ import annotations

import pytest

from repro.api import simulate
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.harness.shard_runner import run_sharded, run_sharded_workload
from repro.sim.sharding import (
    DEFAULT_SHARD_OVERLAP,
    plan_shards,
    run_shards_inline,
    shard_config,
    sharded_result,
)

WARMUP = 2_000
OVERLAP = 1_000


@pytest.fixture(scope="module")
def warm_config() -> SimConfig:
    return SimConfig(warmup_instructions=WARMUP)


@pytest.fixture(scope="module")
def mono(small_trace, warm_config):
    return simulate(small_trace, warm_config, name="mono")


class TestPlanShards:
    def test_windows_tile_the_trace(self):
        plan = plan_shards(10_000, 4, overlap=500)
        assert len(plan) == 4
        assert plan.shards[0].start == 0
        assert plan.shards[-1].stop == 10_000
        for prev, nxt in zip(plan.shards, plan.shards[1:]):
            assert nxt.start == prev.stop
            assert nxt.sim_start == nxt.start - 500

    def test_remainder_spread_over_leading_shards(self):
        plan = plan_shards(10, 3, overlap=0)
        assert [s.measured for s in plan.shards] == [4, 3, 3]

    def test_first_shard_has_no_overlap(self):
        plan = plan_shards(10_000, 4, overlap=500)
        assert plan.shards[0].sim_start == 0
        assert plan.shards[0].warmup == 0

    def test_overlap_clamped_to_available_prefix(self):
        plan = plan_shards(100, 2, overlap=1_000)
        assert plan.shards[1].sim_start == 0

    def test_default_overlap(self):
        assert plan_shards(100_000, 2).overlap == DEFAULT_SHARD_OVERLAP

    def test_overhead_counts_extra_simulated_instructions(self):
        plan = plan_shards(10_000, 4, overlap=500)
        # Three shards each re-simulate a 500-instruction overlap.
        assert plan.overhead == pytest.approx(1500 / 10_000)

    @pytest.mark.parametrize("kwargs", [
        dict(total=100, shards=0),
        dict(total=0, shards=1),
        dict(total=100, shards=2, overlap=-1),
        dict(total=3, shards=4),
        dict(total=100, shards=2, warmup=-1),
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            plan_shards(**kwargs)

    def test_warmup_must_fit_first_window(self):
        with pytest.raises(ConfigError, match="first"):
            plan_shards(10_000, 8, overlap=0, warmup=2_000)


class TestShardConfig:
    def test_first_shard_keeps_run_level_warmup(self):
        plan = plan_shards(10_000, 2, overlap=500, warmup=WARMUP)
        config = SimConfig(warmup_instructions=WARMUP)
        first = shard_config(config, plan.shards[0])
        assert first.warmup_instructions == WARMUP
        assert first.fast_forward_instructions == 0

    def test_later_shard_warms_over_overlap(self):
        plan = plan_shards(10_000, 2, overlap=500)
        config = SimConfig()
        later = shard_config(config, plan.shards[1], warm="functional")
        assert later.warmup_instructions == 500
        assert later.fast_forward_instructions == \
            plan.shards[1].sim_start
        cold = shard_config(config, plan.shards[1], warm="overlap")
        assert cold.fast_forward_instructions == 0

    def test_degenerate_shard_returns_config_unchanged(self):
        # The K=1 bit-identity hinges on the config object passing
        # through untouched.
        plan = plan_shards(10_000, 1, overlap=500, warmup=WARMUP)
        config = SimConfig(warmup_instructions=WARMUP)
        assert shard_config(config, plan.shards[0]) is config

    def test_rejects_preexisting_fast_forward(self):
        plan = plan_shards(10_000, 2, overlap=500)
        config = SimConfig(fast_forward_instructions=100)
        with pytest.raises(ConfigError, match="fast_forward"):
            shard_config(config, plan.shards[1])

    def test_rejects_unknown_warm_mode(self):
        plan = plan_shards(10_000, 2, overlap=500)
        with pytest.raises(ConfigError, match="bogus"):
            shard_config(SimConfig(), plan.shards[1], warm="bogus")


class TestMergeEquivalence:
    def test_single_shard_bit_identical(self, small_trace, warm_config,
                                        mono):
        sharded = run_sharded(small_trace, warm_config, shards=1)
        assert sharded.instructions == mono.instructions
        assert sharded.cycles == mono.cycles
        assert sharded.telemetry.flat_counters() == \
            mono.telemetry.flat_counters()

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_merged_metrics_within_tolerance(self, small_trace,
                                             warm_config, mono, shards):
        sharded = run_sharded(small_trace, warm_config, shards=shards,
                              overlap=OVERLAP, processes=1)
        # Measured windows tile the monolithic measured region up to
        # the retire-width quantization at each warm-up reset anchor.
        assert abs(sharded.instructions - mono.instructions) \
            <= 3 * shards
        # Short-trace tolerance: the 20k fixture is well below the
        # documented operating range (docs/performance.md calibrates
        # at 200k), so these bounds are deliberately loose — they
        # catch merge bugs, not modeling drift.
        assert sharded.ipc == pytest.approx(mono.ipc, rel=0.06)
        assert abs(sharded.l1i_mpki - mono.l1i_mpki) < 2.0

    def test_functional_warming_beats_overlap_only(self, small_trace,
                                                   warm_config, mono):
        functional = run_sharded(small_trace, warm_config, shards=4,
                                 overlap=OVERLAP, warm="functional",
                                 processes=1)
        cold = run_sharded(small_trace, warm_config, shards=4,
                           overlap=OVERLAP, warm="overlap",
                           processes=1)
        err = lambda r: abs(r.ipc - mono.ipc)  # noqa: E731
        assert err(functional) <= err(cold)

    def test_provenance_windows_tile_trace(self, small_trace,
                                           warm_config):
        sharded = run_sharded(small_trace, warm_config, shards=4,
                              overlap=OVERLAP, processes=1)
        meta = sharded.telemetry.meta["sharding"]
        assert meta["shards"] == 4
        assert meta["overlap"] == OVERLAP
        assert meta["warm"] == "functional"
        windows = meta["windows"]
        assert [w["shard"] for w in windows] == [0, 1, 2, 3]
        assert windows[0]["start"] == 0
        assert windows[-1]["stop"] == len(small_trace)
        for prev, nxt in zip(windows, windows[1:]):
            assert nxt["start"] == prev["stop"]
            assert nxt["cycle_range"][0] == prev["cycle_range"][1]
        assert windows[0]["warmup"] == WARMUP
        assert all(w["warmup"] == OVERLAP for w in windows[1:])
        assert sum(w["instructions"] for w in windows) == \
            sharded.instructions

    def test_merged_accuracy_ratio_restored(self, small_trace,
                                            warm_config):
        sharded = run_sharded(small_trace, warm_config, shards=2,
                              overlap=OVERLAP, processes=1)
        hybrid = sharded.telemetry.root.child("predict").child("hybrid")
        assert hybrid is not None
        assert hybrid.derived["accuracy"] == pytest.approx(
            hybrid.counters["correct"] / hybrid.counters["predictions"])

    def test_snapshot_count_must_match_plan(self, small_trace,
                                            warm_config):
        plan = plan_shards(len(small_trace), 2, overlap=OVERLAP,
                           warmup=WARMUP)
        snapshots = run_shards_inline(small_trace, warm_config, plan)
        with pytest.raises(ValueError, match="2 shards"):
            sharded_result(snapshots[:1], plan, name="broken")


class TestPoolExecution:
    @pytest.mark.parametrize("warm", ["functional", "overlap"])
    def test_pool_matches_inline(self, small_trace, warm_config, warm):
        inline = run_sharded(small_trace, warm_config, shards=2,
                             overlap=OVERLAP, warm=warm, processes=1)
        pooled = run_sharded(small_trace, warm_config, shards=2,
                             overlap=OVERLAP, warm=warm, processes=2)
        assert pooled.telemetry.flat_counters() == \
            inline.telemetry.flat_counters()
        assert pooled.telemetry.meta["sharding"] == \
            inline.telemetry.meta["sharding"]

    def test_workload_pool_matches_inline(self):
        config = SimConfig(warmup_instructions=1_000)
        inline = run_sharded_workload("compress_like", 8_000, 3, config,
                                      shards=2, overlap=500, processes=1)
        pooled = run_sharded_workload("compress_like", 8_000, 3, config,
                                      shards=2, overlap=500, processes=2)
        assert pooled.telemetry.flat_counters() == \
            inline.telemetry.flat_counters()

    def test_workload_path_matches_trace_path(self, small_trace,
                                              warm_config):
        from repro.workloads import build_trace

        trace = build_trace("compress_like", 8_000, seed=3)
        config = SimConfig(warmup_instructions=1_000)
        by_workload = run_sharded_workload(
            "compress_like", 8_000, 3, config, shards=2, overlap=500,
            processes=1)
        by_trace = run_sharded(trace, config, shards=2, overlap=500,
                               processes=1)
        assert by_workload.telemetry.flat_counters() == \
            by_trace.telemetry.flat_counters()


class TestArgumentValidation:
    def test_workload_rejects_max_instructions(self):
        config = SimConfig(max_instructions=5_000)
        with pytest.raises(ConfigError, match="max_instructions"):
            run_sharded_workload("compress_like", 8_000, 3, config,
                                 shards=2)

    def test_trace_path_honors_max_instructions(self, small_trace):
        config = SimConfig(max_instructions=6_000,
                           warmup_instructions=1_000)
        sharded = run_sharded(small_trace, config, shards=2,
                              overlap=500, processes=1)
        windows = sharded.telemetry.meta["sharding"]["windows"]
        assert windows[-1]["stop"] == 6_000

    def test_unknown_warm_mode_rejected_before_planning(self,
                                                        small_trace):
        with pytest.raises(ConfigError, match="warm"):
            run_sharded(small_trace, shards=2, warm="cold")
        with pytest.raises(ConfigError, match="warm"):
            run_sharded_workload("compress_like", 8_000, 3, SimConfig(),
                                 shards=2, warm="cold")


class TestSimulateFacade:
    def test_simulate_shards_matches_run_sharded(self, small_trace,
                                                 warm_config):
        direct = run_sharded(small_trace, warm_config, shards=2,
                             overlap=OVERLAP, processes=1)
        via_api = simulate(small_trace, warm_config, shards=2,
                           shard_overlap=OVERLAP, processes=1)
        assert via_api.telemetry.flat_counters() == \
            direct.telemetry.flat_counters()

    def test_simulate_shards_one_is_monolithic(self, small_trace,
                                               warm_config, mono):
        result = simulate(small_trace, warm_config, shards=1)
        assert result.telemetry.flat_counters() == \
            mono.telemetry.flat_counters()
        assert "sharding" not in result.telemetry.meta

    def test_tracer_does_not_compose_with_shards(self, small_trace):
        from repro.analysis import PipeTracer

        with pytest.raises(ConfigError, match="tracer"):
            simulate(small_trace, shards=2, tracer=PipeTracer())
