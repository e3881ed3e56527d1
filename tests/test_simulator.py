"""End-to-end simulator integration tests."""

import pytest

from repro import (
    FilterMode,
    PrefetchConfig,
    PrefetcherKind,
    SimConfig,
    simulate,
)
from repro.errors import SimulationError


def config_for(kind, filter_mode=FilterMode.ENQUEUE, **kw):
    return SimConfig(prefetch=PrefetchConfig(kind=kind,
                                             filter_mode=filter_mode), **kw)


@pytest.fixture(scope="module", params=list(PrefetcherKind.ALL))
def any_result(request, small_trace_module):
    return simulate(small_trace_module, config_for(request.param))


@pytest.fixture(scope="module")
def small_trace_module():
    from repro.cfg import ProgramShape, generate_program
    from repro.trace import Trace
    shape = ProgramShape(target_instrs=2048, n_functions=16,
                         n_levels=5, dispatcher_fanout=4)
    program = generate_program(shape, seed=42, name="small")
    return Trace.from_program(program, 12_000, seed=7)


class TestCompletion:
    def test_all_instructions_retired(self, any_result,
                                      small_trace_module):
        assert any_result.instructions == len(small_trace_module)

    def test_positive_ipc(self, any_result):
        assert 0.05 < any_result.ipc <= 8.0

    def test_counters_present(self, any_result):
        assert any_result.get("backend.retired") == \
            any_result.instructions


class TestDeterminism:
    def test_same_inputs_same_result(self, small_trace_module):
        config = config_for(PrefetcherKind.FDIP)
        a = simulate(small_trace_module, config)
        b = simulate(small_trace_module, config)
        assert a.cycles == b.cycles
        assert a.counters == b.counters


class TestOrderings:
    """The paper's qualitative results on a small generated workload."""

    @pytest.fixture(scope="class")
    def results(self, small_trace_module):
        return {
            kind: simulate(small_trace_module, config_for(kind))
            for kind in PrefetcherKind.ALL
        }

    def test_prefetching_never_hurts_here(self, results):
        base = results[PrefetcherKind.NONE].ipc
        for kind in (PrefetcherKind.NLP, PrefetcherKind.STREAM,
                     PrefetcherKind.FDIP):
            assert results[kind].ipc >= base * 0.98

    def test_fdip_beats_baselines(self, results):
        assert results[PrefetcherKind.FDIP].ipc >= \
            results[PrefetcherKind.NLP].ipc
        assert results[PrefetcherKind.FDIP].ipc >= \
            results[PrefetcherKind.STREAM].ipc

    def test_fdip_reduces_misses(self, results):
        assert results[PrefetcherKind.FDIP].l1i_mpki < \
            results[PrefetcherKind.NONE].l1i_mpki

    def test_prefetchers_use_bus(self, results):
        assert results[PrefetcherKind.FDIP].bus_utilization > \
            results[PrefetcherKind.NONE].bus_utilization


class TestFiltering:
    def test_filtering_cuts_bus_traffic(self, small_trace_module):
        unfiltered = simulate(
            small_trace_module,
            config_for(PrefetcherKind.FDIP, FilterMode.NONE))
        ideal = simulate(
            small_trace_module,
            config_for(PrefetcherKind.FDIP, FilterMode.IDEAL))
        assert ideal.bus_utilization < unfiltered.bus_utilization
        assert ideal.prefetch_accuracy >= unfiltered.prefetch_accuracy

    def test_enqueue_between_none_and_ideal(self, small_trace_module):
        results = {
            mode: simulate(small_trace_module,
                                 config_for(PrefetcherKind.FDIP, mode))
            for mode in FilterMode.ALL
        }
        assert results[FilterMode.IDEAL].bus_utilization <= \
            results[FilterMode.ENQUEUE].bus_utilization
        assert results[FilterMode.ENQUEUE].bus_utilization <= \
            results[FilterMode.NONE].bus_utilization


def _unnamed(result):
    """A result's dict form without its two copies of the run name."""
    from repro.sim.serialize import result_to_dict

    data = result_to_dict(result)
    del data["name"]
    del data["telemetry"]["meta"]["name"]
    return data


class TestOptions:
    def test_shorter_trace_length_matches_a_sliced_trace(self, tmp_path,
                                                         monkeypatch):
        """A point's prefix is a shorter trace_length, or a slice of a
        longer trace: both simulate the same instructions."""
        from repro.api import execute
        from repro.spec import RunRequest
        from repro.workloads import build_trace

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        config = config_for(PrefetcherKind.FDIP).replace(
            warmup_instructions=500)
        for seed in (1, 2):
            computed = execute(RunRequest("gcc_like", config,
                                          trace_length=2_500,
                                          seed=seed)).result
            sliced = simulate(build_trace("gcc_like", 6_000, seed=seed)
                              .slice(0, 2_500), config)
            assert sliced.name != computed.name
            assert _unnamed(sliced) == _unnamed(computed)

    def test_warmup_shrinks_measured_instructions(self,
                                                  small_trace_module):
        config = config_for(PrefetcherKind.NONE).replace(
            warmup_instructions=2000)
        result = simulate(small_trace_module, config)
        # Measurement starts once >= 2000 instructions have retired, so
        # the measured region is the remainder (up to one retire group
        # of slack).
        assert result.instructions < len(small_trace_module)
        assert result.instructions >= len(small_trace_module) - 2000 - 64

    def test_cycle_cap_detects_deadlock(self, small_trace_module):
        config = config_for(PrefetcherKind.NONE).replace(max_cycles=10)
        with pytest.raises(SimulationError):
            simulate(small_trace_module, config)

    def test_wrong_path_off_still_completes(self, small_trace_module):
        import dataclasses
        config = config_for(PrefetcherKind.FDIP)
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, model_wrong_path=False))
        result = simulate(small_trace_module, config)
        assert result.instructions == len(small_trace_module)
        assert result.get("predict.wrong_path_blocks") == 0

    def test_single_entry_ftq_completes(self, small_trace_module):
        import dataclasses
        config = config_for(PrefetcherKind.FDIP)
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, ftq_depth=1))
        result = simulate(small_trace_module, config)
        assert result.instructions == len(small_trace_module)
        # With no lookahead there are no prefetch candidates.
        assert result.prefetches_issued == 0


class TestInvariantCounters:
    def test_useful_prefetches_bounded_by_issued(self, small_trace_module):
        result = simulate(small_trace_module,
                                config_for(PrefetcherKind.FDIP))
        assert result.prefetches_useful <= result.prefetches_issued

    def test_bus_utilization_bounded(self, small_trace_module):
        for kind in PrefetcherKind.ALL:
            result = simulate(small_trace_module, config_for(kind))
            assert 0.0 <= result.bus_utilization <= 1.0

    def test_squashes_match_resolutions(self, small_trace_module):
        result = simulate(small_trace_module,
                                config_for(PrefetcherKind.FDIP))
        assert result.get("sim.squashes") == \
            result.get("predict.resolutions")
        assert result.get("predict.mispredicts") == \
            result.get("predict.resolutions")


class TestKitchenSink:
    """Every optional feature enabled at once must still be consistent."""

    def test_all_features_together(self, small_trace_module):
        import dataclasses
        from repro.sim import check_invariants

        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP, filter_mode=FilterMode.REMOVE,
            min_lookahead=2, max_lookahead=16))
        predictor = dataclasses.replace(
            config.frontend.predictor, direction="local",
            ftb_sets=32, ftb_ways=2, ftb_l2_sets=256, ftb_l2_latency=2)
        frontend = dataclasses.replace(
            config.frontend, predictor=predictor,
            perfect_direction=False, ftq_depth=24)
        core = dataclasses.replace(config.core,
                                   fetch_accesses_per_cycle=2)
        config = config.replace(frontend=frontend, core=core,
                                fast_forward_instructions=2000)
        result = simulate(small_trace_module, config)
        assert result.instructions == len(small_trace_module) - 2000
        assert check_invariants(result, warmed_up=True) == []

    def test_combined_with_two_level_ftb(self, small_trace_module):
        import dataclasses
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.COMBINED))
        predictor = dataclasses.replace(
            config.frontend.predictor, ftb_sets=16, ftb_ways=2,
            ftb_l2_sets=128)
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, predictor=predictor))
        result = simulate(small_trace_module, config)
        assert result.instructions == len(small_trace_module)
