"""Post-run invariant checker."""

import dataclasses

import pytest

from repro import PrefetchConfig, PrefetcherKind, SimConfig, simulate
from repro.sim import (
    InvariantViolation,
    assert_invariants,
    check_invariants,
)


class TestOnRealRuns:
    @pytest.mark.parametrize("kind", PrefetcherKind.ALL)
    def test_every_prefetcher_consistent(self, small_trace, kind):
        config = SimConfig(prefetch=PrefetchConfig(kind=kind))
        result = simulate(small_trace.slice(0, 6000), config)
        assert check_invariants(result) == []

    def test_with_warmup(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP), warmup_instructions=3000)
        result = simulate(small_trace, config)
        assert check_invariants(result, warmed_up=True) == []

    def test_wrong_path_off_consistent(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP))
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, model_wrong_path=False))
        result = simulate(small_trace.slice(0, 6000), config)
        assert check_invariants(result) == []

    def test_two_level_ftb_consistent(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP))
        predictor = dataclasses.replace(
            config.frontend.predictor, ftb_sets=16, ftb_ways=2,
            ftb_l2_sets=256)
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, predictor=predictor))
        result = simulate(small_trace.slice(0, 6000), config)
        assert check_invariants(result) == []


class TestDetection:
    def test_detects_corrupted_counters(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.NONE))
        result = simulate(small_trace.slice(0, 3000), config)
        result.counters["backend.retired"] += 1
        violations = check_invariants(result)
        assert violations

    def test_assert_raises(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.NONE))
        result = simulate(small_trace.slice(0, 3000), config)
        result.counters["sim.squashes"] += 5
        with pytest.raises(InvariantViolation):
            assert_invariants(result)

    def test_assert_passes_clean(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.NONE))
        assert_invariants(simulate(small_trace.slice(0, 3000), config))
