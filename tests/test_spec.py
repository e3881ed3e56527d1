"""Typed experiment points: ``Point``, ``ExperimentSpec``, and the
hard-fail path for removed legacy tuple points."""

from __future__ import annotations

import pytest

import repro
from repro.config import PrefetchConfig, SimConfig
from repro.errors import ConfigError
from repro.spec import ExperimentSpec, Point, normalize_points


class TestPoint:
    def test_defaults(self):
        point = Point("gcc_like", SimConfig())
        assert point.label is None
        assert point.name == "gcc_like"
        assert point.key == ("gcc_like", SimConfig())

    def test_label_overrides_name(self):
        point = Point("gcc_like", SimConfig(), label="baseline")
        assert point.name == "baseline"
        # The label is presentation only; the identity stays the pair.
        assert point.key == ("gcc_like", SimConfig())

    def test_hashable_and_frozen(self):
        point = Point("gcc_like", SimConfig())
        assert point in {point}
        with pytest.raises(AttributeError):
            point.workload = "other"

    @pytest.mark.parametrize("kwargs", [
        dict(workload="", config=SimConfig()),
        dict(workload=123, config=SimConfig()),
        dict(workload="gcc_like", config="not-a-config"),
    ])
    def test_invalid_points_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Point(**kwargs)

    def test_exported_from_top_level(self):
        from repro.api import Point as api_point

        assert repro.Point is Point
        assert api_point is Point


class TestExperimentSpec:
    def test_sequence_protocol(self):
        points = [Point("gcc_like", SimConfig()),
                  Point("perl_like", SimConfig())]
        spec = ExperimentSpec.of(points, name="demo")
        assert len(spec) == 2
        assert list(spec) == points
        assert spec[1].workload == "perl_like"
        assert spec.name == "demo"

    def test_of_rejects_tuples(self):
        with pytest.raises(ConfigError, match="Point"):
            ExperimentSpec.of([("gcc_like", SimConfig())])

    def test_rejects_non_points(self):
        with pytest.raises(ConfigError, match="ExperimentSpec.of"):
            ExperimentSpec(points=(("gcc_like", SimConfig()),))

    def test_unique_workloads_and_configs(self):
        fdip = SimConfig(prefetch=PrefetchConfig(kind="fdip"))
        none = SimConfig(prefetch=PrefetchConfig(kind="none"))
        spec = ExperimentSpec.of([
            Point("gcc_like", fdip), Point("gcc_like", none),
            Point("perl_like", fdip)])
        assert spec.workloads == ("gcc_like", "perl_like")
        assert spec.configs == (fdip, none)

    def test_exported_from_top_level(self):
        assert repro.ExperimentSpec is ExperimentSpec


class TestNormalizePoints:
    def test_points_pass_through(self):
        points = [Point("gcc_like", SimConfig())]
        assert normalize_points(points) == points

    def test_spec_unwraps(self):
        spec = ExperimentSpec.of([Point("gcc_like", SimConfig())])
        assert normalize_points(spec) == list(spec.points)

    def test_tuples_hard_fail_with_migration_hint(self):
        entry = ("gcc_like", SimConfig())
        with pytest.raises(ConfigError) as excinfo:
            normalize_points([entry])
        # The error must spell out the exact replacement call.
        assert "removed" in str(excinfo.value)
        assert "Point('gcc_like', config)" in str(excinfo.value)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="sweep points"):
            normalize_points(["gcc_like"])
        with pytest.raises(ConfigError):
            normalize_points([("gcc_like", SimConfig(), "extra")])


class TestRunnerSweepAcceptsSpecs:
    LENGTH = 4_000

    def _runner(self):
        from repro.harness.runner import Runner

        return Runner(trace_length=self.LENGTH, seed=3,
                      warmup_fraction=0.1)

    def test_typed_points(self):
        runner = self._runner()
        points = [Point("compress_like", SimConfig(), label="base")]
        outcome = runner.sweep(points, processes=1)
        assert not outcome.failures
        assert outcome.results[points[0].key].instructions > 0

    def test_experiment_spec(self):
        runner = self._runner()
        spec = ExperimentSpec.of(
            [Point("compress_like", SimConfig())], name="smoke")
        outcome = runner.sweep(spec, processes=1)
        assert not outcome.failures

    def test_legacy_tuples_rejected(self):
        runner = self._runner()
        with pytest.raises(ConfigError, match="Point"):
            runner.sweep([("compress_like", SimConfig())], processes=1)

    def test_api_sweep_accepts_spec(self):
        from repro.api import sweep

        spec = ExperimentSpec.of(
            [Point("compress_like", SimConfig())], name="api")
        outcome = sweep(spec, trace_length=self.LENGTH, seed=3,
                        warmup_fraction=0.1, processes=1)
        assert not outcome.failures
