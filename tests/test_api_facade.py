"""The stable public API: ``repro.api``, the prefetcher registry, and
the removed ``run_simulation`` alias's migration hints."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import simulate
from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.errors import SimulationError
from repro.prefetch import register, registered_kinds
from repro.prefetch.none import NonePrefetcher
from repro.prefetch.registry import create
from repro.sim.simulator import Simulator


class TestFacade:
    def test_simulate_exported_from_top_level(self):
        assert repro.simulate is simulate
        assert callable(repro.sweep)
        assert callable(repro.make_runner)

    def test_telemetry_types_exported_from_top_level(self):
        from repro.stats.telemetry import TelemetryNode, TelemetrySnapshot

        assert repro.TelemetryNode is TelemetryNode
        assert repro.TelemetrySnapshot is TelemetrySnapshot
        assert callable(repro.merge_snapshots)

    def test_results_carry_telemetry_snapshot(self, tiny_trace):
        result = simulate(tiny_trace)
        assert isinstance(result.telemetry, repro.TelemetrySnapshot)
        assert result.telemetry.root.name == "sim"

    def test_simulate_default_config(self, tiny_trace):
        result = simulate(tiny_trace)
        assert result.instructions > 0
        assert result == simulate(tiny_trace, SimConfig())

    def test_simulate_naive_override(self, tiny_trace):
        event = simulate(tiny_trace, SimConfig())
        naive = simulate(tiny_trace, SimConfig(), engine="naive")
        assert event == naive

    def test_simulator_extras_are_keyword_only(self, tiny_trace):
        with pytest.raises(TypeError):
            Simulator(tiny_trace, SimConfig(), "a-name")


class TestRemovedAlias:
    """``run_simulation`` is gone; every import site gets a hint."""

    def test_top_level_attribute_raises_with_hint(self):
        with pytest.raises(AttributeError, match="repro.simulate"):
            repro.run_simulation

    def test_sim_package_attribute_raises_with_hint(self):
        import repro.sim

        with pytest.raises(AttributeError, match="repro.simulate"):
            repro.sim.run_simulation

    def test_simulator_module_has_no_alias(self):
        import repro.sim.simulator as simulator

        assert not hasattr(simulator, "run_simulation")
        assert "run_simulation" not in simulator.__all__

    def test_unknown_attribute_still_plain_error(self):
        # The migration __getattr__ must not swallow ordinary typos.
        with pytest.raises(AttributeError, match="no attribute"):
            repro.simualte

    def test_simulate_does_not_warn(self, tiny_trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(tiny_trace, SimConfig())

    def test_readme_documents_api_facade_as_entry_point(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = " ".join(readme.read_text(encoding="utf-8").split())
        assert "repro.api" in text
        assert "only documented programmatic entry points" in text
        # The removal is documented, with the replacement spelled out.
        assert "run_simulation" in text
        assert "removed" in text


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        for kind in PrefetcherKind.ALL:
            assert kind in kinds

    def test_make_prefetcher_resolves_each_builtin(self, tiny_trace):
        for kind in PrefetcherKind.ALL:
            config = SimConfig(prefetch=PrefetchConfig(kind=kind))
            sim = Simulator(tiny_trace, config)
            assert sim.prefetcher is not None

    def test_unknown_kind_error_names_alternatives(self):
        with pytest.raises(SimulationError) as excinfo:
            create("bogus", None, PrefetchConfig())
        message = str(excinfo.value)
        assert "bogus" in message
        for kind in PrefetcherKind.ALL:
            assert kind in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register(PrefetcherKind.NONE)(NonePrefetcher)

    def test_invalid_kind_string_rejected(self):
        with pytest.raises(SimulationError):
            register("")
        with pytest.raises(SimulationError):
            register(None)  # type: ignore[arg-type]

    def test_custom_prefetcher_runs_end_to_end(self, tiny_trace):
        """A registered subclass flows through ``simulate`` untouched.

        Custom kinds shadow a built-in (``PrefetchConfig`` validates the
        kind string), so restore the original factory afterwards.
        """
        ticks = []

        class CountingNone(NonePrefetcher):
            def tick(self, now, ftq):
                ticks.append(now)
                super().tick(now, ftq)

        register(PrefetcherKind.NONE, replace=True)(CountingNone)
        try:
            config = SimConfig(
                prefetch=PrefetchConfig(kind=PrefetcherKind.NONE))
            sim = Simulator(tiny_trace, config, engine="naive")
            result = sim.run()
            assert isinstance(sim.prefetcher, CountingNone)
            assert len(ticks) == result.cycles
        finally:
            register(PrefetcherKind.NONE, replace=True)(NonePrefetcher)
