"""The stable public API: ``repro.api``, prefetcher selection, and
the removed ``run_simulation`` alias's migration hints."""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.prefetch
from repro.api import simulate
from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.prefetch.none import NonePrefetcher
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

    @pytest.mark.parametrize("knob", ["shards", "shard_overlap",
                                      "processes"])
    def test_removed_execution_knobs_raise_type_error(self, tiny_trace,
                                                      knob):
        with pytest.raises(TypeError, match=knob):
            simulate(tiny_trace, **{knob: 2})


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
        # Exactly the kinds PrefetchConfig accepts have a class.
        assert set(repro.prefetch._PREFETCHERS) == set(PrefetcherKind.ALL)

    def test_make_prefetcher_resolves_each_builtin(self, tiny_trace):
        for kind in PrefetcherKind.ALL:
            config = SimConfig(prefetch=PrefetchConfig(kind=kind))
            sim = Simulator(tiny_trace, config)
            assert sim.prefetcher is not None

    def test_custom_prefetcher_runs_end_to_end(self, tiny_trace,
                                               monkeypatch):
        """A subclass in the kind table flows through the simulator.

        ``PrefetchConfig`` accepts only ``PrefetcherKind.ALL``, so the
        subclass takes a built-in kind's table entry for the test.
        """
        ticks = []

        class CountingNone(NonePrefetcher):
            def tick(self, now, ftq):
                ticks.append(now)
                super().tick(now, ftq)

        monkeypatch.setitem(repro.prefetch._PREFETCHERS,
                            PrefetcherKind.NONE, CountingNone)
        config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NONE))
        sim = Simulator(tiny_trace, config, engine="naive")
        result = sim.run()
        assert isinstance(sim.prefetcher, CountingNone)
        assert len(ticks) == result.cycles
