"""The uniform Component protocol: every machine part exposes
``name`` / ``reset()`` / ``telemetry()`` and hangs off the simulator's
tree in the documented shape."""

from __future__ import annotations

import pytest

from repro.component import Component, StatsComponent
from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.sim.simulator import Simulator
from repro.stats import StatGroup, TelemetryNode


class TestProtocol:
    def test_stats_component_implements_protocol(self):
        class Widget(StatsComponent):
            def __init__(self):
                self.stats = StatGroup("widget")

        widget = Widget()
        assert isinstance(widget, Component)
        assert widget.name == "widget"
        node = widget.telemetry()
        assert isinstance(node, TelemetryNode)
        assert node.name == "widget"

    def test_reset_clears_stats_and_recurses(self):
        class ChildStats(StatGroup):
            __slots__ = ("y",)

        class ParentStats(StatGroup):
            __slots__ = ("x",)

        class Child(StatsComponent):
            def __init__(self):
                self.stats = ChildStats("child")

        class Parent(StatsComponent):
            def __init__(self):
                self.stats = ParentStats("parent")
                self._child = Child()

            def sub_components(self):
                return (self._child,)

        parent = Parent()
        parent.stats.x += 1
        parent._child.stats.y += 1
        parent.reset()
        assert parent.stats.get("x") == 0
        assert parent._child.stats.get("y") == 0
        assert parent.telemetry().counters == {}

    def test_derived_metrics_land_in_node(self):
        class Gadget(StatsComponent):
            def __init__(self):
                self.stats = StatGroup("gadget")

            def derived_metrics(self):
                return {"ratio": 0.5}

        assert Gadget().telemetry().derived == {"ratio": 0.5}


class TestMachineCompliance:
    @pytest.fixture(scope="class")
    def sim(self, small_program):
        from repro.trace import Trace

        trace = Trace.from_program(small_program, 3_000, seed=9)
        config = SimConfig(
            prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP))
        simulator = Simulator(trace, config)
        simulator.run()
        return simulator

    def test_every_top_level_component_satisfies_protocol(self, sim):
        for component in sim.components():
            assert isinstance(component, Component), component

    def test_nested_parts_satisfy_protocol(self, sim):
        for part in (sim.predictor, sim.ras, sim.memory.l1i,
                     sim.memory.l2, sim.memory.bus, sim.memory.mshrs):
            assert isinstance(part, Component), part

    def test_tree_shape(self, sim):
        snapshot = sim.telemetry_snapshot()
        assert snapshot.root.name == "sim"
        top = [node.name for node in snapshot.root.children]
        assert top == ["ftq", "predict", "ftb", "fetch", "fdip",
                       "backend", "mem"]
        predict = snapshot.root.child("predict")
        assert {n.name for n in predict.children} >= {"ras"}
        mem = snapshot.root.child("mem")
        assert [n.name for n in mem.children] == ["l1i", "l2", "bus",
                                                  "mshr"]

    def test_no_component_stat_bypasses_the_snapshot(self, sim):
        """The result's flat view must be exactly the tree's flat view:
        nothing flows from components into SimResult another way."""
        result = sim._collect()
        assert result.counters == result.telemetry.flat_counters()
        assert result.counters == sim.telemetry_snapshot().flat_counters()

    def test_two_level_ftb_nests_both_levels(self, small_program):
        from dataclasses import replace

        from repro.trace import Trace

        trace = Trace.from_program(small_program, 3_000, seed=9)
        config = SimConfig()
        frontend = replace(
            config.frontend,
            predictor=replace(config.frontend.predictor,
                              ftb_l2_sets=64))
        config = config.replace(frontend=frontend)
        sim = Simulator(trace, config)
        sim.run()
        ftb = sim.telemetry_snapshot().root.child("ftb2")
        assert len(ftb.children) == 2    # both levels report as "ftb"
        assert all(child.name == "ftb" for child in ftb.children)

    def test_prefetcher_buffer_reports_as_child(self, sim):
        node = sim.telemetry_snapshot().root.child("fdip")
        assert "pbuf" in {child.name for child in node.children}

    def test_reset_zeroes_the_whole_tree(self, small_program):
        from repro.trace import Trace

        trace = Trace.from_program(small_program, 3_000, seed=9)
        sim = Simulator(trace, SimConfig(
            prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP)))
        sim.run()
        sim._reset_stats()
        flat = sim.telemetry_snapshot().flat_counters()
        assert all(value == 0 for value in flat.values()), flat
