"""The hierarchical telemetry spine: nodes, snapshots, interval
sampling, and cross-run merging."""

from __future__ import annotations

import json

import pytest

from repro.stats import (
    SCHEMA,
    IntervalSampler,
    IntervalSeries,
    StatGroup,
    TelemetryNode,
    TelemetrySnapshot,
    merge_nodes,
    merge_snapshots,
)


def leaf(name, **counters):
    return TelemetryNode(name=name, counters=counters, histograms={},
                         derived={}, children=[])


def tree():
    """sim -> (ftq, mem -> (l1i, bus))"""
    return TelemetryNode(
        name="sim", counters={"squashes": 2}, histograms={},
        derived={}, children=[
            leaf("ftq", pushes=10, pops=8),
            TelemetryNode(
                name="mem", counters={"demand_misses": 4},
                histograms={"lat": {10: 3}}, derived={},
                children=[leaf("l1i", hits=90), leaf("bus", busy=7)]),
        ])


class TestTelemetryNode:
    def test_from_stat_group_copies(self):
        class Stats(StatGroup):
            __slots__ = ("a", "b")

        group = Stats("x")
        group.a += 3
        group.histogram("h").observe(2, weight=5)
        node = TelemetryNode.from_stat_group(group)
        group.a += 1                          # must not leak into node
        group.histogram("h").observe(9)
        assert node.counters == {"a": 3}
        assert node.histograms == {"h": {2: 5}}

    def test_walk_paths_preorder(self):
        paths = [path for path, _ in tree().walk()]
        assert paths == ["sim", "sim/ftq", "sim/mem", "sim/mem/l1i",
                         "sim/mem/bus"]

    def test_child_and_find(self):
        root = tree()
        assert root.child("mem").child("bus").get("busy") == 7
        assert root.child("nope") is None
        node = root.find(lambda n: "lat" in n.histograms)
        assert node is not None and node.name == "mem"

    def test_flat_counters_uses_own_name_prefix(self):
        flat = tree().flat_counters()
        assert flat == {"sim.squashes": 2, "ftq.pushes": 10,
                        "ftq.pops": 8, "mem.demand_misses": 4,
                        "l1i.hits": 90, "bus.busy": 7}

    def test_flat_counters_duplicate_siblings_last_wins(self):
        """Matches the legacy flat merge: later nodes with the same
        group name overwrite earlier ones (the two-level FTB case)."""
        root = TelemetryNode(
            name="sim", counters={}, histograms={}, derived={},
            children=[leaf("ftb", hits=1), leaf("ftb", hits=2)])
        assert root.flat_counters()["ftb.hits"] == 2

    def test_dict_roundtrip_restores_int_histogram_keys(self):
        root = tree()
        restored = TelemetryNode.from_dict(root.to_dict())
        assert restored == root
        assert restored.child("mem").histograms["lat"] == {10: 3}


class TestMergeNodes:
    def test_counters_and_histograms_add(self):
        a = TelemetryNode(name="mem", counters={"m": 1},
                          histograms={"lat": {10: 2}}, derived={},
                          children=[])
        b = TelemetryNode(name="mem", counters={"m": 3, "n": 5},
                          histograms={"lat": {10: 1, 20: 4}}, derived={},
                          children=[])
        merged = merge_nodes([a, b])
        assert merged.counters == {"m": 4, "n": 5}
        assert merged.histograms["lat"] == {10: 3, 20: 4}

    def test_children_merged_by_name(self):
        a = TelemetryNode(name="sim", counters={}, histograms={},
                          derived={}, children=[leaf("ftq", pushes=1)])
        b = TelemetryNode(name="sim", counters={}, histograms={},
                          derived={}, children=[leaf("ftq", pushes=2),
                                                leaf("bus", busy=9)])
        merged = merge_nodes([a, b])
        assert merged.child("ftq").get("pushes") == 3
        assert merged.child("bus").get("busy") == 9

    def test_derived_dropped_on_merge(self):
        """Ratios cannot be averaged; they are recomputed downstream."""
        a = TelemetryNode(name="p", counters={"correct": 9},
                          histograms={}, derived={"accuracy": 0.9},
                          children=[])
        merged = merge_nodes([a, a])
        assert merged.derived == {}
        assert merged.counters == {"correct": 18}


class TestIntervalSampler:
    def test_per_cycle_advance(self):
        sampler = IntervalSampler(10)
        retired = misses = 0
        for cycle in range(1, 26):
            retired += 2
            if cycle % 5 == 0:
                misses += 1
            sampler.advance(cycle, 4, retired, misses)
        series = sampler.finalize(25, retired, misses)
        assert [s.end_cycle for s in series.samples] == [10, 20, 25]
        assert [s.instructions for s in series.samples] == [20, 20, 10]
        assert [s.demand_misses for s in series.samples] == [2, 2, 1]
        assert all(s.ftq_occupancy_sum == 4 * s.cycles
                   for s in series.samples)

    def test_batched_advance_matches_per_cycle(self):
        """One advance spanning several windows must reconstruct every
        interior boundary exactly as per-cycle advancing would."""
        a, b = IntervalSampler(8), IntervalSampler(8)
        for cycle in range(1, 21):
            a.advance(cycle, 3, 40, 5)
        b.advance(20, 3, 40, 5)
        assert a.finalize(20, 40, 5) == b.finalize(20, 40, 5)

    def test_origin_and_baselines(self):
        """A sampler re-created at the warm-up reset anchors windows at
        the measurement origin and subtracts the retired baseline."""
        sampler = IntervalSampler(10, origin=100, base_retired=1000)
        sampler.advance(110, 2, 1030, 0)
        series = sampler.finalize(110, 1030, 0)
        assert [s.end_cycle for s in series.samples] == [110]
        assert series.samples[0].instructions == 30

    def test_sample_derived_metrics(self):
        sampler = IntervalSampler(10)
        sampler.advance(10, 6, 20, 1)
        sample = sampler.finalize(10, 20, 1).samples[0]
        assert sample.ipc == 2.0
        assert sample.mpki == 50.0
        assert sample.mean_ftq_occupancy == 6.0

    def test_series_dict_roundtrip(self):
        sampler = IntervalSampler(4)
        sampler.advance(9, 1, 18, 2)
        series = sampler.finalize(9, 18, 2)
        assert IntervalSeries.from_dict(series.to_dict()) == series


class TestTelemetrySnapshot:
    def make(self):
        return TelemetrySnapshot(root=tree(),
                                 meta={"name": "w", "prefetcher": "fdip",
                                       "cycles": 50, "instructions": 80},
                                 intervals=None)

    def test_schema_tag_present_and_validated(self):
        payload = self.make().to_dict()
        assert payload["schema"] == SCHEMA
        payload["schema"] = "repro.telemetry/v999"
        with pytest.raises(ValueError):
            TelemetrySnapshot.from_dict(payload)

    def test_json_roundtrip(self):
        snapshot = self.make()
        assert TelemetrySnapshot.from_json(snapshot.to_json()) == snapshot
        json.loads(snapshot.to_json())        # well-formed JSON

    def test_node_navigation(self):
        snapshot = self.make()
        assert snapshot.node("mem", "l1i").get("hits") == 90
        assert snapshot.node("mem", "zzz") is None

    def test_counter_rows_cover_every_counter(self):
        snapshot = self.make()
        rows = snapshot.counter_rows()
        assert len(rows) == len(snapshot.flat_counters())
        assert ["sim/mem/l1i", "hits", 90] in rows


class TestMergeSnapshots:
    def run(self, cycles, window=None):
        intervals = None
        if window is not None:
            sampler = IntervalSampler(window)
            sampler.advance(cycles, 1, cycles, 0)
            intervals = sampler.finalize(cycles, cycles, 0)
        return TelemetrySnapshot(
            root=tree(), meta={"name": "w", "prefetcher": "fdip",
                               "cycles": cycles,
                               "instructions": 2 * cycles},
            intervals=intervals)

    def test_meta_totals_add(self):
        merged = merge_snapshots([self.run(10), self.run(30)])
        assert merged.meta["cycles"] == 40
        assert merged.meta["instructions"] == 80
        assert merged.meta["prefetcher"] == "fdip"
        assert merged.root.child("mem").get("demand_misses") == 8

    def test_interval_series_concatenate_when_windows_match(self):
        merged = merge_snapshots([self.run(10, window=10),
                                  self.run(20, window=10)])
        assert merged.intervals is not None
        assert len(merged.intervals.samples) == 3

    def test_interval_series_dropped_on_window_mismatch(self):
        merged = merge_snapshots([self.run(10, window=10),
                                  self.run(20, window=5)])
        assert merged.intervals is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_snapshots([])
