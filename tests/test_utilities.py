"""ASCII charts, combined prefetcher."""

import pytest

from repro import PrefetchConfig, PrefetcherKind, SimConfig, simulate
from repro.analysis import bar_chart, histogram_chart


class TestBarChart:
    def test_scaling_to_peak(self):
        chart = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_zero_values_have_empty_bars(self):
        chart = bar_chart(["a", "b"], [0.0, 1.0], width=10)
        assert chart.splitlines()[0].count("#") == 0

    def test_title(self):
        chart = bar_chart(["a"], [1.0], title="T")
        assert chart.splitlines()[0] == "T"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty_ok(self):
        assert bar_chart([], []) == ""


class TestHistogramChart:
    def test_small_histogram_one_bar_per_value(self):
        chart = histogram_chart({1: 5, 3: 10}, width=10)
        assert len(chart.splitlines()) == 2

    def test_large_histogram_bucketed(self):
        hist = {i: 1 for i in range(100)}
        chart = histogram_chart(hist, max_buckets=10)
        assert len(chart.splitlines()) <= 10
        assert "-" in chart.splitlines()[0]

    def test_bucket_counts_conserved(self):
        hist = {i: 2 for i in range(50)}
        chart = histogram_chart(hist, max_buckets=5)
        total = sum(int(line.rsplit(None, 1)[-1])
                    for line in chart.splitlines())
        assert total == 100

    def test_empty(self):
        assert histogram_chart({}) == ""
        assert histogram_chart({}, title="T") == "T"


class TestCombinedPrefetcher:
    def test_runs_to_completion(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.COMBINED))
        result = simulate(small_trace, config)
        assert result.instructions == len(small_trace)
        assert result.get("combined.nlp_issued") > 0
        assert result.get("fdip.issued") > 0

    def test_not_worse_than_fdip_alone(self, small_trace):
        fdip = simulate(small_trace, SimConfig(
            prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP)))
        combined = simulate(small_trace, SimConfig(
            prefetch=PrefetchConfig(kind=PrefetcherKind.COMBINED)))
        assert combined.ipc >= fdip.ipc * 0.97

    def test_shared_buffer_counts_useful_once(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.COMBINED))
        result = simulate(small_trace, config)
        assert result.prefetches_useful <= result.prefetches_issued
