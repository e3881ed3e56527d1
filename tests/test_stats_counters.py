"""StatGroup and Histogram unit tests."""

import pytest

from repro.stats import Histogram, RunLengthObserver, StatGroup


class TestStatGroup:
    def test_unbumped_counter_reads_zero(self):
        group = StatGroup("g")
        assert group.get("anything") == 0

    def test_bump_default_one(self):
        group = StatGroup("g")
        group.bump("hits")
        group.bump("hits")
        assert group.get("hits") == 2

    def test_bump_amount(self):
        group = StatGroup("g")
        group.bump("bytes", 64)
        group.bump("bytes", 32)
        assert group.get("bytes") == 96

    def test_set_overwrites(self):
        group = StatGroup("g")
        group.bump("x", 5)
        group.set("x", 2)
        assert group.get("x") == 2

    def test_ratio(self):
        group = StatGroup("g")
        group.bump("hits", 3)
        group.bump("accesses", 4)
        assert group.ratio("hits", "accesses") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        group = StatGroup("g")
        group.bump("hits", 3)
        assert group.ratio("hits", "accesses") == 0.0

    def test_reset_clears_everything(self):
        group = StatGroup("g")
        group.bump("x")
        group.histogram("h").observe(1)
        group.reset()
        assert group.get("x") == 0
        assert group.histogram("h").total == 0

    def test_histogram_identity_per_name(self):
        group = StatGroup("g")
        assert group.histogram("h") is group.histogram("h")
        assert group.histogram("h") is not group.histogram("other")

    def test_counters_returns_copy(self):
        group = StatGroup("g")
        group.bump("x")
        snapshot = group.counters()
        snapshot["x"] = 99
        assert group.get("x") == 1


class TestHistogram:
    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_mean(self):
        hist = Histogram()
        hist.observe(2)
        hist.observe(4)
        assert hist.mean == pytest.approx(3.0)

    def test_weighted_observe(self):
        hist = Histogram()
        hist.observe(10, weight=3)
        hist.observe(0, weight=1)
        assert hist.total == 4
        assert hist.mean == pytest.approx(7.5)

    def test_fraction_at(self):
        hist = Histogram()
        hist.observe(1, weight=3)
        hist.observe(2, weight=1)
        assert hist.fraction_at(1) == pytest.approx(0.75)
        assert hist.fraction_at(9) == 0.0

    def test_fraction_at_empty(self):
        assert Histogram().fraction_at(0) == 0.0

    def test_percentile_basics(self):
        hist = Histogram()
        for value in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
            hist.observe(value)
        assert hist.percentile(0.5) == 5
        assert hist.percentile(1.0) == 10
        assert hist.percentile(0.1) == 1

    def test_percentile_validates_q(self):
        hist = Histogram()
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0.5)

    def test_items_sorted(self):
        hist = Histogram()
        hist.observe(5)
        hist.observe(1)
        hist.observe(3)
        assert [value for value, _ in hist.items()] == [1, 3, 5]

    def test_as_dict_copy(self):
        hist = Histogram()
        hist.observe(1)
        data = hist.as_dict()
        data[1] = 100
        assert hist.as_dict()[1] == 1

    def test_len_counts_distinct_values(self):
        hist = Histogram()
        hist.observe(1, weight=10)
        hist.observe(2)
        assert len(hist) == 2


class TestHistogramEdgeCases:
    def test_percentile_single_bucket(self):
        hist = Histogram()
        hist.observe(7, weight=100)
        for q in (0.001, 0.5, 0.9, 1.0):
            assert hist.percentile(q) == 7

    def test_zero_weight_observe_is_noop(self):
        hist = Histogram()
        hist.observe(3, weight=0)
        assert hist.total == 0
        assert len(hist) == 0            # no bucket created
        assert hist.as_dict() == {}
        with pytest.raises(ValueError):
            hist.percentile(0.5)         # still empty

    def test_negative_weight_rejected(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.observe(3, weight=-1)
        assert hist.total == 0

    def test_zero_weight_after_samples_changes_nothing(self):
        hist = Histogram()
        hist.observe(2, weight=5)
        before = hist.as_dict()
        hist.observe(9, weight=0)
        assert hist.as_dict() == before
        assert hist.mean == 2.0


class TestRunLengthObserver:
    def test_flush_on_finalize(self):
        """The buffered run only reaches the histogram on flush."""
        hist = Histogram()
        obs = RunLengthObserver(hist)
        obs.observe(4, weight=3)
        assert hist.total == 0           # still buffered
        obs.flush()
        assert hist.as_dict() == {4: 3}
        obs.flush()                      # idempotent: nothing buffered
        assert hist.as_dict() == {4: 3}

    def test_run_compression_matches_per_sample(self):
        direct, compressed = Histogram(), Histogram()
        obs = RunLengthObserver(compressed)
        series = [1, 1, 1, 2, 2, 0, 0, 0, 0, 3]
        for value in series:
            direct.observe(value)
            obs.observe(value)
        obs.flush()
        assert compressed.as_dict() == direct.as_dict()

    def test_zero_weight_observe_is_complete_noop(self):
        """weight=0 must neither flush the run nor switch the value."""
        hist = Histogram()
        obs = RunLengthObserver(hist)
        obs.observe(5, weight=2)
        obs.observe(7, weight=0)         # must not end the run of 5s
        obs.observe(5, weight=1)         # extends the same run
        obs.flush()
        assert hist.as_dict() == {5: 3}

    def test_value_switch_flushes_previous_run(self):
        hist = Histogram()
        obs = RunLengthObserver(hist)
        obs.observe(1, weight=2)
        obs.observe(2, weight=4)
        assert hist.as_dict() == {1: 2}  # first run flushed by switch
        obs.flush()
        assert hist.as_dict() == {1: 2, 2: 4}
