"""StatGroup and Histogram unit tests."""

import pickle

import pytest

from repro.component import StatsComponent
from repro.stats import Histogram, StatGroup, flush_counts
from repro.stats.counters import UNSET


class _Stats(StatGroup):
    """A small declared group for the tests below."""

    __slots__ = ("hits", "accesses", "bytes", "x")


class TestStatGroup:
    def test_unbumped_counter_reads_zero(self):
        group = _Stats("g")
        assert group.get("hits") == 0
        assert group.hits == 0

    def test_bump_default_one(self):
        group = _Stats("g")
        group.bump("hits")
        group.bump("hits")
        assert group.get("hits") == 2

    def test_bump_amount(self):
        group = _Stats("g")
        group.bump("bytes", 64)
        group.bump("bytes", 32)
        assert group.get("bytes") == 96

    def test_attribute_increment_matches_bump(self):
        group = _Stats("g")
        group.hits += 1
        group.hits += 2
        group.bump("hits")
        assert group.get("hits") == 4
        assert group.counters() == {"hits": 4}

    def test_set_overwrites(self):
        group = _Stats("g")
        group.bump("x", 5)
        group.set("x", 2)
        assert group.get("x") == 2

    def test_ratio(self):
        group = _Stats("g")
        group.bump("hits", 3)
        group.bump("accesses", 4)
        assert group.ratio("hits", "accesses") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        group = _Stats("g")
        group.bump("hits", 3)
        assert group.ratio("hits", "accesses") == 0.0

    def test_reset_clears_everything(self):
        group = _Stats("g")
        group.bump("x")
        group.histogram("h").observe(1)
        group.reset()
        assert group.get("x") == 0
        assert group.histogram("h").total == 0

    def test_histogram_identity_per_name(self):
        group = _Stats("g")
        assert group.histogram("h") is group.histogram("h")
        assert group.histogram("h") is not group.histogram("other")

    def test_counters_returns_copy(self):
        group = _Stats("g")
        group.bump("x")
        snapshot = group.counters()
        snapshot["x"] = 99
        assert group.get("x") == 1

    def test_declared_counters_include_every_subclass_slot(self):
        class More(_Stats):
            __slots__ = ("extra",)

        assert More.COUNTERS == ("hits", "accesses", "bytes", "x", "extra")
        assert StatGroup.COUNTERS == ()


class TestPresenceRule:
    """A counter is reported iff something added to it since the last
    reset — even 0.  Result digests depend on this exact rule."""

    def test_counter_added_zero_is_present_with_zero(self):
        group = _Stats("g")
        group.hits += 0
        group.bump("bytes", 0)
        assert group.counters() == {"hits": 0, "bytes": 0}
        assert type(group.counters()["hits"]) is int

    def test_untouched_declared_counter_is_absent_but_reads_zero(self):
        group = _Stats("g")
        group.hits += 1
        assert "accesses" not in group.counters()
        assert group.get("accesses") == 0
        assert group.accesses == 0
        assert group.accesses is UNSET

    def test_set_makes_a_counter_present(self):
        group = _Stats("g")
        group.set("x", 0)
        assert group.counters() == {"x": 0}

    def test_reset_makes_every_counter_absent_in_place(self):
        class Part(StatsComponent):
            def __init__(self):
                self.stats = _Stats("part")

        part = Part()
        hoisted = part.stats     # as the event loop hoists it
        hoisted.hits += 3
        hoisted.bytes += 0
        part.reset()
        assert part.stats is hoisted
        assert hoisted.counters() == {}
        assert all(getattr(hoisted, name) is UNSET
                   for name in _Stats.COUNTERS)
        hoisted.hits += 1        # counting resumes through the reference
        assert part.telemetry().counters == {"hits": 1}

    def test_pickle_round_trips_touched_and_untouched_counters(self):
        group = _Stats("g")
        group.hits += 5
        group.bytes += 0
        group.histogram("h").observe(2, weight=3)
        restored = pickle.loads(pickle.dumps(group))
        assert type(restored) is _Stats
        assert restored.name == "g"
        assert restored.counters() == {"hits": 5, "bytes": 0}
        assert restored.accesses is UNSET
        assert restored.x is UNSET
        assert restored.histogram("h").as_dict() == {2: 3}

    @pytest.mark.parametrize("method", ["bump", "get"])
    def test_undeclared_name_raises_attribute_error(self, method):
        group = _Stats("g")
        with pytest.raises(AttributeError, match="nope"):
            getattr(group, method)("nope")
        assert group.counters() == {}

    def test_bare_group_creates_counters_on_first_use(self):
        group = StatGroup("bare")
        assert group.get("a") == 0
        assert group.counters() == {}
        group.bump("a", 2)
        group.bump("b", 0)
        group.set("c", 7)
        assert group.get("a") == 2
        assert group.counters() == {"a": 2, "b": 0, "c": 7}
        restored = pickle.loads(pickle.dumps(group))
        assert restored.counters() == {"a": 2, "b": 0, "c": 7}
        group.reset()
        assert group.counters() == {}
        with pytest.raises(AttributeError):
            group.a += 1            # no slots: only the by-name methods

    def test_undeclared_set_and_internal_names_raise(self):
        group = _Stats("g")
        with pytest.raises(AttributeError):
            group.set("nope", 1)
        with pytest.raises(AttributeError):
            group.bump("name")          # a slot, but not a counter
        with pytest.raises(AttributeError):
            group.nope = 1


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


class TestFlushCounts:
    def test_flush_on_finalize(self):
        """Counts reach the histogram only on flush, which zeroes them."""
        hist = Histogram()
        counts = [0, 0, 0, 0, 3]
        assert hist.total == 0           # still in the counts
        flush_counts(counts, hist)
        assert hist.as_dict() == {4: 3}
        assert counts == [0, 0, 0, 0, 0]
        flush_counts(counts, hist)       # idempotent: nothing counted
        assert hist.as_dict() == {4: 3}

    def test_counts_match_per_sample(self):
        direct, counted = Histogram(), Histogram()
        counts = [0] * 4
        series = [1, 1, 1, 2, 2, 0, 0, 0, 0, 3]
        for value in series:
            direct.observe(value)
            counts[value] += 1
        flush_counts(counts, counted)
        assert counted.as_dict() == direct.as_dict()
        assert (counted.total, counted.mean) == (direct.total, direct.mean)

    def test_zero_count_creates_no_bucket(self):
        hist = Histogram()
        flush_counts([0, 2, 0, 1], hist)
        assert hist.as_dict() == {1: 2, 3: 1}
        assert len(hist) == 2
