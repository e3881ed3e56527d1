"""Local/static predictors and the predictor factory."""

import pytest

from repro.bpred import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    HybridPredictor,
    LocalPredictor,
    make_direction_predictor,
)
from repro.config import PredictorConfig
from repro.errors import ConfigError


class TestLocalPredictor:
    def test_learns_periodic_pattern(self):
        """T,T,NT repeating — a pattern a 2-bit bimodal cannot learn."""
        predictor = LocalPredictor(history_entries=64, history_bits=6,
                                   pattern_entries=256)
        pc = 0x40_0000
        pattern = [True, True, False]
        # Train over many periods.
        for _ in range(40):
            for taken in pattern:
                predictor.update(pc, 0, taken)
        # Now verify it predicts the next full period correctly.
        correct = 0
        for taken in pattern * 2:
            if predictor.predict(pc, 0) == taken:
                correct += 1
            predictor.update(pc, 0, taken)
        assert correct == 6

    def test_bimodal_cannot_learn_that_pattern(self):
        predictor = BimodalPredictor(64)
        pc = 0x40_0000
        pattern = [True, True, False]
        for _ in range(40):
            for taken in pattern:
                predictor.update(pc, 0, taken)
        correct = 0
        for taken in pattern * 2:
            if predictor.predict(pc, 0) == taken:
                correct += 1
            predictor.update(pc, 0, taken)
        assert correct < 6

    def test_distinct_branches_have_distinct_histories(self):
        predictor = LocalPredictor(history_entries=64, history_bits=4,
                                   pattern_entries=64)
        a, b = 0x40_0000, 0x40_0004
        for _ in range(10):
            predictor.update(a, 0, True)
            predictor.update(b, 0, False)
        assert predictor.predict(a, 0)
        assert not predictor.predict(b, 0)

    def test_validates_geometry(self):
        with pytest.raises(ConfigError):
            LocalPredictor(history_entries=100)
        with pytest.raises(ConfigError):
            LocalPredictor(pattern_entries=100)
        with pytest.raises(ConfigError):
            LocalPredictor(history_bits=0)


class TestStaticPredictors:
    def test_always_taken(self):
        predictor = AlwaysTakenPredictor()
        predictor.update(0, 0, False)
        assert predictor.predict(0, 0)

    def test_always_not_taken(self):
        predictor = AlwaysNotTakenPredictor()
        predictor.update(0, 0, True)
        assert not predictor.predict(0, 0)


class TestFactory:
    @pytest.mark.parametrize("kind,expected", [
        ("hybrid", HybridPredictor),
        ("gshare", GsharePredictor),
        ("bimodal", BimodalPredictor),
        ("local", LocalPredictor),
        ("always_taken", AlwaysTakenPredictor),
        ("always_not_taken", AlwaysNotTakenPredictor),
    ])
    def test_each_kind_constructs(self, kind, expected):
        config = PredictorConfig(direction=kind)
        assert isinstance(make_direction_predictor(config), expected)

    def test_config_rejects_unknown_direction(self):
        with pytest.raises(ConfigError):
            PredictorConfig(direction="psychic")
