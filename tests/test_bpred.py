"""Direction predictors and the return address stack."""

import pytest

from repro.bpred import (
    COUNTER_INIT,
    COUNTER_MAX,
    BimodalPredictor,
    GsharePredictor,
    HybridPredictor,
    ReturnAddressStack,
    counter_taken,
    counter_update,
)
from repro.errors import ConfigError


class TestCounters:
    def test_initial_state_not_taken(self):
        assert not counter_taken(COUNTER_INIT)

    def test_saturation_high(self):
        counter = COUNTER_MAX
        assert counter_update(counter, True) == COUNTER_MAX

    def test_saturation_low(self):
        assert counter_update(0, False) == 0

    def test_hysteresis(self):
        # From strongly taken, one not-taken keeps the taken prediction.
        counter = COUNTER_MAX
        counter = counter_update(counter, False)
        assert counter_taken(counter)
        counter = counter_update(counter, False)
        assert not counter_taken(counter)


class TestBimodal:
    def test_learns_taken(self):
        predictor = BimodalPredictor(64)
        pc = 0x40_0000
        for _ in range(2):
            predictor.update(pc, 0, True)
        assert predictor.predict(pc, 0)

    def test_learns_not_taken(self):
        predictor = BimodalPredictor(64)
        pc = 0x40_0000
        for _ in range(4):
            predictor.update(pc, 0, True)
        for _ in range(3):
            predictor.update(pc, 0, False)
        assert not predictor.predict(pc, 0)

    def test_distinct_pcs_independent(self):
        predictor = BimodalPredictor(64)
        a, b = 0x40_0000, 0x40_0004
        predictor.update(a, 0, True)
        predictor.update(a, 0, True)
        assert predictor.predict(a, 0)
        assert not predictor.predict(b, 0)

    def test_aliasing_by_table_size(self):
        predictor = BimodalPredictor(4)
        a = 0x40_0000
        b = a + 4 * 4  # same index modulo 4 entries (word indexed)
        predictor.update(a, 0, True)
        predictor.update(a, 0, True)
        assert predictor.predict(b, 0)

    def test_ignores_history(self):
        predictor = BimodalPredictor(64)
        pc = 0x40_0000
        predictor.update(pc, 0b1010, True)
        predictor.update(pc, 0b0000, True)
        assert predictor.predict(pc, 0b1111)

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            BimodalPredictor(100)


class TestGshare:
    def test_history_distinguishes_contexts(self):
        predictor = GsharePredictor(entries=256, history_bits=8)
        pc = 0x40_0000
        # Under history A it is taken; under history B not taken.
        for _ in range(3):
            predictor.update(pc, 0b0001, True)
            predictor.update(pc, 0b0010, False)
        assert predictor.predict(pc, 0b0001)
        assert not predictor.predict(pc, 0b0010)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            GsharePredictor(entries=100)
        with pytest.raises(ConfigError):
            GsharePredictor(entries=64, history_bits=0)


class TestHybrid:
    def test_predicts_like_trained_component(self):
        hybrid = HybridPredictor(64, 64, 6, 64)
        pc = 0x40_0000
        for _ in range(4):
            hybrid.update(pc, 0, True)
        assert hybrid.predict(pc, 0)

    def test_meta_moves_toward_correct_component(self):
        hybrid = HybridPredictor(64, 256, 8, 64)
        pc = 0x40_0000
        # Pattern depends on history: alternating T/NT with distinct
        # history values -> gshare learns it, bimodal cannot.
        for _ in range(8):
            hybrid.update(pc, 0b01, True)
            hybrid.update(pc, 0b10, False)
        assert hybrid.predict(pc, 0b01)
        assert not hybrid.predict(pc, 0b10)

    def test_accuracy_accounting(self):
        hybrid = HybridPredictor(64, 64, 6, 64)
        hybrid.record_outcome(True)
        hybrid.record_outcome(False)
        assert hybrid.accuracy == pytest.approx(0.5)

    def test_from_config(self):
        from repro.config import PredictorConfig
        hybrid = HybridPredictor.from_config(PredictorConfig())
        assert hybrid.predict(0x40_0000, 0) in (True, False)


class TestRas:
    def test_lifo_order(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None
        assert ras.stats.get("underflows") == 1

    def test_overflow_overwrites_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(0x100)
        ras.push(0x200)
        ras.push(0x300)   # overwrites 0x100
        assert ras.pop() == 0x300
        assert ras.pop() == 0x200
        assert ras.pop() is None

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        assert ras.peek() == 0x100
        assert len(ras) == 1

    def test_snapshot_restore_roundtrip(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        ras.push(0x200)
        snap = ras.snapshot()
        ras.pop()
        ras.push(0x300)
        ras.push(0x400)
        ras.restore(snap)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_snapshot_survives_wraparound(self):
        ras = ReturnAddressStack(2)
        ras.push(0x100)
        snap = ras.snapshot()
        ras.push(0x200)
        ras.push(0x300)  # wraps, corrupts 0x100's slot
        ras.restore(snap)
        assert ras.pop() == 0x100

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)
