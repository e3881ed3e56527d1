"""Gshare direction predictor (global history XOR branch address)."""

from __future__ import annotations

from repro.bpred.base import (
    COUNTER_INIT,
    COUNTER_TAKEN,
    DirectionPredictor,
    counter_update,
)
from repro.config import is_power_of_two
from repro.errors import ConfigError
from repro.isa import INSTRUCTION_BYTES

__all__ = ["GsharePredictor"]


class GsharePredictor(DirectionPredictor):
    """2-bit counters indexed by (pc XOR global history)."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        if not is_power_of_two(entries):
            raise ConfigError("gshare entries must be a power of two")
        if history_bits < 1:
            raise ConfigError("history_bits must be >= 1")
        super().__init__("gshare")
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._mask = entries - 1
        self._table = [COUNTER_INIT] * entries

    def predict(self, pc: int, history: int) -> bool:
        index = ((pc // INSTRUCTION_BYTES) ^ (history & self._history_mask)) \
            & self._mask
        return self._table[index] >= COUNTER_TAKEN

    def update(self, pc: int, history: int, taken: bool) -> None:
        index = ((pc // INSTRUCTION_BYTES) ^ (history & self._history_mask)) \
            & self._mask
        self._table[index] = counter_update(self._table[index], taken)
