"""Bimodal (per-PC 2-bit counter) direction predictor."""

from __future__ import annotations

from repro.bpred.base import (
    COUNTER_INIT,
    DirectionPredictor,
    counter_taken,
    counter_update,
)
from repro.config import is_power_of_two
from repro.errors import ConfigError
from repro.isa import INSTRUCTION_BYTES

__all__ = ["BimodalPredictor"]


class BimodalPredictor(DirectionPredictor):
    """A table of 2-bit counters indexed by instruction address."""

    def __init__(self, entries: int = 4096):
        if not is_power_of_two(entries):
            raise ConfigError("bimodal entries must be a power of two")
        super().__init__("bimodal")
        self._mask = entries - 1
        self._table = [COUNTER_INIT] * entries

    def _index(self, pc: int) -> int:
        return (pc // INSTRUCTION_BYTES) & self._mask

    def predict(self, pc: int, history: int) -> bool:
        return counter_taken(self._table[self._index(pc)])

    def update(self, pc: int, history: int, taken: bool) -> None:
        index = self._index(pc)
        self._table[index] = counter_update(self._table[index], taken)
