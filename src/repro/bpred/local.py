"""Two-level local-history predictor (PAg style).

A per-branch history table records each branch's own recent outcomes; the
pattern history table (2-bit counters) is indexed by that local history.
Captures short periodic patterns (loop trip counts) that a global-history
predictor must spend global history bits on.
"""

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

__all__ = ["LocalPredictor"]


class LocalPredictor(DirectionPredictor):
    """PAg: local history table -> shared pattern history table."""

    def __init__(self, history_entries: int = 1024,
                 history_bits: int = 10, pattern_entries: int = 1024):
        if not is_power_of_two(history_entries):
            raise ConfigError("history_entries must be a power of two")
        if not is_power_of_two(pattern_entries):
            raise ConfigError("pattern_entries must be a power of two")
        if history_bits < 1:
            raise ConfigError("history_bits must be >= 1")
        super().__init__("local")
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._bht_mask = history_entries - 1
        self._pht_mask = pattern_entries - 1
        self._bht = [0] * history_entries
        self._pht = [COUNTER_INIT] * pattern_entries

    def _bht_index(self, pc: int) -> int:
        return (pc // INSTRUCTION_BYTES) & self._bht_mask

    def predict(self, pc: int, history: int) -> bool:
        """Predict from the branch's own history (global ``history``
        is ignored; the front end still passes it for interface
        uniformity)."""
        local = self._bht[self._bht_index(pc)]
        return counter_taken(self._pht[local & self._pht_mask])

    def update(self, pc: int, history: int, taken: bool) -> None:
        index = self._bht_index(pc)
        local = self._bht[index]
        pht_index = local & self._pht_mask
        self._pht[pht_index] = counter_update(self._pht[pht_index], taken)
        self._bht[index] = ((local << 1) | int(taken)) & self._history_mask
