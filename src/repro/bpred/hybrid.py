"""McFarling-style hybrid predictor: bimodal + gshare + meta chooser.

The meta table (2-bit counters indexed by pc) selects which component's
prediction to use; it trains toward whichever component was correct when
the two disagree.  This is the combination the paper's front end uses.
"""

from __future__ import annotations

from repro.bpred.base import (
    DirectionPredictor,
    counter_taken,
    counter_update,
)
from repro.bpred.bimodal import BimodalPredictor
from repro.bpred.gshare import GsharePredictor
from repro.config import PredictorConfig, is_power_of_two
from repro.errors import ConfigError
from repro.isa import INSTRUCTION_BYTES

__all__ = ["HybridPredictor"]

_META_INIT = 2  # weakly prefer gshare


class HybridPredictor(DirectionPredictor):
    """Tournament predictor over a bimodal and a gshare component."""

    def __init__(self, bimodal_entries: int = 4096,
                 gshare_entries: int = 4096, history_bits: int = 12,
                 meta_entries: int = 4096):
        if not is_power_of_two(meta_entries):
            raise ConfigError("meta entries must be a power of two")
        super().__init__("hybrid")
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.gshare = GsharePredictor(gshare_entries, history_bits)
        self._meta_mask = meta_entries - 1
        self._meta = [_META_INIT] * meta_entries

    @classmethod
    def from_config(cls, config: PredictorConfig) -> "HybridPredictor":
        return cls(bimodal_entries=config.bimodal_entries,
                   gshare_entries=config.gshare_entries,
                   history_bits=config.history_bits,
                   meta_entries=config.meta_entries)

    def _meta_index(self, pc: int) -> int:
        return (pc // INSTRUCTION_BYTES) & self._meta_mask

    def predict(self, pc: int, history: int) -> bool:
        use_gshare = counter_taken(self._meta[self._meta_index(pc)])
        if use_gshare:
            return self.gshare.predict(pc, history)
        return self.bimodal.predict(pc, history)

    def update(self, pc: int, history: int, taken: bool) -> None:
        bimodal_pred = self.bimodal.predict(pc, history)
        gshare_pred = self.gshare.predict(pc, history)
        if bimodal_pred != gshare_pred:
            index = self._meta_index(pc)
            gshare_correct = gshare_pred == taken
            self._meta[index] = counter_update(self._meta[index],
                                               gshare_correct)
        self.bimodal.update(pc, history, taken)
        self.gshare.update(pc, history, taken)
