"""McFarling-style hybrid predictor: bimodal + gshare + meta chooser.

The meta table (2-bit counters indexed by pc) selects which component's
prediction to use; it trains toward whichever component was correct when
the two disagree.  This is the combination the paper's front end uses.
"""

from __future__ import annotations

from repro.bpred.base import (
    COUNTER_TAKEN,
    DirectionPredictor,
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

    # predict and update index the component tables themselves, with
    # the components' own index arithmetic, so a prediction is one call.

    def predict(self, pc: int, history: int) -> bool:
        word = pc // INSTRUCTION_BYTES
        if self._meta[word & self._meta_mask] >= COUNTER_TAKEN:
            gshare = self.gshare
            counter = gshare._table[
                (word ^ (history & gshare._history_mask)) & gshare._mask]
        else:
            bimodal = self.bimodal
            counter = bimodal._table[word & bimodal._mask]
        return counter >= COUNTER_TAKEN

    def update(self, pc: int, history: int, taken: bool) -> None:
        word = pc // INSTRUCTION_BYTES
        bimodal, gshare = self.bimodal, self.gshare
        bimodal_table, gshare_table = bimodal._table, gshare._table
        bimodal_index = word & bimodal._mask
        gshare_index = (word ^ (history & gshare._history_mask)) \
            & gshare._mask
        gshare_pred = gshare_table[gshare_index] >= COUNTER_TAKEN
        if (bimodal_table[bimodal_index] >= COUNTER_TAKEN) != gshare_pred:
            index = word & self._meta_mask
            self._meta[index] = counter_update(self._meta[index],
                                               gshare_pred == taken)
        bimodal_table[bimodal_index] = counter_update(
            bimodal_table[bimodal_index], taken)
        gshare_table[gshare_index] = counter_update(
            gshare_table[gshare_index], taken)
