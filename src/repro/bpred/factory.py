"""Direction predictor construction from configuration."""

from __future__ import annotations

from typing import Callable

from repro.bpred.base import DirectionPredictor
from repro.bpred.bimodal import BimodalPredictor
from repro.bpred.gshare import GsharePredictor
from repro.bpred.hybrid import HybridPredictor
from repro.bpred.local import LocalPredictor
from repro.bpred.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.config import PredictorConfig

__all__ = ["make_direction_predictor"]

# One constructor per PredictorConfig.DIRECTION_KINDS entry, in the
# same order; each takes the PredictorConfig.
_DIRECTION_PREDICTORS: dict[
        str, Callable[[PredictorConfig], DirectionPredictor]] = {
    "hybrid": HybridPredictor.from_config,
    "gshare": lambda config: GsharePredictor(config.gshare_entries,
                                             config.history_bits),
    "bimodal": lambda config: BimodalPredictor(config.bimodal_entries),
    "local": lambda config: LocalPredictor(
        history_entries=config.bimodal_entries,
        history_bits=config.history_bits,
        pattern_entries=config.gshare_entries),
    "always_taken": lambda config: AlwaysTakenPredictor(),
    "always_not_taken": lambda config: AlwaysNotTakenPredictor(),
}


def make_direction_predictor(config: PredictorConfig) -> DirectionPredictor:
    """Build the direction predictor selected by ``config.direction``.

    ``PredictorConfig`` refuses any kind outside ``DIRECTION_KINDS``,
    which are exactly the table's keys.
    """
    return _DIRECTION_PREDICTORS[config.direction](config)
