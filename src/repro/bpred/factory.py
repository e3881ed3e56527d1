"""Direction predictor construction from configuration."""

from __future__ import annotations

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
from repro.errors import ConfigError

__all__ = ["make_direction_predictor"]


def make_direction_predictor(config: PredictorConfig) -> DirectionPredictor:
    """Build the direction predictor selected by ``config.direction``."""
    kind = config.direction
    if kind == "hybrid":
        return HybridPredictor.from_config(config)
    if kind == "gshare":
        return GsharePredictor(config.gshare_entries, config.history_bits)
    if kind == "bimodal":
        return BimodalPredictor(config.bimodal_entries)
    if kind == "local":
        return LocalPredictor(history_entries=config.bimodal_entries,
                              history_bits=config.history_bits,
                              pattern_entries=config.gshare_entries)
    if kind == "always_taken":
        return AlwaysTakenPredictor()
    if kind == "always_not_taken":
        return AlwaysNotTakenPredictor()
    raise ConfigError(
        f"unknown direction predictor {kind!r}; available: "
        f"{', '.join(PredictorConfig.DIRECTION_KINDS)}")
