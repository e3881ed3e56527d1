"""Branch prediction substrate: direction predictors and the RAS."""

from repro.bpred.base import (
    COUNTER_INIT,
    COUNTER_MAX,
    DirectionPredictor,
    counter_taken,
    counter_update,
)
from repro.bpred.bimodal import BimodalPredictor
from repro.bpred.factory import make_direction_predictor
from repro.bpred.gshare import GsharePredictor
from repro.bpred.hybrid import HybridPredictor
from repro.bpred.local import LocalPredictor
from repro.bpred.ras import RasSnapshot, ReturnAddressStack
from repro.bpred.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)

__all__ = [
    "DirectionPredictor",
    "BimodalPredictor",
    "GsharePredictor",
    "HybridPredictor",
    "LocalPredictor",
    "AlwaysTakenPredictor",
    "AlwaysNotTakenPredictor",
    "make_direction_predictor",
    "ReturnAddressStack",
    "RasSnapshot",
    "counter_taken",
    "counter_update",
    "COUNTER_INIT",
    "COUNTER_MAX",
]
