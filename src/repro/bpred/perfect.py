"""Oracle direction predictor (upper-bound studies).

``PerfectPredictor`` must be told the next outcome before each prediction
(the trace-driven front end knows it); it then "predicts" that outcome.
Useful for isolating FTB and prefetch effects from direction mispredicts.
"""

from __future__ import annotations

from repro.bpred.base import DirectionPredictor

__all__ = ["PerfectPredictor"]


class PerfectPredictor(DirectionPredictor):
    """Always predicts the outcome primed via :meth:`prime`."""

    def __init__(self) -> None:
        super().__init__("perfect")
        self._next_outcome = False

    def prime(self, outcome: bool) -> None:
        """Set the outcome the next :meth:`predict` call will return."""
        self._next_outcome = outcome

    def predict(self, pc: int, history: int) -> bool:
        return self._next_outcome

    def update(self, pc: int, history: int, taken: bool) -> None:
        """Nothing to train."""
