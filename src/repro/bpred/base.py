"""Direction predictor interface and shared 2-bit counter helpers.

The decoupled front end owns the speculative global history register and
passes it into :meth:`DirectionPredictor.predict` /
:meth:`DirectionPredictor.update`; predictors own only their tables.  This
keeps history checkpoint/repair (a front-end concern) out of the predictor
implementations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.component import StatsComponent
from repro.stats import StatGroup

__all__ = ["DirectionPredictor", "PredictorStats", "counter_taken",
           "counter_update", "COUNTER_INIT", "COUNTER_MAX", "COUNTER_TAKEN"]

COUNTER_MAX = 3
COUNTER_INIT = 1  # weakly not-taken
COUNTER_TAKEN = 2  # the lowest counter value that predicts taken


def counter_taken(counter: int) -> bool:
    """Interpret a 2-bit saturating counter as a taken prediction.

    The predictors compare with :data:`COUNTER_TAKEN` inline instead.
    """
    return counter >= COUNTER_TAKEN


def counter_update(counter: int, taken: bool) -> int:
    """Saturating increment/decrement of a 2-bit counter."""
    if taken:
        return counter + 1 if counter < COUNTER_MAX else COUNTER_MAX
    return counter - 1 if counter > 0 else 0


class PredictorStats(StatGroup):
    """Counters every :class:`DirectionPredictor` keeps."""

    __slots__ = ("predictions", "correct")


class DirectionPredictor(StatsComponent, ABC):
    """Predicts conditional-branch directions."""

    def __init__(self, name: str):
        self.stats = PredictorStats(name)

    def derived_metrics(self) -> dict[str, float]:
        return {"accuracy": self.accuracy}

    @abstractmethod
    def predict(self, pc: int, history: int) -> bool:
        """Predicted direction of the branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, history: int, taken: bool) -> None:
        """Train with the resolved outcome.

        ``history`` must be the global history value that was in effect
        when the branch was predicted.
        """

    def record_outcome(self, correct: bool) -> None:
        """Accounting hook used by the front end."""
        self.stats.predictions += 1
        if correct:
            self.stats.correct += 1

    @property
    def accuracy(self) -> float:
        return self.stats.ratio("correct", "predictions")
