"""Fetch target buffer (fetch-block BTB), one- and two-level."""

from repro.ftb.ftb import FetchTargetBuffer, FTBEntry
from repro.ftb.multilevel import HIT, L2, MISS, TwoLevelFTB

__all__ = [
    "FetchTargetBuffer",
    "FTBEntry",
    "TwoLevelFTB",
    "HIT",
    "L2",
    "MISS",
]
