"""The shared bus between the L1 instruction cache and the L2.

The paper charges every L1-I fill — demand or prefetch — for bus occupancy,
and gives demand misses priority: a prefetch may only start a transfer when
the bus is idle, while a demand miss queues behind whatever is in flight.

The model is a single resource with an occupancy horizon (``busy_until``).
A transfer occupies the bus for ``transfer_cycles``; the requester's data is
ready after the occupancy plus the downstream latency (L2 hit or memory).
"""

from __future__ import annotations

from repro.component import StatsComponent
from repro.stats import StatGroup

__all__ = ["Bus"]


class Bus(StatsComponent):
    """Single shared bus with demand-priority scheduling."""

    def __init__(self, transfer_cycles: int, name: str = "bus"):
        if transfer_cycles < 1:
            raise ValueError("transfer_cycles must be >= 1")
        self.transfer_cycles = transfer_cycles
        self.stats = StatGroup(name)
        self._busy_until = 0

    @property
    def busy_until(self) -> int:
        return self._busy_until

    def idle_at(self, now: int) -> bool:
        """True when a new transfer could start immediately at ``now``."""
        return self._busy_until <= now

    def acquire_demand(self, now: int) -> int:
        """Schedule a demand transfer; returns its start cycle.

        Demand transfers queue: if the bus is busy they start as soon as
        it frees up.
        """
        start = max(now, self._busy_until)
        self._busy_until = start + self.transfer_cycles
        self.stats.bump("demand_transfers")
        self.stats.bump("busy_cycles", self.transfer_cycles)
        self.stats.bump("demand_wait_cycles", start - now)
        return start

    def try_acquire_prefetch(self, now: int) -> int | None:
        """Start a prefetch transfer only if the bus is idle at ``now``.

        Returns the start cycle (== ``now``) or None when the bus is busy;
        prefetches never queue, preserving demand priority.
        """
        if self._busy_until > now:
            self.stats.bump("prefetch_rejected")
            return None
        self._busy_until = now + self.transfer_cycles
        self.stats.bump("prefetch_transfers")
        self.stats.bump("busy_cycles", self.transfer_cycles)
        return now

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the bus spent transferring."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.get("busy_cycles") / elapsed_cycles)
