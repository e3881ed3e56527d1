"""Prefetcher interface.

A prefetcher plugs into the simulator at three points:

- ``sidecar`` — its storage (prefetch buffer or stream buffers), probed by
  the memory system in parallel with the L1-I on every demand access;
- :meth:`on_demand` — feedback about each demand access (next-line and
  stream-buffer prefetchers are demand driven);
- :meth:`tick` — a once-per-cycle opportunity to scan the FTQ and issue
  prefetches (FDIP), or to drain internal request queues.

:meth:`squash` is called on every pipeline flush.

Jump contract: the event engine (see :mod:`repro.sim.events`) may only
jump over a cycle when every component provably does nothing in it.
:meth:`quiescent` must return True only if, given no new demand
accesses or fills, :meth:`tick` would leave *all* observable state
(queues, buffers, statistics) untouched.  :meth:`on_skip` is then
called once per jumped window so prefetchers that keep an internal
clock can catch it up to the last jumped cycle.  The conservative
default (never quiescent) keeps third-party prefetchers correct at the
cost of the jumps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.component import StatsComponent
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.hierarchy import MemorySystem, Sidecar
from repro.stats import StatGroup
from repro.stats.telemetry import TelemetryNode

__all__ = ["Prefetcher"]


class Prefetcher(StatsComponent, ABC):
    """Base class of all instruction prefetchers.

    Every prefetcher is a telemetry :class:`~repro.component.Component`:
    ``name`` is the registered kind, and any storage it owns (prefetch
    buffer, stream buffers) reports through :meth:`extra_stat_groups`,
    which the base class turns into child telemetry nodes — subclasses
    get the protocol for free.
    """

    #: True only when :meth:`tick` is a complete no-op on *every* cycle
    #: (not merely when quiescent) — no queues drained, no counters
    #: bumped, no internal clock kept.  The event engine elides the
    #: per-cycle tick call entirely for such prefetchers.  The default
    #: is conservatively False.
    inert_tick: bool = False

    def __init__(self, name: str, memory: MemorySystem):
        self.memory = memory
        self.stats = StatGroup(name)

    def reset(self) -> None:
        for group in self.extra_stat_groups():
            group.reset()

    def telemetry(self) -> TelemetryNode:
        children = [TelemetryNode.from_stat_group(group)
                    for group in self.extra_stat_groups()
                    if group is not self.stats]
        return TelemetryNode.from_stat_group(self.stats,
                                             children=children)

    @property
    @abstractmethod
    def sidecar(self) -> Sidecar | None:
        """Storage probed alongside the L1-I (None when there is none)."""

    @abstractmethod
    def tick(self, now: int, ftq: FetchTargetQueue) -> None:
        """Issue this cycle's prefetch work."""

    def on_demand(self, bid: int, outcome: str, now: int) -> None:
        """Feedback for one demand access (default: ignore)."""

    def quiescent(self, ftq: FetchTargetQueue) -> bool:
        """True when :meth:`tick` would be a complete no-op.

        Only consulted by the event engine while the front end is
        fully stalled.  Must be exact: a prefetcher that would mutate
        any state — including bumping a counter for a rejected issue —
        must answer False.  The default is conservatively False.
        """
        return False

    def on_skip(self, last_cycle: int) -> None:
        """The simulator skipped idle cycles up to ``last_cycle``.

        Called only when :meth:`quiescent` returned True for the whole
        window; prefetchers with an internal cycle clock (stream
        buffers) update it here so later LRU decisions match the naive
        cycle-by-cycle loop bit for bit.
        """

    def squash(self) -> None:
        """Pipeline flush notification (default: nothing to drop)."""

    def extra_stat_groups(self) -> list[StatGroup]:
        """Stat groups owned by this prefetcher (buffers etc.)."""
        return [self.stats]
