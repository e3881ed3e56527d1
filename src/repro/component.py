"""The uniform machine-component protocol.

Every piece of the modeled machine — the fetch engine, the FTQ, the
prediction unit, the direction predictor and RAS, the FTB, the caches,
MSHR file and bus, every prefetcher, and the CPU backend — implements
:class:`Component`: it has a stable ``name``, can :meth:`~Component.reset`
its accumulated statistics (the simulator does this when the warm-up
region ends), and reports them as one
:class:`~repro.stats.telemetry.TelemetryNode` via
:meth:`~Component.telemetry`.

The simulator asks each top-level component for its telemetry node and
assembles the tree.  Composite components (the memory system, a
two-level FTB, the prediction unit) surface their parts through
:meth:`StatsComponent.sub_components`, which nests the children's nodes
and recurses resets.

``reset()`` clears *statistics only* — architectural state (cache
contents, predictor tables, queue occupancy) survives, which is exactly
what end-of-warm-up needs.

Checkpointing asks nothing of a component: a snapshot pickles the
whole simulator (see :mod:`repro.sim.checkpoint`), so every field is
captured and an object two components share stays shared on restore.
A component's fields must therefore stay picklable — no lambdas, open
files, or generators.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.stats.counters import StatGroup
from repro.stats.telemetry import TelemetryNode

__all__ = ["Component", "StatsComponent"]


@runtime_checkable
class Component(Protocol):
    """Anything that owns statistics and can report them as telemetry."""

    @property
    def name(self) -> str:
        """Stable telemetry name (``l1i``, ``ftq``, ``fetch`` ...)."""
        ...

    def reset(self) -> None:
        """Zero accumulated statistics (architectural state survives)."""
        ...

    def telemetry(self) -> TelemetryNode:
        """Snapshot current statistics as one telemetry (sub)tree."""
        ...


class StatsComponent:
    """Default :class:`Component` wiring over one :class:`StatGroup`.

    Subclasses own ``self.stats`` (created in their ``__init__``); the
    mixin derives ``name`` from the group, resets it (and every
    sub-component) on :meth:`reset`, and builds the telemetry node from
    the group, the :meth:`derived_metrics`, and the sub-components'
    nodes.  ``__slots__`` is empty so slotted subclasses stay slotted.
    """

    __slots__ = ()

    stats: StatGroup

    @property
    def name(self) -> str:
        return self.stats.name

    def sub_components(self) -> Sequence[Component]:
        """Nested components whose telemetry belongs under this node."""
        return ()

    def derived_metrics(self) -> dict[str, float]:
        """Derived ratios worth exporting (recomputable from counters)."""
        return {}

    def reset(self) -> None:
        self.stats.reset()
        for component in self.sub_components():
            component.reset()

    def telemetry(self) -> TelemetryNode:
        return TelemetryNode.from_stat_group(
            self.stats,
            derived=self.derived_metrics(),
            children=[c.telemetry() for c in self.sub_components()],
        )
