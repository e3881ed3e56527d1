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

    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the component's *full* state.

        Unlike :meth:`telemetry` this captures architectural state too
        (queue contents, predictor tables, cache tags, in-flight
        events), so that :meth:`load_state_dict` can resume a run
        mid-flight with bit-identical results.
        """
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore the state captured by :meth:`state_dict`.

        Implementations mutate existing objects in place rather than
        rebinding them, so cross-component references (the memory
        system's sidecar, a prefetcher's buffer) stay intact.
        """
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

    # -- checkpointing ---------------------------------------------------

    def _extra_state(self) -> dict:
        """Subclass hook: architectural state beyond stats/children."""
        return {}

    def _load_extra_state(self, state: dict) -> None:
        """Subclass hook: inverse of :meth:`_extra_state`."""
        if state:
            raise ValueError(
                f"component {self.name!r} cannot restore extra state "
                f"{sorted(state)}")

    def state_dict(self) -> dict:
        """Default capture: stats group + sub-components + extra state."""
        return {
            "stats": self.stats.state_dict(),
            # Positional, not name-keyed: sibling names may collide
            # (a two-level FTB's levels both report as "ftb") while
            # sub_components() order is part of the component contract.
            "components": [c.state_dict() for c in self.sub_components()],
            "extra": self._extra_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Default restore, mirroring :meth:`state_dict`."""
        self.stats.load_state_dict(state["stats"])
        children = state["components"]
        subs = tuple(self.sub_components())
        if len(children) != len(subs):
            raise ValueError(
                f"component {self.name!r} expects {len(subs)} "
                f"sub-component states, snapshot holds {len(children)}")
        for component, payload in zip(subs, children):
            component.load_state_dict(payload)
        self._load_extra_state(state["extra"])
