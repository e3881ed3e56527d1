"""The hierarchical telemetry spine.

Every machine component (see :mod:`repro.component`) reports its
statistics as a :class:`TelemetryNode`; the simulator assembles the
nodes into one tree rooted at the ``sim`` node and wraps it — together
with run metadata and the optional interval time series — into a
:class:`TelemetrySnapshot`.  The snapshot is the *single* source of
truth for everything downstream: :class:`~repro.sim.results.SimResult`
is a thin view constructed from it, the report generators and analysis
helpers read it, and the ``repro stats`` CLI exports it.

The export schema is versioned (:data:`SCHEMA`): consumers can rely on
the shape of :meth:`TelemetrySnapshot.to_dict` output, and
:meth:`TelemetrySnapshot.from_dict` refuses payloads from a newer
schema instead of misreading them.

Interval sampling
-----------------

:class:`IntervalSampler` records a per-window time series (cycles,
retired instructions, demand misses, FTQ-occupancy mass) with a
configurable window.  It is *jump aware*: the event engine batches
hundreds of identical idle cycles into one
:meth:`IntervalSampler.advance` call, and the sampler reconstructs
every window boundary crossed inside the batch analytically — the
resulting series is bit-identical to naive cycle-by-cycle sampling
(asserted by ``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.stats.counters import StatGroup

__all__ = [
    "SCHEMA",
    "TelemetryNode",
    "TelemetrySnapshot",
    "IntervalSample",
    "IntervalSeries",
    "IntervalSampler",
    "merge_nodes",
]

#: Versioned schema identifier stamped into every exported snapshot.
SCHEMA = "repro.telemetry/v1"


# ----------------------------------------------------------------------
# The tree
# ----------------------------------------------------------------------

@dataclass
class TelemetryNode:
    """One component's statistics: counters, histograms, derived ratios.

    ``children`` nests sub-component nodes (the memory system's caches,
    a two-level FTB's levels, a prefetcher's buffer).  Sibling names are
    normally unique but duplicates are representable — ``children`` is
    a list, not a mapping — and :meth:`flat_counters` resolves them the
    way the legacy flat merge did (later writers win).
    """

    name: str
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict[int, int]] = field(default_factory=dict)
    derived: dict[str, float] = field(default_factory=dict)
    children: list["TelemetryNode"] = field(default_factory=list)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_stat_group(cls, group: StatGroup,
                        derived: dict[str, float] | None = None,
                        children: list["TelemetryNode"] | None = None,
                        ) -> "TelemetryNode":
        """Snapshot one :class:`StatGroup` into a node (copies, no refs)."""
        return cls(
            name=group.name,
            counters=group.counters(),
            histograms={name: hist.as_dict()
                        for name, hist in group.histograms().items()},
            derived=dict(derived) if derived else {},
            children=list(children) if children else [],
        )

    # -- navigation -----------------------------------------------------

    def child(self, name: str) -> "TelemetryNode | None":
        """First direct child called ``name`` (None when absent)."""
        for node in self.children:
            if node.name == name:
                return node
        return None

    def walk(self, prefix: str = "") -> Iterator[tuple[str, "TelemetryNode"]]:
        """Yield ``(path, node)`` pairs in depth-first pre-order.

        Paths are slash-joined (``sim/mem/l1i``); the root's path is its
        own name.
        """
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for node in self.children:
            yield from node.walk(path)

    def find(self, predicate: Callable[["TelemetryNode"], bool],
             ) -> "TelemetryNode | None":
        """First node (pre-order) satisfying ``predicate``."""
        for _, node in self.walk():
            if predicate(node):
                return node
        return None

    def get(self, counter: str) -> int:
        """This node's ``counter`` value (0 when never recorded)."""
        return self.counters.get(counter, 0)

    # -- legacy flat view ----------------------------------------------

    def flat_counters(self, into: dict[str, int] | None = None,
                      ) -> dict[str, int]:
        """The flat ``group.counter`` namespace.

        Keys are prefixed with each node's *own* name (not its path);
        duplicate sibling names overwrite in traversal order.
        """
        flat = {} if into is None else into
        for _, node in self.walk():
            for key, value in node.counters.items():
                flat[f"{node.name}.{key}"] = value
        return flat

    def histogram(self, name: str) -> dict[int, int]:
        """This node's histogram ``name`` (empty dict when absent)."""
        return self.histograms.get(name, {})

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (histogram keys stringified)."""
        return {
            "name": self.name,
            "counters": dict(self.counters),
            "histograms": {name: {str(k): v for k, v in hist.items()}
                           for name, hist in self.histograms.items()},
            "derived": dict(self.derived),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TelemetryNode":
        return cls(
            name=payload["name"],
            counters={str(k): int(v)
                      for k, v in payload.get("counters", {}).items()},
            histograms={name: {int(k): int(v) for k, v in hist.items()}
                        for name, hist in
                        payload.get("histograms", {}).items()},
            derived={str(k): float(v)
                     for k, v in payload.get("derived", {}).items()},
            children=[cls.from_dict(child)
                      for child in payload.get("children", [])],
        )


def merge_nodes(nodes: "list[TelemetryNode]") -> TelemetryNode:
    """Sum same-shaped telemetry trees (cross-run aggregation).

    Counters and histogram weights add; derived ratios are *dropped*
    (a ratio of sums is not the sum of ratios — recompute downstream);
    children are merged by position-insensitive name matching, keeping
    first-tree order and appending names unique to later trees.
    """
    if not nodes:
        raise ValueError("merge_nodes needs at least one node")
    first = nodes[0]
    merged = TelemetryNode(name=first.name)
    for node in nodes:
        if node.name != first.name:
            raise ValueError(
                f"cannot merge node {node.name!r} into {first.name!r}")
        for key, value in node.counters.items():
            merged.counters[key] = merged.counters.get(key, 0) + value
        for name, hist in node.histograms.items():
            target = merged.histograms.setdefault(name, {})
            for value, count in hist.items():
                target[value] = target.get(value, 0) + count
    order: list[str] = []
    by_name: dict[str, list[TelemetryNode]] = {}
    for node in nodes:
        for child in node.children:
            if child.name not in by_name:
                order.append(child.name)
                by_name[child.name] = []
            by_name[child.name].append(child)
    merged.children = [merge_nodes(by_name[name]) for name in order]
    return merged


# ----------------------------------------------------------------------
# Interval time series
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSample:
    """One window of the interval time series (all-integer deltas)."""

    end_cycle: int           # last cycle covered by this window
    cycles: int              # window length (== window except the tail)
    instructions: int        # instructions retired inside the window
    demand_misses: int       # demand misses recorded inside the window
    ftq_occupancy_sum: int   # sum of per-cycle FTQ occupancy samples

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.demand_misses / self.instructions

    @property
    def mean_ftq_occupancy(self) -> float:
        return self.ftq_occupancy_sum / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class IntervalSeries:
    """The finalized per-window time series of one run."""

    window: int
    samples: tuple[IntervalSample, ...]

    def rows(self) -> list[list[Any]]:
        """Tabular form matching :meth:`headers` (for CSV export)."""
        return [[i, s.end_cycle, s.cycles, s.instructions, s.ipc,
                 s.demand_misses, s.mpki, s.mean_ftq_occupancy]
                for i, s in enumerate(self.samples)]

    @staticmethod
    def headers() -> list[str]:
        return ["interval", "end_cycle", "cycles", "instructions", "ipc",
                "demand_misses", "mpki", "mean_ftq_occupancy"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "samples": [{
                "end_cycle": s.end_cycle,
                "cycles": s.cycles,
                "instructions": s.instructions,
                "demand_misses": s.demand_misses,
                "ftq_occupancy_sum": s.ftq_occupancy_sum,
            } for s in self.samples],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "IntervalSeries":
        return cls(
            window=int(payload["window"]),
            samples=tuple(IntervalSample(
                end_cycle=int(s["end_cycle"]),
                cycles=int(s["cycles"]),
                instructions=int(s["instructions"]),
                demand_misses=int(s["demand_misses"]),
                ftq_occupancy_sum=int(s["ftq_occupancy_sum"]),
            ) for s in payload.get("samples", [])),
        )


class IntervalSampler:
    """Accumulates the interval time series during a run.

    The naive loop calls :meth:`advance` once per cycle; the event
    engine calls it once per *batch* of jumped cycles (during which
    retired count, demand misses, and FTQ occupancy are provably
    constant — that is what made the cycles skippable).  Boundary
    crossings inside a batch are reconstructed exactly, so both loops
    produce the same series.

    ``origin`` is the cycle measurement starts at; windows end at
    ``origin + k*window``.  All recorded quantities are cumulative
    *as of the end* of the reported cycle; :meth:`finalize` converts
    the boundary snapshots into per-window deltas.
    """

    __slots__ = ("window", "_origin", "_base_retired", "_base_misses",
                 "_pos", "_next_boundary", "_occ_sum", "_marks")

    def __init__(self, window: int, origin: int = 0,
                 base_retired: int = 0, base_misses: int = 0):
        if window < 1:
            raise ValueError("interval window must be >= 1")
        self.window = window
        self._origin = origin
        self._base_retired = base_retired   # cumulative retired at origin
        self._base_misses = base_misses     # cumulative misses at origin
        self._pos = origin            # last cycle accounted for
        self._next_boundary = origin + window
        self._occ_sum = 0             # cumulative occupancy mass
        # (end_cycle, retired, misses, occ_sum) cumulative marks.
        self._marks: list[tuple[int, int, int, int]] = []

    def advance(self, cycle: int, occupancy: int, retired: int,
                misses: int) -> None:
        """Account for cycles ``(_pos, cycle]``.

        ``occupancy`` is the FTQ occupancy held on every cycle of the
        span; ``retired``/``misses`` are the cumulative totals at the
        end of ``cycle`` (constant across the span when it is longer
        than one cycle — guaranteed by the event engine's stall proof).
        """
        while self._next_boundary <= cycle:
            boundary = self._next_boundary
            occ_at_boundary = (self._occ_sum
                               + occupancy * (boundary - self._pos))
            self._marks.append((boundary, retired, misses,
                                occ_at_boundary))
            self._next_boundary = boundary + self.window
        self._occ_sum += occupancy * (cycle - self._pos)
        self._pos = cycle

    def finalize(self, cycle: int, retired: int,
                 misses: int) -> IntervalSeries:
        """Close the series at ``cycle`` (emits a partial tail window)."""
        marks = list(self._marks)
        if cycle > (marks[-1][0] if marks else self._origin):
            marks.append((cycle, retired, misses, self._occ_sum))
        samples = []
        prev = (self._origin, self._base_retired, self._base_misses, 0)
        for mark in marks:
            end, cum_retired, cum_misses, cum_occ = mark
            samples.append(IntervalSample(
                end_cycle=end,
                cycles=end - prev[0],
                instructions=cum_retired - prev[1],
                demand_misses=cum_misses - prev[2],
                ftq_occupancy_sum=cum_occ - prev[3],
            ))
            prev = mark
        return IntervalSeries(window=self.window, samples=tuple(samples))


# ----------------------------------------------------------------------
# The snapshot
# ----------------------------------------------------------------------

@dataclass
class TelemetrySnapshot:
    """One run's complete telemetry: tree + metadata + intervals."""

    root: TelemetryNode
    meta: dict[str, Any] = field(default_factory=dict)
    intervals: IntervalSeries | None = None

    # -- convenience ----------------------------------------------------

    def flat_counters(self) -> dict[str, int]:
        """The legacy flat ``group.counter`` namespace."""
        return self.root.flat_counters()

    def node(self, *path: str) -> TelemetryNode | None:
        """Navigate from the root by child names (None when missing)."""
        node: TelemetryNode | None = self.root
        for name in path:
            if node is None:
                return None
            node = node.child(name)
        return node

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The versioned export schema (see ``docs/telemetry.md``)."""
        return {
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "root": self.root.to_dict(),
            "intervals": (self.intervals.to_dict()
                          if self.intervals is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TelemetrySnapshot":
        schema = payload.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported telemetry schema {schema!r} "
                f"(this build reads {SCHEMA!r})")
        intervals = payload.get("intervals")
        return cls(
            root=TelemetryNode.from_dict(payload["root"]),
            meta=dict(payload.get("meta", {})),
            intervals=(IntervalSeries.from_dict(intervals)
                       if intervals is not None else None),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TelemetrySnapshot":
        return cls.from_dict(json.loads(text))

    def counter_rows(self) -> list[list[Any]]:
        """``(component path, counter, value)`` rows for CSV export."""
        rows: list[list[Any]] = []
        for path, node in self.root.walk():
            for key in sorted(node.counters):
                rows.append([path, key, node.counters[key]])
        return rows

    @staticmethod
    def counter_headers() -> list[str]:
        return ["component", "counter", "value"]
