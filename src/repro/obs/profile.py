"""Cycle-attribution profiler: which component ate each cycle?

:class:`CycleProfiler` is an opt-in (``SimConfig(profile=True)``)
observer the simulator consults once per simulated cycle.  It
classifies the cycle into exactly one cause bucket, attributed to the
component responsible, so the buckets **sum to the measured cycle
count** — the per-structure cycle budget that "where did the fetch
cycles go" figures are built from:

===============  ==============  =======================================
bucket           component       the cycle was spent...
===============  ==============  =======================================
active           fetch           delivering instructions
icache_miss      memory.l1i      waiting on an L1-I fill
bpred_redirect   predict         recovering from a mispredicted branch
ftb_l2_wait      ftb             waiting on an L2-FTB promotion
predict_lag      predict         FTQ empty, prediction merely behind
drained          trace           FTQ empty, trace exhausted (run tail)
window_full      backend         backend window back-pressure
mshr_full        memory.mshrs    a demand miss blocked on MSHR space
other            sim             none of the above (residue)
===============  ==============  =======================================

The classifier reads only machine state that the event engine's stall
proof pins inside a jumped idle window (see ``sim/events.py``), so a
jumped window of ``n`` cycles is attributed with one ``observe(n)``
call to exactly the bucket each of its cycles would have landed in
under the naive loop — profiles are **identical under both cycle
engines**, and profiling never perturbs the simulation (the profile
lives outside the telemetry snapshot, so ``SimResult`` stays
bit-identical with profiling on or off).

``bus_busy`` is reported alongside as an *overlapping* metric (a bus
transfer proceeds under cycles attributed elsewhere), taken from the
bus's own cycle counter rather than sampled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ObservabilityError

if TYPE_CHECKING:
    from repro.config import SimConfig
    from repro.sim.results import SimResult  # noqa: F401
    from repro.spec import RunResponse
    from repro.trace import Trace

__all__ = ["PROFILE_SCHEMA", "CATEGORIES", "CycleProfiler", "profile_run"]

PROFILE_SCHEMA = "repro.profile/v1"

#: (bucket, owning component path) in reporting order.
CATEGORIES = (
    ("active", "fetch"),
    ("icache_miss", "memory.l1i"),
    ("bpred_redirect", "predict"),
    ("ftb_l2_wait", "ftb"),
    ("predict_lag", "predict"),
    ("drained", "trace"),
    ("window_full", "backend"),
    ("mshr_full", "memory.mshrs"),
    ("other", "sim"),
)

_COMPONENT_OF = dict(CATEGORIES)


class CycleProfiler:
    """Per-cycle cause accounting over one simulator's component tree."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {name: 0 for name, _ in CATEGORIES}

    # ------------------------------------------------------------------
    # Observation (the per-cycle hot path)
    # ------------------------------------------------------------------

    @staticmethod
    def classify(sim, fetched: bool) -> str:
        """The cause bucket for the cycle that just completed.

        Priority mirrors the fetch engine's one-counter-per-cycle
        accounting (fetch state first, then the prediction unit's
        reason the FTQ is empty), evaluated on end-of-cycle state —
        which the stall proof pins constant across a jumped window.
        """
        if fetched:
            return "active"
        if sim.fetch_engine.waiting_until is not None:
            return "icache_miss"
        if sim.ftq.head() is None:
            predict = sim.predict_unit
            if predict.awaiting_resolution:
                return "bpred_redirect"
            if predict.ftb_wait_until is not None:
                return "ftb_l2_wait"
            if predict.out_of_records:
                return "drained"
            return "predict_lag"
        if sim.backend.free_slots <= 0:
            return "window_full"
        if sim.memory.mshrs.full:
            return "mshr_full"
        if sim.predict_unit.awaiting_resolution:
            # FTQ holds wrong-path work while the mispredicted branch
            # resolves; charge the cycle to the redirect, not "other".
            # (_resolve_at bounds every jump, so this state is pinned
            # inside one — see sim/events.py.)
            return "bpred_redirect"
        return "other"

    def observe(self, sim, fetched: bool, cycles: int = 1) -> None:
        """Attribute ``cycles`` end-of-cycle observations of ``sim``."""
        self.counts[self.classify(sim, fetched)] += cycles

    def reset(self) -> None:
        """Zero the accounting (measurement-region boundary)."""
        for name in self.counts:
            self.counts[name] = 0

    # ------------------------------------------------------------------
    # Checkpoint round trip
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        return dict(self.counts)

    def load_state_dict(self, state: dict) -> None:
        unknown = sorted(set(state) - set(self.counts))
        if unknown:
            raise ObservabilityError(
                f"profile snapshot has unknown bucket {unknown[0]!r}")
        for name in self.counts:
            self.counts[name] = int(state.get(name, 0))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def report(self, *, meta: dict | None = None,
               bus_busy: int | None = None) -> dict:
        """The profile as a JSON-compatible, schema-tagged document.

        ``buckets`` is the exclusive per-cause accounting (sums to
        ``cycles``); ``components`` regroups the same cycles by owning
        component; ``overlap`` carries non-exclusive concurrency
        metrics (currently the bus's busy cycles).
        """
        components: dict[str, dict[str, int]] = {}
        for name, component in CATEGORIES:
            if self.counts[name]:
                components.setdefault(component, {})[name] = \
                    self.counts[name]
        document = {
            "schema": PROFILE_SCHEMA,
            "cycles": self.total,
            "buckets": dict(self.counts),
            "components": components,
        }
        if bus_busy is not None:
            document["overlap"] = {"bus_busy": int(bus_busy)}
        if meta:
            document["meta"] = dict(meta)
        return document

    def rows(self) -> list[list[object]]:
        """``[component, cause, cycles, fraction]`` table rows."""
        total = max(self.total, 1)
        return [[component, name, self.counts[name],
                 self.counts[name] / total]
                for name, component in CATEGORIES
                if self.counts[name] > 0]


def profile_run(trace: "Trace", config: "SimConfig | None" = None, *,
                name: str | None = None,
                engine: str | None = None,
                ) -> "RunResponse":
    """Simulate ``trace`` with profiling on; return a typed response.

    The returned :class:`~repro.spec.RunResponse` carries the
    :class:`~repro.sim.results.SimResult` on ``.result`` and the
    :meth:`CycleProfiler.report` document for the measured region on
    ``.profile`` — its buckets sum to ``result.cycles`` — and the
    result itself is bit-identical to an unprofiled run of the same
    configuration.

    Routed through the shared :func:`~repro.spec.resolve_request`
    normalization, like every other run entry point.
    """
    from repro.api import execute
    from repro.spec import resolve_request

    request = resolve_request(
        workload=trace.name or "trace", config=config,
        trace_length=len(trace), seed=trace.seed, label=name)
    return execute(request, trace=trace, profile=True, engine=engine)
