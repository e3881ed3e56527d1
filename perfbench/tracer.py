"""Outside-in tracing: wrap each layer's public entry points.

The traced run installs a timing wrapper around every entry point in
:data:`ENTRY_POINTS` *before any machine is built*, at class or module
level, so the event engine's hoisted locals (``prefetcher.tick``,
``fetch_engine.stats.bump``, ...) bind the wrappers.  A module-level
function is wrapped in the namespace that calls it (for example
``repro.sim.events.stall_proof``, not ``repro.sim.fastpath``).

Each wrapper counts its calls and accumulates its total and *self* time
(its own duration minus the wrapped calls it makes, and minus the
reference-kernel samples that ran inside it).  Entry points marked with
a span name also record a coarse span (name, start, end, parent span,
request id), kept in memory and written out once at the end.

An entry point that does not exist -- a later change renamed or removed
it -- is reported in :attr:`Tracer.absent` and skipped; it never stops
the run.  The wrappers share one timing stack, which is sound because
the benchmark never runs wrapped code in two threads at once (the serve
workload's executor waits for the client to finish submitting).
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["ENTRY_POINTS", "Tracer"]

now = time.perf_counter

#: (category, module, attribute path, span name or None).  ``*`` in the
#: attribute path stands for "every subclass of the named class that
#: defines the method itself"; ``@stock_predictor`` for the direction
#: predictor class a stock configuration builds.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("sim.run", "repro.sim.simulator", "Simulator.run", "simulate"),
    ("sim.stall_proof", "repro.sim.events", "stall_proof", None),
    ("frontend.fetch", "repro.frontend.fetch_engine", "FetchEngine.tick",
     None),
    ("frontend.predict", "repro.frontend.predict_unit", "PredictUnit.tick",
     None),
    ("ftb", "repro.ftb.ftb", "FetchTargetBuffer.lookup", None),
    ("bpred", "repro.bpred", "@stock_predictor.predict", None),
    ("bpred", "repro.bpred", "@stock_predictor.update", None),
    ("prefetch", "repro.prefetch.base", "Prefetcher*.tick", None),
    ("cpu", "repro.cpu.backend", "Backend.deliver", None),
    ("cpu", "repro.cpu.backend", "Backend.retire", None),
    ("stats.bump", "repro.stats.counters", "StatGroup.bump", None),
    ("memory", "repro.memory.hierarchy", "MemorySystem.begin_cycle", None),
    ("memory", "repro.memory.hierarchy", "MemorySystem.demand_fetch", None),
    ("memory", "repro.memory.hierarchy",
     "MemorySystem.try_issue_prefetch", None),
    ("memory", "repro.memory.hierarchy", "MemorySystem.cpf_probe", None),
    ("results.collect", "repro.sim.simulator",
     "Simulator.telemetry_snapshot", "collect"),
    ("results.collect", "repro.sim.results", "SimResult.from_snapshot",
     "collect"),
    ("cfg.generate", "repro.workloads.suite", "generate_program",
     "generate_program"),
    ("trace.walk", "repro.trace.stream", "Trace.from_program", "trace_walk"),
    ("trace.read", "repro.trace.cache", "read_trace", "trace_read"),
    ("trace.write", "repro.trace.cache", "write_trace", "trace_write"),
    ("spec.resolve", "repro.serve.service", "resolve_request", None),
    ("spec.resolve", "repro.api", "resolve_request", None),
    ("cachekey", "repro.spec", "cache_key", None),
    ("cachekey", "repro.harness.persist", "cache_key", None),
    ("persist.read", "repro.serve.cache", "ResultCache.get", "load"),
    ("persist.write", "repro.serve.cache", "ResultCache.put", "store"),
    ("serialize.to_dict", "repro.sim.serialize", "result_to_dict",
     "serialize"),
    ("serialize.from_dict", "repro.sim.serialize", "result_from_dict",
     "deserialize"),
    ("serve.submit", "repro.serve.service", "SimulationService.submit",
     "submit"),
    ("api.execute", "repro.api", "execute", "execute"),
)


def _stock_predictor_class():
    from repro.bpred import make_direction_predictor
    from repro.config import SimConfig

    return type(make_direction_predictor(SimConfig().frontend.predictor))


def _subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Installs, records and removes the entry-point wrappers."""

    def __init__(self) -> None:
        #: category -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        #: (skipped cycles or None, cycles) per finished Simulator.run
        self.runs: list[tuple[int | None, int]] = []
        self.request: str | None = None
        #: kernel-sample seconds taken while tracing
        self.stolen = 0.0
        self._stack: list[float] = []
        self._span_stack: list[int] = []
        self._span_ids = itertools.count(1)
        self._installed: list[tuple[type | object, str, object, bool]] = []

    # -- recording ------------------------------------------------------

    def _stat(self, category: str) -> list:
        return self.stats.setdefault(category, [0, 0.0, 0.0])

    def steal(self, seconds: float) -> None:
        """Charge ``seconds`` of foreign work (a kernel sample) as a
        child of the innermost wrapped call, out of its self time, and
        out of the totals of the span entry points around it."""
        self.stolen += seconds
        if self._stack:
            self._stack[-1] += seconds

    def _hot_wrapper(self, fn, stat):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return traced

    def _span_wrapper(self, fn, stat, span: str, is_run: bool):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self.open_span()
            stack.append(0.0)
            stolen = self.stolen
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                elapsed = end - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - (self.stolen - stolen)
                stat[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                self.close_span(span_id, span, start, end)
                if is_run and args:
                    sim = args[0]
                    self.runs.append((getattr(sim, "skipped_cycles", None),
                                      getattr(sim, "cycle", 0)))

        return traced

    def open_span(self) -> int:
        span_id = next(self._span_ids)
        self._span_stack.append(span_id)
        return span_id

    def close_span(self, span_id: int, name: str, start: float,
                   end: float) -> None:
        self._span_stack.remove(span_id)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append((span_id, parent, self.request, name, start, end))

    def record_span(self, name: str, start: float, end: float) -> None:
        """Record an already-finished span under the current parent."""
        self.close_span(self.open_span(), name, start, end)

    @contextmanager
    def span(self, name: str):
        """Record one benchmark-level span around the ``with`` body."""
        span_id = self.open_span()
        start = now()
        try:
            yield
        finally:
            self.close_span(span_id, name, start, now())

    def snapshot(self) -> dict[str, tuple]:
        """A copy of the per-category totals (for per-unit deltas)."""
        return {key: tuple(value) for key, value in self.stats.items()}

    # -- installation ---------------------------------------------------

    def _targets(self, module_name: str, path: str):
        """Yield (owner, attribute) pairs an entry point names."""
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            if not hasattr(module, attr):
                raise AttributeError(attr)
            yield module, attr
            return
        if owner_name == "@stock_predictor":
            owners = [_stock_predictor_class()]
        elif owner_name.endswith("*"):
            base = getattr(module, owner_name[:-1])
            owners = [cls for cls in _subclasses(base)[1:]
                      if attr in cls.__dict__]
        else:
            owners = [getattr(module, owner_name)]
        for owner in owners:
            if not hasattr(owner, attr):
                raise AttributeError(f"{owner.__name__}.{attr}")
            yield owner, attr

    def install(self) -> None:
        """Wrap every entry point that exists; record the rest absent."""
        for category, module_name, path, span in ENTRY_POINTS:
            label = f"{module_name}.{path}"
            try:
                targets = list(self._targets(module_name, path))
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            if not targets:
                self.absent.append(label)
            stat = self._stat(category)
            for owner, attr in targets:
                self._wrap(owner, attr, stat, span,
                           is_run=category == "sim.run")

    def _wrap(self, owner, attr: str, stat: list, span: str | None,
              is_run: bool) -> None:
        own = isinstance(owner, type) and attr in owner.__dict__
        raw = owner.__dict__[attr] if own else getattr(owner, attr)
        binder = None
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
            raw = raw.__func__
        if span is None:
            wrapped = self._hot_wrapper(raw, stat)
        else:
            wrapped = self._span_wrapper(raw, stat, span, is_run)
        if binder is not None:
            wrapped = binder(wrapped)
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        self._installed.append((owner, attr, original, own
                                or not isinstance(owner, type)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original, restore = self._installed.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the spans as a Chrome trace (loads in Perfetto)."""
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 1),
            "dur": round((end - start) * 1e6, 1),
            "args": {"id": span_id, "parent": parent, "request": request},
        } for span_id, parent, request, name, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
