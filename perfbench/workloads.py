"""The benchmark's workloads: inputs, timed phases and correctness gate.

The simulated inputs are a fixed corpus sized by ``--seconds``; the
seed sets the schedule over it.  A workload object records wall-clock
intervals only; :mod:`perfbench.run` turns them into
normalized metrics through the :class:`~perfbench.hostclock.HostClock`
once the phase is over.

- ``fdip_server`` / ``nopf_server`` simulate the same ``gcc_like``
  traces (distinct walk seeds, stock latencies, 20% warm-up) under
  ``fdip_enqueue`` and ``none``.  Each trace is one *unit*: a timed
  ``simulate`` call whose result is then stored in a result cache (the
  *cold* request).  After each unit, results of units already stored are
  served back from that cache (the *hits*), as re-run grid points are.
- ``serve_mixed`` drives an in-process ``SimulationService`` as a closed
  loop over a Zipf-popular pool of distinct requests (see
  :class:`ServeWorkload`).

The correctness gate runs outside every timed interval.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import random
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.api as api
from repro.harness.techniques import technique_config
from repro.serve import ResultCache, SimulationService
from repro.sim.invariants import check_invariants
from repro.sim.serialize import result_to_json
from repro.spec import RunRequest
from repro.trace import Trace, TraceCache
from repro.workloads.suite import build_program, build_trace

from perfbench.hostclock import HostClock, now

__all__ = ["SimulationWorkload", "ServeWorkload", "Request", "Pass",
           "WORKLOADS", "plan_blocks"]

#: Set-up is repeated this many times; ``setup_s`` takes the median.
SETUP_REPS = 3
#: Hits are bracketed in groups of this many requests.
HIT_BRACKET = 16
#: Seconds the serve executor waits for the client to release a block.
GATE_TIMEOUT_S = 120.0


@dataclass
class Request:
    """One timed request: a cold unit, a cache hit or a coalesced one.

    ``start``/``end`` bound the client-visible latency; ``work`` is the
    simulate (or execute) interval inside a cold request, so
    ``work[0] - start`` is its queue wait.  ``layers`` holds the traced
    per-category totals spent inside the request.
    """

    kind: str
    index: int
    start: float
    end: float
    instructions: int = 0
    work: tuple[float, float] | None = None
    layers: dict | None = None


@dataclass
class Pass:
    """Everything one pass over the request plan produced."""

    requests: list[Request] = field(default_factory=list)
    #: wall intervals during which requests were in flight
    busy: list[tuple[float, float]] = field(default_factory=list)
    #: index -> serialized cold result, in the plan's index space
    cold_text: dict[int, str] = field(default_factory=dict)
    results: dict[int, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed_requests: set[int] = field(default_factory=set)
    global_failures: int = 0
    counters: dict = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over the canonical serialized results, index order."""
        sha = hashlib.sha256()
        for index in sorted(self.cold_text):
            sha.update(self.cold_text[index].encode("utf-8"))
        return sha.hexdigest()

    def fail(self, position: int | None, message: str) -> None:
        """Record a gate failure of one request (``None``: of the pass)."""
        self.failures.append(message)
        if position is None:
            self.global_failures += 1
        else:
            self.failed_requests.add(position)

    def failed(self, attempted: int) -> int:
        return min(attempted,
                   len(self.failed_requests) + self.global_failures)


def layer_delta(tracer, before: dict | None) -> dict | None:
    """Per-category tracer totals accrued since ``before``."""
    if tracer is None:
        return None
    after = tracer.snapshot()
    zero = (0, 0.0, 0.0)
    return {key: tuple(a - b for a, b in zip(value, before.get(key, zero)))
            for key, value in after.items()}


def _check_result(result, label: str, sink: Pass, position: int) -> None:
    problems = check_invariants(result, warmed_up=True)
    if problems:
        sink.fail(position, f"{label}: invariants violated: "
                            f"{'; '.join(problems)}")


class _Workload:
    """Shared set-up bookkeeping."""

    name = ""
    #: workloads of one family share their seeded schedule
    family = ""

    def __init__(self, seed: int, seconds: int, scratch: Path):
        self.scratch = scratch
        self.rng = random.Random(f"{self.family}:{seed}")
        #: (start, end) of each set-up repetition
        self.setup_reps: list[tuple[float, float]] = []
        #: (start, end) of one-off set-up steps (warm-up, service start)
        self.setup_once: list[tuple[float, float]] = []
        self.inputs_fingerprint = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def repeat_setup(self, clock: HostClock, build) -> object:
        """Run ``build`` :data:`SETUP_REPS` times, bracketed; every
        repetition must build identical inputs.  Only the last
        repetition's inputs are kept, so peak memory holds one set."""
        fingerprint = built = None
        for _ in range(SETUP_REPS):
            built = None
            clock.bracket()
            start = now()
            built = build()
            end = now()
            self.setup_reps.append((start, end))
            if fingerprint is None:
                fingerprint = self.fingerprint(built)
            elif self.fingerprint(built) != fingerprint:
                raise RuntimeError(
                    f"{self.name}: set-up built different inputs on "
                    f"repetition {len(self.setup_reps)}")
        clock.bracket()
        self.inputs_fingerprint = fingerprint
        return built

    def stop_service(self) -> None:
        """Stop the workload's service, if it has one."""

    def restart_service(self) -> None:
        """Start a fresh, warm service for another pass, if it has one."""

    def timed_once(self, clock: HostClock, step) -> None:
        start = now()
        step()
        end = now()
        clock.bracket()
        self.setup_once.append((start, end))


class SimulationWorkload(_Workload):
    """Shared ``gcc_like`` traces under one prefetching technique.

    Units per run scale with ``--seconds`` (about
    :data:`UNITS_PER_SECOND` at nominal host speed).  The trace corpus
    is fixed -- walk seeds ``1..units`` -- and the seed sets the
    schedule: the order of the units, which stored results each hit
    reads, and which unit the naive engine re-simulates.  A 20 000
    instruction walk of ``gcc_like`` covers only a handful of handler
    invocations, so IPC differs by up to 20% from one random set of
    sixteen walks to the next; with a fixed corpus, IPC and the digest
    are identical across seeds and time spread is host noise alone.
    ``fdip_server`` and ``nopf_server`` simulate the same traces, so
    their IPC ratio is the FDIP speedup on them.
    """

    family = "gcc_like-server"
    WORKLOAD = "gcc_like"
    TRACE_LENGTH = 20_000
    WARMUP = TRACE_LENGTH // 5
    UNITS_PER_SECOND = 1.6
    MIN_UNITS = 4
    #: Cache hits served after each unit (960 at --seconds 10, so the
    #: hit tail is p95 with ~48 samples beyond it).
    HIT_REPEATS = 60

    def __init__(self, name: str, technique: str, seed: int, seconds: int,
                 scratch: Path):
        self.name = name
        super().__init__(seed, seconds, scratch)
        self.technique = technique
        units = max(self.MIN_UNITS, round(seconds * self.UNITS_PER_SECOND))
        self.walk_seeds = list(range(1, units + 1))
        order = self.rng.sample(range(units), units)
        #: (unit, units whose results are served right after it); hits
        #: draw from the units already stored, spread over the pass.
        self.plan = [(unit, [order[self.rng.randrange(position + 1)]
                             for _ in range(self.HIT_REPEATS)])
                     for position, unit in enumerate(order)]
        self.naive_unit = self.rng.randrange(units)
        self.config = technique_config(technique).replace(
            warmup_instructions=self.WARMUP)
        self.traces: list[Trace] = []

    def request(self, index: int) -> RunRequest:
        return RunRequest(workload=self.WORKLOAD, config=self.config,
                          trace_length=self.TRACE_LENGTH,
                          seed=self.walk_seeds[index])

    def build_inputs(self) -> list[Trace]:
        program = build_program(self.WORKLOAD)
        return [Trace.from_program(program, self.TRACE_LENGTH, seed=seed,
                                   name=self.WORKLOAD)
                for seed in self.walk_seeds]

    @staticmethod
    def fingerprint(traces: list[Trace]) -> int:
        """In-process identity of a trace set (equal sets hash equal)."""
        return hash(tuple(tuple(trace.records) for trace in traces))

    def setup(self, clock: HostClock) -> None:
        self.traces = self.repeat_setup(clock, self.build_inputs)
        warm = self.traces[0].slice(0, 2_000)
        self.timed_once(clock, lambda: api.simulate(
            warm, self.config.replace(warmup_instructions=400)))

    def traced_setup(self, tracer) -> None:
        """One set-up repetition under the tracer (not kept)."""
        with tracer.span("setup"):
            built = self.build_inputs()
        if self.fingerprint(built) != self.inputs_fingerprint:
            raise RuntimeError(f"{self.name}: traced set-up built "
                               f"different inputs")

    def run_pass(self, clock: HostClock, tracer=None) -> Pass:
        out = Pass()
        cache = ResultCache(self.fresh_dir("results-"))
        requests = [api.resolve_request(self.request(index))
                    for index in range(len(self.traces))]
        for index, hit_indices in self.plan:
            trace = self.traces[index]
            clock.bracket()
            if tracer is not None:
                tracer.request = f"unit-{index}"
                before = tracer.snapshot()
            with tracer.span("unit") if tracer else nullcontext():
                start = now()
                result = api.simulate(trace, self.config)
                simulated = now()
                cache.put(requests[index], result)
                end = now()
            clock.bracket()
            out.requests.append(Request(
                "cold", index, start, end, instructions=len(trace),
                work=(start, simulated),
                layers=layer_delta(tracer, before if tracer else None)))
            out.results[index] = result
            _check_result(result, f"unit {index}", out, len(out.requests) - 1)
            out.cold_text[index] = result_to_json(result)
            # The hits run back to back; they are checked after the
            # group's closing bracket, outside every timed interval.
            group = []
            for hit in hit_indices:
                if tracer is not None:
                    tracer.request = f"hit-{len(out.requests)}"
                    before = tracer.snapshot()
                clock.hold()
                start = now()
                got = cache.get(api.resolve_request(self.request(hit)))
                end = now()
                clock.release()
                group.append((len(out.requests), got))
                out.requests.append(Request(
                    "hit", hit, start, end,
                    layers=layer_delta(tracer, before if tracer else None)))
            clock.bracket()
            for position, got in group:
                hit = out.requests[position].index
                if got is None or result_to_json(got) != out.cold_text[hit]:
                    out.fail(position, f"request {position} (a hit of unit "
                                       f"{hit}) differs from its cold result")
        out.busy = [(r.start, r.end) for r in out.requests]
        return out

    def check_naive(self, out: Pass) -> None:
        """Re-simulate one unit with the naive loop; must be identical."""
        index = self.naive_unit
        result = api.simulate(self.traces[index], self.config,
                              engine="naive")
        if result_to_json(result) != out.cold_text[index]:
            out.fail(index, f"unit {index}: the naive loop and the event "
                            f"engine disagree")

    @property
    def attempted(self) -> int:
        return len(self.walk_seeds) * (1 + self.HIT_REPEATS)


def plan_blocks(sequence: list[int], window: int) -> list[list[tuple]]:
    """Split a request sequence into client blocks.

    A block holds at most ``window`` outstanding submissions and at most
    one request whose key has never completed (the *cold* primary);
    repeats of that key in the same block coalesce onto it, and keys
    completed in earlier blocks are cache hits.  Returns, per block, a
    list of ``(position, pool index, kind)``.
    """
    done: set[int] = set()
    blocks = []
    position = 0
    while position < len(sequence):
        block: list[tuple] = []
        cold = None
        while position < len(sequence) and len(block) < window:
            index = sequence[position]
            if index in done:
                kind = "hit"
            elif cold is None:
                cold, kind = index, "cold"
            elif index == cold:
                kind = "coalesced"
            else:
                break
            block.append((position, index, kind))
            position += 1
        if cold is not None:
            done.add(cold)
        blocks.append(block)
    return blocks


class ServeWorkload(_Workload):
    """A closed-loop client of an in-process ``SimulationService``.

    The pool is fixed: every (workload, technique, walk seed) combination
    below.  The seed draws the request sequence from it, Zipf-popular,
    and picks the request the naive engine re-runs.  One client keeps up
    to :data:`WINDOW` submissions outstanding (see :func:`plan_blocks`);
    the service's executor waits until the client has submitted the
    whole block, so coalescing, hits and simulations follow the plan
    exactly and no hit is timed while a simulation holds the
    interpreter.  Set-up prebuilds the pool's traces into a fresh trace
    cache; the first occurrence of a request then reads its trace,
    simulates and writes the result, and every repeat is served from
    the result cache.
    """

    name = family = "serve_mixed"
    # Small programs: cheap to generate (set-up builds every trace three
    # times) and with little IPC variation from one walk to the next.
    POOL_WORKLOADS = ("compress_like", "li_like", "m88ksim_like")
    # Nine (workload, technique) groups, an odd count, so the median
    # cold request falls inside a group rather than on the gap between
    # the two middle groups.
    POOL_TECHNIQUES = ("none", "nlp", "fdip_enqueue")
    POOL_SEEDS = 3
    TRACE_LENGTH = 12_000
    WARMUP = TRACE_LENGTH // 5
    WARM_LENGTH = 1_000
    ZIPF_S = 1.0
    WINDOW = 4
    # About 980 requests at --seconds 10, so fewer than 1 000 hits: the
    # hit tail is then p95 with ~47 samples beyond it.  From 1 000 hits
    # on it would be p99 with ~10 beyond, which flipped between the hits
    # that absorb a generation-1 collection and those that do not.
    REQUESTS_PER_SECOND = 98
    MIN_REQUESTS = 200

    def __init__(self, seed: int, seconds: int, scratch: Path):
        super().__init__(seed, seconds, scratch)
        walk_seeds = range(1, self.POOL_SEEDS + 1)
        # Popularity follows pool order, which cycles through every
        # (workload, technique) pair before the next walk seed, so the
        # mix of result kinds among the popular requests -- and with it
        # the hit cost -- does not depend on the seed.
        self.pool = [
            RunRequest(workload=workload,
                       config=technique_config(technique).replace(
                           warmup_instructions=self.WARMUP),
                       trace_length=self.TRACE_LENGTH, seed=walk_seed,
                       label=f"{workload}/{technique}/{walk_seed}")
            for walk_seed in walk_seeds
            for workload in self.POOL_WORKLOADS
            for technique in self.POOL_TECHNIQUES]
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(len(self.pool))]
        count = max(self.MIN_REQUESTS,
                    round(seconds * self.REQUESTS_PER_SECOND))
        self.sequence = self.rng.choices(range(len(self.pool)), weights,
                                         k=count)
        self.blocks = plan_blocks(self.sequence, self.WINDOW)
        self.naive_index = self.rng.choice(sorted(set(self.sequence)))
        self.warm_request = RunRequest(
            workload=self.POOL_WORKLOADS[0],
            config=self.pool[0].config.replace(warmup_instructions=200),
            trace_length=self.WARM_LENGTH, seed=1, label="warm-up")
        self.trace_dir: Path | None = None
        self.service: SimulationService | None = None
        self._gate_open = threading.Event()
        self._gate_open.set()
        self._executions: dict[str, tuple[float, float]] = {}
        self._worker_tid: int | None = None

    # -- set-up -----------------------------------------------------------

    def trace_identities(self) -> list[tuple[str, int, int]]:
        identities = {(r.workload, r.trace_length, r.seed)
                      for r in self.pool}
        identities.add((self.warm_request.workload,
                        self.warm_request.trace_length,
                        self.warm_request.seed))
        return sorted(identities)

    def build_inputs(self) -> Path:
        directory = self.fresh_dir("traces-")
        cache = TraceCache(directory)
        for workload, length, seed in self.trace_identities():
            build_trace(workload, length, seed=seed, cache=cache)
        return directory

    @staticmethod
    def fingerprint(directory: Path) -> dict[str, str]:
        """Digest of every cached trace, decompressed (the gzip header
        carries a timestamp)."""
        return {path.name: hashlib.sha256(
                    gzip.decompress(path.read_bytes())).hexdigest()
                for path in sorted(directory.glob("*.trace.gz"))}

    def setup(self, clock: HostClock) -> None:
        self.trace_dir = self.repeat_setup(clock, self.build_inputs)
        os.environ["REPRO_TRACE_CACHE"] = str(self.trace_dir)
        self.timed_once(clock, self.start_service)
        self.timed_once(clock, self.warm_up)

    def traced_setup(self, tracer) -> None:
        with tracer.span("setup"):
            built = self.build_inputs()
        if self.fingerprint(built) != self.inputs_fingerprint:
            raise RuntimeError("serve_mixed: traced set-up built "
                               "different traces")

    def start_service(self) -> None:
        self.service = SimulationService(
            ResultCache(self.fresh_dir("results-")), workers=1,
            max_queue_depth=self.WINDOW, executor=self._execute)
        self.service.start()

    def warm_up(self) -> None:
        self.service.result(self.service.submit(self.warm_request),
                            timeout=GATE_TIMEOUT_S)

    def restart_service(self) -> None:
        self.start_service()
        self.warm_up()

    def stop_service(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True, timeout=GATE_TIMEOUT_S)
            self.service = None

    def _execute(self, request: RunRequest):
        """The service's executor: wait for the block, then execute."""
        if self._worker_tid != threading.get_native_id():
            # The service notifies every waiter on each completion, so a
            # cache hit wakes the idle worker; at the lowest priority it
            # does not preempt the client thread on their shared CPU.
            self._worker_tid = threading.get_native_id()
            try:
                os.setpriority(os.PRIO_PROCESS, self._worker_tid, 19)
            except (AttributeError, OSError):
                pass
        if not self._gate_open.wait(GATE_TIMEOUT_S):
            raise RuntimeError("the client never released its block")
        start = now()
        response = api.execute(request)
        self._executions[request.label] = (start, now())
        return response

    # -- the request phase -------------------------------------------------

    def run_pass(self, clock: HostClock, tracer=None) -> Pass:
        """One pass over the plan; the service must be fresh and warm."""
        out = Pass()
        service = self.service
        responses: dict[int, object] = {}
        self._executions.clear()
        clock.bracket()
        bracketed = True
        since_bracket = 0
        phase_start = now()
        for block in self.blocks:
            has_cold = any(kind == "cold" for _, _, kind in block)
            if has_cold:
                if not bracketed:
                    clock.bracket()
                self._gate_open.clear()
            pending = []
            for position, index, kind in block:
                if tracer is not None:
                    tracer.request = f"request-{position}"
                    before = tracer.snapshot()
                clock.hold()
                start = now()
                job = service.submit(self.pool[index])
                if kind == "hit":
                    responses[position] = service.result(job)
                end = now()
                clock.release()
                if kind == "hit":
                    out.requests.append(Request(
                        kind, index, start, end,
                        layers=layer_delta(tracer, before
                                           if tracer else None)))
                else:
                    pending.append((position, index, kind, start, job,
                                    before if tracer else None))
            if tracer is not None and pending:
                # The cold request's spans close on the worker thread
                # after the gate opens; label them with its id.
                tracer.request = f"request-{pending[0][0]}"
            self._gate_open.set()
            for position, index, kind, start, job, before in pending:
                responses[position] = service.result(
                    job, timeout=GATE_TIMEOUT_S)
                end = now()
                request = Request(kind, index, start, end,
                                  layers=layer_delta(tracer, before))
                if kind == "cold":
                    work = self._executions[self.pool[index].label]
                    request.work = work
                    request.instructions = self.TRACE_LENGTH
                    if tracer is not None:
                        tracer.request = f"request-{position}"
                        tracer.record_span("queue_wait", start, work[0])
                out.requests.append(request)
            since_bracket += len(block)
            bracketed = False
            if has_cold or since_bracket >= HIT_BRACKET:
                clock.bracket()
                bracketed = True
                since_bracket = 0
        out.busy = [(phase_start, now())]
        if not bracketed:
            clock.bracket()
        out.counters = service.stats()
        self._gate(out, responses)
        return out

    def expected_counters(self) -> dict[str, int]:
        """Service counters the plan implies (plus the warm-up request)."""
        kinds = [kind for block in self.blocks for _, _, kind in block]
        total = len(kinds) + 1
        return {"submitted": total, "completed": total, "failed": 0,
                "rejected": 0, "cache_hits": kinds.count("hit"),
                "coalesced": kinds.count("coalesced"),
                "simulations": kinds.count("cold") + 1}

    def _gate(self, out: Pass, responses: dict[int, object]) -> None:
        plan = [(position, index, kind) for block in self.blocks
                for position, index, kind in block]
        sources = {"cold": "computed", "hit": "cache",
                   "coalesced": "coalesced"}
        for position, index, kind in plan:
            if kind == "cold":
                result = responses[position].result
                out.results[index] = result
                out.cold_text[index] = result_to_json(result)
                _check_result(result, self.pool[index].label, out,
                              position)
        for position, index, kind in plan:
            response = responses[position]
            if response.source != sources[kind]:
                out.fail(position, f"request {position}: served from "
                         f"{response.source!r}, the plan says "
                         f"{sources[kind]!r}")
            elif kind != "cold" and result_to_json(response.result) != \
                    out.cold_text[index]:
                out.fail(position, f"request {position}: {kind} result "
                         f"differs from its cold result")
        expected = self.expected_counters()
        actual = {key: out.counters.get(key) for key in expected}
        if actual != expected:
            out.fail(None, f"service counters {actual} do not match the "
                           f"plan {expected}")

    def check_naive(self, out: Pass) -> None:
        """Re-run one pool request with the naive loop; must be identical."""
        index = self.naive_index
        result = api.execute(self.pool[index], engine="naive").result
        if result_to_json(result) != out.cold_text[index]:
            out.fail(None, f"{self.pool[index].label}: the naive loop and "
                           f"the event engine disagree")

    @property
    def attempted(self) -> int:
        return len(self.sequence)


def _fdip(seed, seconds, scratch):
    return SimulationWorkload("fdip_server", "fdip_enqueue", seed, seconds,
                              scratch)


def _nopf(seed, seconds, scratch):
    return SimulationWorkload("nopf_server", "none", seed, seconds, scratch)


#: workload name -> factory(seed, seconds, scratch directory)
WORKLOADS = {
    "fdip_server": _fdip,
    "nopf_server": _nopf,
    "serve_mixed": ServeWorkload,
}
