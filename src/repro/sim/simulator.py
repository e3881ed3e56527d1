"""The cycle-level simulator: wires the front end, memory, and backend.

Per-cycle schedule (one iteration of :meth:`Simulator.run`):

1. memory: complete fills due this cycle, reset the tag-port budget;
2. backend: retire completed instructions (frees window slots);
3. resolution: if the pending mispredicted branch resolves this cycle,
   squash (FTQ, PIQ, in-progress fetch) and redirect the prediction unit;
4. fetch engine: one demand access, deliver instructions;
5. prediction unit: produce one fetch block into the FTQ;
6. prefetch engine: scan/filter/issue.

The run ends when every trace record has retired.  ``warmup_instructions``
resets all statistics once that many instructions have retired, so reported
numbers cover only the measured region (caches, predictors, and the FTB
stay warm).
"""

from __future__ import annotations

import io
import pickle
from typing import Callable

from repro.bpred import ReturnAddressStack, make_direction_predictor
from repro.component import Component
from repro.config import DEFAULT_ENGINE, ENGINES, SimConfig
from repro.cpu import Backend
from repro.errors import ConfigError, SimulationError, WatchdogStallError
from repro.frontend import FetchEngine, FetchTargetQueue, FTQEntry, \
    PredictUnit
from repro.ftb import FetchTargetBuffer, TwoLevelFTB
from repro.memory import MemorySystem
from repro.memory.hierarchy import MemoryStats
from repro.obs import events as obs_events
from repro.obs.profile import CycleProfiler
from repro.prefetch import make_prefetcher
from repro.sim.events import run_event_loop
from repro.sim.results import SimResult
from repro.stats import IntervalSampler, IntervalSeries, \
    RunLengthObserver, StatGroup, TelemetryNode, TelemetrySnapshot
from repro.trace import Trace

__all__ = ["Simulator"]

_DEFAULT_CYCLE_CAP_PER_INSTR = 200


def _cut_trace(trace: Trace, config: SimConfig) -> tuple[list, Trace]:
    """Cut ``trace`` as ``config`` asks: (fast-forward records, the rest)."""
    if config.fast_forward_instructions <= 0:
        return [], trace
    cut = min(config.fast_forward_instructions, len(trace) - 1)
    return trace.records[:cut], trace.slice(cut, len(trace))


def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return engine


def _check_watchdog(watchdog_interval: int) -> int:
    if watchdog_interval < 0:
        raise ConfigError("watchdog_interval must be >= 0")
    return watchdog_interval


def _run_trace() -> Trace:
    """What a machine snapshot stores in place of the run's trace.

    :meth:`Simulator.restore` resolves it to the resuming run's trace;
    reaching this body means the snapshot was unpickled some other way.
    """
    raise SimulationError("machine snapshots load through Simulator.restore")


class _SnapshotPickler(pickle.Pickler):
    """Pickles a machine, storing its trace by reference.

    ``reducer_override`` runs only for objects pickle has no built-in
    handling for, far fewer than ``persistent_id``'s every object.
    """

    def __init__(self, file, trace: Trace):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._trace = trace

    def reducer_override(self, obj):
        if obj is self._trace:
            return _run_trace, ()
        return NotImplemented


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickles a machine against the resuming run's trace."""

    def __init__(self, file, trace: Trace):
        super().__init__(file)
        self._trace = trace

    def find_class(self, module: str, name: str):
        if module == __name__ and name == _run_trace.__name__:
            trace = self._trace
            return lambda: trace
        return super().find_class(module, name)


class SimStats(StatGroup):
    """The simulator's own counters (the ``sim`` root node)."""

    __slots__ = ("fast_forwarded", "squashes")


class Simulator:
    """One configured machine, ready to run one trace.

    Everything beyond the trace and config is keyword-only and says how
    the run executes, never what it computes:

    - ``name`` labels the result (defaults to the trace's name);
    - ``tracer`` attaches a per-cycle pipeline tracer (forces the
      naive loop — a tracer observes every cycle by definition);
    - ``engine`` picks the cycle loop: ``"event"`` (the default) or
      ``"naive"``.  Both are bit-identical (see
      ``docs/performance.md``, "Engine selection");
    - ``profile`` attaches the cycle-attribution profiler read by
      :meth:`profile_report` (see :mod:`repro.obs.profile`);
    - ``watchdog_interval`` raises
      :class:`~repro.errors.WatchdogStallError` with a state dump when
      no instruction retires for that many consecutive cycles, instead
      of spinning until the cycle cap (0, the default, disables it).

    :meth:`checkpoint_every` hands a sink machine snapshots during the
    run; :meth:`restore` rebuilds a machine from one.
    """

    def __init__(self, trace: Trace, config: SimConfig, *,
                 name: str | None = None, tracer=None,
                 engine: str = DEFAULT_ENGINE, profile: bool = False,
                 watchdog_interval: int = 0):
        warm_records, trace = _cut_trace(trace, config)
        self.trace = trace
        self.config = config
        self.name = name or trace.name
        self.stats = SimStats("sim")

        predictor_cfg = config.frontend.predictor
        self.predictor = make_direction_predictor(predictor_cfg)
        self.ras = ReturnAddressStack(predictor_cfg.ras_depth)
        if predictor_cfg.ftb_l2_sets:
            self.ftb = TwoLevelFTB(
                predictor_cfg.ftb_sets, predictor_cfg.ftb_ways,
                predictor_cfg.ftb_l2_sets, predictor_cfg.ftb_l2_ways,
                predictor_cfg.ftb_l2_latency)
        else:
            self.ftb = FetchTargetBuffer(predictor_cfg.ftb_sets,
                                         predictor_cfg.ftb_ways)
        self.ftq = FetchTargetQueue(config.frontend.ftq_depth)
        self.memory = MemorySystem(
            config.memory,
            prefetch_fill_to_l1=config.prefetch.fill_l1_directly)
        self.prefetcher = make_prefetcher(config, self.memory)
        self.memory.sidecar = self.prefetcher.sidecar
        self.backend = Backend(config.core)
        self.predict_unit = PredictUnit(self.trace, self.ftb, self.predictor,
                                        self.ras, config.frontend)
        self.fetch_engine = FetchEngine(
            self.trace, self.memory, self.ftq, self.backend, self.prefetcher,
            config.core, self._schedule_resolution)

        self.cycle = 0
        self.tracer = tracer
        self.engine = _check_engine(engine)
        self.watchdog_interval = _check_watchdog(watchdog_interval)
        self.skipped_cycles = 0   # diagnostics only; not a statistic
        # Opt-in cycle-attribution profiler (see repro/obs/profile.py).
        # It lives outside the telemetry tree on purpose: SimResult
        # stays bit-identical with profiling on or off.
        self.profiler = CycleProfiler() if profile else None
        self._resolve_at: int | None = None
        self._resolve_entry: FTQEntry | None = None
        self._warmed = config.warmup_instructions == 0
        self._measure_start_cycle = 0
        self._measure_start_retired = 0
        # In-run checkpointing (see checkpoint_every).
        self.checkpoint_interval = 0
        self.checkpoint_sink: Callable[[dict], None] | None = None
        # The occupancy observer and interval sampler a restored
        # machine's run continues with (see restore()).
        self._resumed: tuple[RunLengthObserver,
                             IntervalSampler | None] | None = None
        if warm_records:
            self._fast_forward(warm_records)

    @classmethod
    def restore(cls, trace: Trace, config: SimConfig, machine: bytes, *,
                engine: str = DEFAULT_ENGINE,
                watchdog_interval: int = 0) -> "Simulator":
        """Rebuild the machine a checkpoint snapshot captured.

        ``machine`` is the ``"machine"`` entry of a snapshot handed to
        a :meth:`checkpoint_every` sink; ``trace`` and ``config`` must be the
        ones that produced it (the checkpoint manager enforces this via
        identity metadata).  The next :meth:`run` continues from the
        captured cycle and returns a bit-identical :class:`SimResult`.

        ``engine`` and ``watchdog_interval`` mean what they mean to the
        constructor; snapshots need a new :meth:`checkpoint_every`.  A
        profiler, when the snapshotted run had one, is part of the
        machine and keeps counting.
        """
        _, trace = _cut_trace(trace, config)
        sim, occupancy, sampler = _SnapshotUnpickler(
            io.BytesIO(machine), trace).load()
        sim.config = config
        sim.engine = _check_engine(engine)
        sim.watchdog_interval = _check_watchdog(watchdog_interval)
        sim._resumed = occupancy, sampler
        return sim

    def checkpoint_every(self, interval: int,
                         sink: Callable[[dict], None]) -> None:
        """Hand ``sink`` a machine snapshot every ``interval`` cycles.

        Each snapshot is a consistent end-of-cycle state (see
        :meth:`_checkpoint`); a run resumed from any of them through
        :meth:`restore` is bit-identical to an uninterrupted run (see
        ``docs/robustness.md``).
        """
        if interval < 1:
            raise ConfigError(
                f"checkpoint interval must be >= 1, got {interval}")
        self.checkpoint_interval = interval
        self.checkpoint_sink = sink

    def __getstate__(self) -> dict:
        # A snapshot holds the machine, not where its run reports to.
        state = self.__dict__.copy()
        state["checkpoint_sink"] = None
        state["tracer"] = None
        return state

    # ------------------------------------------------------------------

    def _fast_forward(self, records: list) -> None:
        """Functionally warm caches, FTB, and predictor (no timing).

        Approximates what a timed warm-up would leave behind: every
        touched block resident in L1-I/L2 (subject to capacity), the FTB
        trained on taken control transfers with fetch-block starts
        tracked the way the prediction unit partitions blocks, and the
        direction predictor trained on every conditional.  Statistics
        are reset afterwards so the measured region starts clean.
        """
        from repro.ftb import FTBEntry
        from repro.isa import BRANCH_COND, INSTRUCTION_BYTES, RETURN

        block_bytes = self.memory.block_bytes
        cap_bytes = self.config.frontend.max_fetch_block \
            * INSTRUCTION_BYTES
        history = 0
        history_mask = (1 << self.config.frontend.predictor
                        .history_bits) - 1
        l1i, l2 = self.memory.l1i, self.memory.l2
        predictor, ftb = self.predictor, self.ftb
        block_start = records[0].pc

        for record in records:
            bid = record.pc // block_bytes
            if not l1i.contains(bid):
                l1i.fill(bid)
                l2.fill(bid)
            kind = record.kind
            if kind == BRANCH_COND:
                predictor.update(record.pc, history, record.taken)
                history = ((history << 1) | int(record.taken)) \
                    & history_mask
            if record.next_pc != record.pc + INSTRUCTION_BYTES:
                target = None if kind == RETURN else record.next_pc
                ftb.install(FTBEntry(
                    start=block_start,
                    fallthrough=record.pc + INSTRUCTION_BYTES,
                    target=target, kind=kind))
                block_start = record.next_pc
            elif record.pc + INSTRUCTION_BYTES - block_start >= cap_bytes:
                block_start = record.next_pc

        self._reset_stats()
        self.stats.fast_forwarded += len(records)

    def _schedule_resolution(self, entry: FTQEntry, resolve_at: int) -> None:
        if self._resolve_entry is not None:
            raise SimulationError(
                "two unresolved mispredictions in flight; the front end "
                "should have been down the wrong path")
        self._resolve_entry = entry
        self._resolve_at = resolve_at

    def _squash_and_redirect(self) -> None:
        entry = self._resolve_entry
        self._resolve_entry = None
        self._resolve_at = None
        self.ftq.clear()
        self.fetch_engine.squash()
        self.backend.flush_wrong_path()
        self.prefetcher.squash()
        self.predict_unit.on_resolve(entry)
        self.stats.squashes += 1

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate until the whole trace has retired."""
        total = len(self.trace)
        warmup = min(self.config.warmup_instructions, max(0, total - 1))
        max_cycles = self.config.max_cycles
        if max_cycles is None:
            max_cycles = _DEFAULT_CYCLE_CAP_PER_INSTR * total + 100_000

        # A tracer observes every cycle; it forces the naive loop.
        engine = self.engine if self.tracer is None else "naive"
        tracer = self.tracer
        profiler = self.profiler
        memory = self.memory
        mem_stats = memory.stats
        backend = self.backend
        fetch_engine = self.fetch_engine
        predict_unit = self.predict_unit
        prefetcher = self.prefetcher
        ftq = self.ftq

        window = self.config.telemetry_window
        if self._resumed is not None:
            # Resuming from a checkpoint: continue the in-progress
            # occupancy run and series instead of anchoring fresh ones.
            occupancy, sampler = self._resumed
            self._resumed = None
        else:
            occupancy = RunLengthObserver(
                self.stats.histogram("ftq_occupancy"))
            sampler = IntervalSampler(window, origin=self.cycle,
                                      base_retired=backend.retired) \
                if window > 0 else None

        interval = self.checkpoint_interval
        next_ckpt = (self.cycle + interval
                     if interval > 0 and self.checkpoint_sink is not None
                     else None)
        watchdog = self.watchdog_interval

        obs_events.emit("run_start", data={
            "name": self.name, "engine": engine,
            "cycle": self.cycle, "instructions": total,
            "resumed": self.cycle > 0})

        if engine == "event":
            occupancy, sampler = run_event_loop(
                self, total=total, warmup=warmup, max_cycles=max_cycles,
                occupancy=occupancy, sampler=sampler, next_ckpt=next_ckpt,
                watchdog=watchdog)
            return self._finish(occupancy, sampler, mem_stats)

        # The naive loop: the reference semantics the event engine must
        # reproduce bit for bit.  A resume restarts the watchdog's
        # interval at the resume point.
        progress_cycle = self.cycle
        progress_retired = backend.retired
        while backend.retired < total:
            self.cycle += 1
            cycle = self.cycle
            if cycle > max_cycles:
                raise self._cycle_cap_error(max_cycles, total)
            memory.begin_cycle(cycle)
            backend.retire(cycle)
            if self._resolve_at is not None and cycle >= self._resolve_at:
                self._squash_and_redirect()
            fetched = fetch_engine.tick(cycle)
            predict_unit.tick(cycle, ftq)
            prefetcher.tick(cycle, ftq)
            occ = ftq.occupancy()
            occupancy.observe(occ)
            if sampler is not None:
                sampler.advance(cycle, occ, backend.retired,
                                mem_stats.demand_misses)
            if profiler is not None:
                # End-of-cycle classification; inside an event-engine
                # jump this state is pinned, so _apply_skip attributes
                # the whole window with one observe(n) call.
                profiler.observe(self, bool(fetched))
            if tracer is not None:
                tracer.record(cycle, self)

            if not self._warmed and backend.retired >= warmup:
                occupancy, sampler = self._end_warmup(occupancy, sampler)
            if watchdog > 0:
                if backend.retired > progress_retired:
                    progress_retired = backend.retired
                    progress_cycle = cycle
                elif cycle - progress_cycle >= watchdog:
                    raise self._watchdog_stall(watchdog)
            if next_ckpt is not None and cycle >= next_ckpt:
                next_ckpt = self._checkpoint(occupancy, sampler)

        return self._finish(occupancy, sampler, mem_stats)

    # ------------------------------------------------------------------
    # Run bookkeeping shared by both loops.  Each runs only when its
    # rule fires, so neither loop pays a call per simulated cycle.
    # ------------------------------------------------------------------

    def _cycle_cap_error(self, max_cycles: int,
                         total: int) -> SimulationError:
        """The error a loop raises on passing the cycle cap."""
        return SimulationError(
            f"cycle cap exceeded ({max_cycles}); retired "
            f"{self.backend.retired}/{total} — likely a deadlock")

    def _end_warmup(self, occupancy: RunLengthObserver,
                    sampler: IntervalSampler | None,
                    ) -> tuple[RunLengthObserver, IntervalSampler | None]:
        """Reset the measurement at the warm-up boundary.

        Clears every statistic (caches, predictors, and the FTB stay
        warm) and returns the fresh occupancy observer and interval
        sampler the loop continues with.
        """
        occupancy.flush()
        self._warmed = True
        self._measure_start_cycle = self.cycle
        self._measure_start_retired = self.backend.retired
        self._reset_stats()
        if self.profiler is not None:
            self.profiler.reset()
        occupancy = RunLengthObserver(self.stats.histogram("ftq_occupancy"))
        if sampler is not None:
            # Counters just cleared; anchor the interval series at the
            # measurement origin so window boundaries and deltas cover
            # only the measured region.
            sampler = IntervalSampler(self.config.telemetry_window,
                                      origin=self.cycle,
                                      base_retired=self.backend.retired)
        obs_events.emit("warmup_end", data={
            "name": self.name, "cycle": self.cycle,
            "retired": self.backend.retired})
        return occupancy, sampler

    def _watchdog_stall(self, watchdog: int) -> WatchdogStallError:
        """Log a watchdog trip; returns the error the loop raises."""
        obs_events.emit("watchdog_stall", data={
            "name": self.name, "cycle": self.cycle,
            "retired": self.backend.retired,
            "watchdog_interval": watchdog})
        return WatchdogStallError(self.cycle, self.backend.retired,
                                  watchdog, state=self._stall_dump())

    def _checkpoint(self, occupancy: RunLengthObserver,
                    sampler: IntervalSampler | None) -> int:
        """Hand the checkpoint sink an end-of-cycle snapshot.

        The snapshot is ``{"cycle", "retired", "machine"}``: ``machine``
        pickles this simulator with the loop's occupancy observer and
        interval sampler, the trace stored by reference (see
        :meth:`restore`).  Returns the cycle the next snapshot is due.
        A loop takes one at the first end-of-cycle at or past that cycle
        (``>=``, not ``==``), because an analytic jump may cross the
        boundary.
        """
        machine = io.BytesIO()
        _SnapshotPickler(machine, self.trace).dump(
            (self, occupancy, sampler))
        self.checkpoint_sink({"cycle": self.cycle,
                              "retired": self.backend.retired,
                              "machine": machine.getvalue()})
        return self.cycle + self.checkpoint_interval

    def _finish(self, occupancy: RunLengthObserver,
                sampler: IntervalSampler | None,
                mem_stats: MemoryStats) -> SimResult:
        """Shared end-of-run finalization for both loops."""
        occupancy.flush()
        intervals = None
        if sampler is not None:
            intervals = sampler.finalize(
                self.cycle, self.backend.retired,
                mem_stats.demand_misses)
        obs_events.emit("run_end", data={
            "name": self.name, "cycle": self.cycle,
            "retired": self.backend.retired,
            "skipped_cycles": self.skipped_cycles})
        return self._collect(intervals)

    def _apply_skip(self, plan, occupancy: RunLengthObserver,
                    sampler: IntervalSampler | None = None) -> None:
        """Batch-apply the bookkeeping of ``plan.cycles`` idle cycles.

        Adds exactly the stall counts the naive loop would have,
        records the (constant) FTQ occupancy samples, advances the
        interval sampler across the window (retired instructions,
        demand misses, and FTQ occupancy are provably constant inside
        it, so boundary crossings are reconstructed exactly), lets the
        prefetcher catch up its internal clock, and jumps the cycle
        counter to one before the plan's progress bound.
        """
        n = plan.cycles
        if self.profiler is not None:
            # The skip proof pins every input classify() reads across
            # the window, so one call attributes all n cycles to the
            # exact bucket the naive loop would have chosen.
            self.profiler.observe(self, False, n)
        self.fetch_engine.stats.bump(plan.fetch_counter, n)
        if plan.predict_counter is not None:
            self.predict_unit.stats.bump(plan.predict_counter, n)
        if plan.retire_stalled:
            self.backend.stats.retire_stall_cycles += n
        occ = self.ftq.occupancy()
        occupancy.observe(occ, n)
        if sampler is not None:
            sampler.advance(plan.target - 1, occ, self.backend.retired,
                            self.memory.stats.demand_misses)
        self.prefetcher.on_skip(plan.target - 1)
        self.cycle = plan.target - 1
        self.skipped_cycles += n

    def _stall_dump(self) -> dict:
        """Scheduling-state summary attached to watchdog failures."""
        return {
            "ftq_occupancy": self.ftq.occupancy(),
            "resolve_at": self._resolve_at,
            "fetch_waiting_until": self.fetch_engine.waiting_until,
            "ftb_wait_until": self.predict_unit.ftb_wait_until,
            "backend_occupancy": self.backend.occupancy,
            "next_completion": self.backend.next_completion,
            "next_fill": self.memory.next_event_cycle,
            "in_flight_blocks": self.memory.in_flight_blocks(),
            "predict_done": self.predict_unit.done,
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def components(self) -> tuple[Component, ...]:
        """The top-level telemetry components, in reporting order.

        Every machine part implements :class:`repro.component.Component`;
        nested parts (predictor and RAS under the prediction unit, FTB
        levels, cache/bus/MSHR under the memory system, prefetcher
        buffers) report through their parent's ``sub_components``.
        """
        return (self.ftq, self.predict_unit, self.ftb, self.fetch_engine,
                self.prefetcher, self.backend, self.memory)

    def _reset_stats(self) -> None:
        self.stats.reset()
        for component in self.components():
            component.reset()

    def telemetry_snapshot(self, intervals: IntervalSeries | None = None,
                           ) -> TelemetrySnapshot:
        """Snapshot the full telemetry tree for the measured region.

        The root ``sim`` node carries the simulator's own counters and
        the FTQ-occupancy histogram; each component hangs off it as a
        subtree.  Safe to call mid-run (live view of current counters).
        """
        root = TelemetryNode.from_stat_group(
            self.stats,
            children=[component.telemetry()
                      for component in self.components()])
        meta = {
            "name": self.name,
            "prefetcher": self.config.prefetch.kind,
            "cycles": self.cycle - self._measure_start_cycle,
            "instructions": self.backend.retired
            - self._measure_start_retired,
        }
        return TelemetrySnapshot(root=root, meta=meta, intervals=intervals)

    def _collect(self, intervals: IntervalSeries | None = None) -> SimResult:
        return SimResult.from_snapshot(self.telemetry_snapshot(intervals))

    def profile_report(self) -> dict:
        """The cycle-attribution profile for the measured region so far.

        Buckets sum exactly to the measured cycle count (the ``cycles``
        field of :attr:`telemetry_snapshot`'s meta).  Requires
        ``Simulator(..., profile=True)``; the convenience wrapper is
        :func:`repro.obs.profile_run`.
        """
        if self.profiler is None:
            raise SimulationError(
                "profiling is off; construct with Simulator(..., "
                "profile=True) or use repro.obs.profile_run")
        meta = {
            "name": self.name,
            "prefetcher": self.config.prefetch.kind,
            "cycles": self.cycle - self._measure_start_cycle,
            "instructions": self.backend.retired
            - self._measure_start_retired,
        }
        return self.profiler.report(
            meta=meta,
            bus_busy=self.memory.bus.stats.busy_cycles)
