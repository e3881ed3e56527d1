"""The event-driven cycle engine: wake scheduling over components.

The naive loop in :meth:`~repro.sim.simulator.Simulator.run` polls
every component every cycle; it is the reference semantics.  This
engine drives work by component wake state instead of polling, and is
bit-identical to the naive loop — the same ``SimResult``, counter for
counter.  Two mechanisms:

1. **Per-component tick elision.**  The ``next_wake_cycle`` bound of
   the fetch engine, prediction unit, memory system and backend (plus
   the architectural state the bound is derived from) tells the loop
   when a tick can only be the component's own stall-counter bump; the
   loop applies the bump directly and skips the call:

   - *memory*: with no fill due (``next_wake_cycle`` → None or a
     future cycle), ``begin_cycle`` only resets the tag-port budget —
     inlined;
   - *backend*: before the oldest completion, ``retire`` only bumps
     ``retire_stall_cycles`` (window non-empty) or nothing (empty);
   - *fetch*: while the pending demand fill is in flight, ``tick``
     only bumps ``miss_stall_cycles``;
   - *predict*: while the FTQ is full, ``tick`` only bumps
     ``ftq_full_stalls`` (its first check, before any wait state).

   The prefetcher is ticked every cycle unless its class declares
   :attr:`~repro.prefetch.base.Prefetcher.inert_tick` (the no-prefetch
   baseline): quiescence alone is not enough, because a quiescent
   stream prefetcher's no-op tick still refreshes an internal LRU
   clock, so elision there would not be exact.

2. **Adaptively gated analytic jumps.**  A trace-driven run spends
   most of its cycles with every component stalled: fetch blocked on a
   fill, the prediction unit blocked on a full FTQ (or an L2-FTB
   promotion, or an unresolved misprediction), the prefetcher with
   nothing queued.  Each such cycle does nothing but bump one stall
   counter per stalled component and record an unchanged FTQ
   occupancy sample.  :func:`stall_proof` recognises exactly those
   cycles *by proof*, not by heuristic, and returns the earliest
   self-scheduled wake bound; the loop jumps the clock to one cycle
   before it and ``Simulator._apply_skip`` batch-applies the
   bookkeeping the naive loop would have done (the stall counters, the
   occupancy samples, the prefetcher's internal clock).

   A jump needs two gates: the stall proof and
   :meth:`~repro.prefetch.base.Prefetcher.quiescent`.  They are
   evaluated last-rejector-first.  On a saturated FDIP run the
   prefetcher's O(1) PIQ check rejects every attempt and stays in
   front; on a stream-prefetcher run quiescence walks every buffer, so
   the proof (which rejects on the FTQ head) moves in front instead.
   Gate order cannot change the outcome — a jump needs both — so the
   adaptation is bit-identical by construction.

Why each stall-proof gate is sound, in cycle-schedule order:

1. ``memory.begin_cycle`` only completes fills due this cycle; with the
   jump bounded by the memory wake no fill is due in the window.
2. ``backend.retire`` retires nothing before ``next_completion``; a
   non-empty window bumps ``retire_stall_cycles`` once per cycle.
3. Resolution is bounded by ``_resolve_at``.
4. The fetch engine, when stalled, bumps exactly one of
   ``miss_stall_cycles`` / ``ftq_empty_cycles`` / ``window_stall_cycles``
   and returns.  Its stall cannot clear mid-window: the fill bound, the
   FTQ (nobody pushes — predict is stalled too), and the backend window
   (no retirement before ``next_completion``) are all pinned.
5. The prediction unit checks FTQ-full *before* the L2-FTB wait, so a
   full FTQ contributes no wait bound; the other stall states bound or
   pin themselves the same way.  Running out of trace records is a
   silent no-op (no counter).
6. The prefetcher must declare itself quiescent — with no demand
   accesses, fills, or FTQ pushes in the window, quiescence is stable
   until the bound.

Equivalence is enforced by the engine matrix in
``tests/test_engine_equivalence.py`` and the checkpoint fuzz suite;
selection is ``engine="event"`` on the run entry points (the default
— see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.stats import IntervalSampler, RunLengthObserver

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

__all__ = ["SkipPlan", "stall_proof", "run_event_loop"]


@dataclass(slots=True)
class SkipPlan:
    """A provably idle window and the bookkeeping it owes."""

    target: int               # first cycle at which anything can change
    cycles: int               # skipped cycles: target - current - 1
    fetch_counter: str        # fetch stall counter to bump per cycle
    predict_counter: str | None   # predict stall counter (None: silent)
    retire_stalled: bool      # backend window non-empty in the window


def stall_proof(sim: "Simulator", cycle: int):
    """Prove that no component except the prefetcher can do real work.

    Returns ``(fetch_counter, predict_counter, retire_stalled, wake)``
    when every non-prefetch component's next tick is a pure
    stall-counter bump, or None when any of them could do real work
    next cycle.  ``wake`` is the earliest self-scheduled wake bound —
    the first cycle at which anything can change — or None when
    nothing is scheduled at all.  The bounds are the ``next_wake_cycle``
    of the fetch engine (its pending demand fill), the prediction unit
    (a pending L2-FTB promotion), the memory system (the next fill) and
    the backend (the next completion), plus the scheduled branch
    resolution.

    The prefetcher is deliberately excluded: the caller combines the
    proof with :meth:`~repro.prefetch.base.Prefetcher.quiescent` in
    whichever order is cheaper for the workload.
    """
    # Failure checks run before any wake collection so a rejected
    # attempt (the common case on busy stretches) does the least work.

    # --- fetch engine ------------------------------------------------
    fetch_wake = sim.fetch_engine.next_wake_cycle(cycle)
    if fetch_wake is not None:
        fetch_counter = "miss_stall_cycles"
    else:
        head = sim.ftq.head()
        if head is None:
            fetch_counter = "ftq_empty_cycles"
        elif ((not head.wrong_path or sim.config.core.wrong_path_in_window)
                and sim.backend.free_slots <= 0):
            fetch_counter = "window_stall_cycles"
        else:
            return None   # fetch would access the memory system

    # --- prediction unit ---------------------------------------------
    predict = sim.predict_unit
    predict_wake = None
    if sim.ftq.full:
        # tick checks FTQ-full before the L2-FTB wait, so a pending
        # promotion neither clears nor bounds anything while full.
        predict_counter: str | None = "ftq_full_stalls"
    else:
        predict_wake = predict.next_wake_cycle(cycle)
        if predict_wake is not None:
            predict_counter = "ftb_l2_stall_cycles"
        elif predict.awaiting_resolution:
            if sim.config.frontend.model_wrong_path:
                return None   # producing wrong-path blocks every cycle
            predict_counter = "mispredict_stall_cycles"
        elif predict.out_of_records:
            predict_counter = None   # exhausted trace: silent no-op
        else:
            return None   # would produce a fetch block

    # --- self-scheduled progress bounds -------------------------------
    wake = sim.memory.next_wake_cycle(cycle)
    completion = sim.backend.next_wake_cycle(cycle)
    for bound in (fetch_wake, predict_wake, completion, sim._resolve_at):
        if bound is not None and (wake is None or bound < wake):
            wake = bound
    return fetch_counter, predict_counter, completion is not None, wake


def _plan_from_proof(proof, cycle: int, max_cycles: int) -> SkipPlan | None:
    """Turn a successful stall proof into a jump plan.

    Returns None when the earliest wake is too close to skip anything.
    The plan never jumps past ``max_cycles + 1``, so the cycle-cap
    error fires with identical state to the naive loop; a fully
    deadlocked machine (no wake bound at all) jumps straight to the cap.
    """
    fetch_counter, predict_counter, retire_stalled, wake = proof
    target = max_cycles + 1
    if wake is not None and wake < target:
        target = wake
    skipped = target - cycle - 1
    if skipped <= 0:
        return None
    return SkipPlan(target=target, cycles=skipped,
                    fetch_counter=fetch_counter,
                    predict_counter=predict_counter,
                    retire_stalled=retire_stalled)


def run_event_loop(sim: "Simulator", *, total: int, warmup: int,
                   max_cycles: int, occupancy: RunLengthObserver,
                   sampler: IntervalSampler | None,
                   next_ckpt: int | None, watchdog: int,
                   ) -> tuple[RunLengthObserver, IntervalSampler | None]:
    """Drive ``sim`` to completion under wake scheduling.

    Mirrors the naive loop's per-cycle schedule exactly — same
    component order, same one-stall-counter-per-cycle accounting — and
    shares its run bookkeeping (cycle cap, warm-up reset, watchdog,
    checkpoint) through the ``Simulator`` helpers, while eliding ticks
    the wake contracts prove to be pure stall bumps.  Returns the
    (possibly warm-up-rebound) occupancy observer and interval sampler
    for the caller's finalization.
    """
    profiler = sim.profiler
    memory = sim.memory
    mem_stats = memory.stats
    backend = sim.backend
    fetch_engine = sim.fetch_engine
    predict_unit = sim.predict_unit
    prefetcher = sim.prefetcher
    ftq = sim.ftq

    # Hot-loop locals.  The underlying containers are mutated in place
    # everywhere during a run (squash clears, heap pushes/pops), never
    # rebound.  ``stall_proof`` is deliberately not hoisted: it is
    # looked up as a module global so instrumentation can wrap it.
    mem_events = memory._events
    ftq_entries = ftq._entries
    ftq_depth = ftq.depth
    fetch_bump = fetch_engine.stats.bump
    predict_bump = predict_unit.stats.bump
    backend_bump = backend.stats.bump
    prefetch_tick = prefetcher.tick
    prefetch_inert = prefetcher.inert_tick
    quiescent = prefetcher.quiescent
    issue_width = backend.core.issue_width
    bwindow = backend._window
    bwindow_popleft = bwindow.popleft
    proof_first = False   # adaptive jump-gate order; see the skip gate

    # The cycle counter and the occupancy run-length accumulator live
    # in locals; ``sim.cycle`` and the observer fields are synced at
    # every boundary where other code can read them (warm-up reset,
    # analytic jumps, watchdog trips, checkpoint snapshots, the cycle
    # cap, loop exit).
    cycle = sim.cycle
    warmed = sim._warmed
    occ_hist = occupancy._histogram
    occ_value = occupancy._value
    occ_weight = occupancy._weight
    # A single ``cycle >= ckpt_at`` compare per cycle; the sentinel
    # sits past the cycle-cap error so it can never trigger.
    ckpt_at = next_ckpt if next_ckpt is not None else max_cycles + 2

    progress_cycle = cycle
    progress_retired = backend.retired
    if backend.retired >= total:
        return occupancy, sampler

    while True:
        cycle += 1
        if cycle > max_cycles:
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            raise sim._cycle_cap_error(max_cycles, total)
        # memory: wake only when a fill is due; otherwise inline the
        # input-free bookkeeping begin_cycle would do.
        if mem_events and mem_events[0][0] <= cycle:
            memory.begin_cycle(cycle)
        else:
            memory._now = cycle
            memory._ports_used = 0
        # backend: asleep until the oldest completion; a non-empty
        # window owes exactly one retire_stall_cycles per stalled cycle
        # (matching _apply_skip's batch accounting).  The due case
        # inlines Backend.retire (a completion at the head guarantees
        # n >= 1, so the n == 0 stall branch cannot apply).
        if bwindow:
            if bwindow[0] <= cycle:
                n = 0
                while n < issue_width and bwindow and bwindow[0] <= cycle:
                    bwindow_popleft()
                    n += 1
                backend.retired += n
                backend_bump("retired", n)
            else:
                backend_bump("retire_stall_cycles")
        if sim._resolve_at is not None and cycle >= sim._resolve_at:
            sim._squash_and_redirect()
        # fetch: asleep until the pending demand fill lands; the
        # elided tick would only bump miss_stall_cycles.
        waiting = fetch_engine._waiting_until
        if waiting is not None and cycle < waiting:
            fetch_bump("miss_stall_cycles")
            fetched = False
        else:
            fetched = fetch_engine.tick(cycle)
        # predict: a full FTQ is its first check — the elided tick
        # would only bump ftq_full_stalls.
        if len(ftq_entries) >= ftq_depth:
            predict_bump("ftq_full_stalls")
        else:
            predict_unit.tick(cycle, ftq)
        # prefetcher: ticked every cycle unless its tick is declared
        # inert — quiescent ticks are no-ops by contract, but the
        # stream prefetcher's no-op still refreshes its LRU clock, so
        # quiescence alone does not justify elision.
        if not prefetch_inert:
            prefetch_tick(cycle, ftq)
        retired = backend.retired
        # Occupancy run-length accounting, inlined (one branch per
        # cycle instead of a method call; same arithmetic as
        # RunLengthObserver.observe).
        occ = len(ftq_entries)
        if occ == occ_value:
            occ_weight += 1
        else:
            if occ_weight:
                occ_hist.observe(occ_value, occ_weight)
            occ_value = occ
            occ_weight = 1
        if sampler is not None:
            sampler.advance(cycle, occ, retired,
                            mem_stats.get("demand_misses"))
        if profiler is not None:
            profiler.observe(sim, bool(fetched))

        if not warmed and retired >= warmup:
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            occupancy, sampler = sim._end_warmup(occupancy, sampler)
            warmed = True
            occ_hist = occupancy._histogram
            occ_value = occupancy._value
            occ_weight = occupancy._weight
        elif not fetched and retired < total:
            # A jump needs both gates: the stall proof and prefetcher
            # quiescence.  Which one is cheap and which one rejects is
            # workload-dependent (a saturated FDIP rejects on its PIQ
            # in O(1); a stream prefetcher's quiescence walks every
            # buffer while the proof rejects on the FTQ head), so the
            # engine checks the gate that rejected last first —
            # move-to-front over two gates, bit-identical under either
            # order.
            if proof_first:
                proof = stall_proof(sim, cycle)
                if proof is not None and not quiescent(ftq):
                    proof = None
                    proof_first = False
            elif quiescent(ftq):
                proof = stall_proof(sim, cycle)
                if proof is None:
                    proof_first = True
            else:
                proof = None
            if proof is not None:
                plan = _plan_from_proof(proof, cycle, max_cycles)
                if plan is not None:
                    sim.cycle = cycle
                    occupancy._value = occ_value
                    occupancy._weight = occ_weight
                    sim._apply_skip(plan, occupancy, sampler)
                    cycle = sim.cycle
                    occ_value = occupancy._value
                    occ_weight = occupancy._weight

        if watchdog > 0:
            if retired > progress_retired:
                progress_retired = retired
                progress_cycle = cycle
            elif cycle - progress_cycle >= watchdog:
                sim.cycle = cycle
                occupancy._value = occ_value
                occupancy._weight = occ_weight
                raise sim._watchdog_stall(watchdog)
        if cycle >= ckpt_at:
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            ckpt_at = sim._checkpoint(occupancy, sampler)
        if retired >= total:
            # Retirement only moves in the retire step at the top of
            # the cycle, so the end-of-cycle check is equivalent to the
            # naive loop's top-of-cycle condition.
            break

    sim.cycle = cycle
    occupancy._value = occ_value
    occupancy._weight = occ_weight
    return occupancy, sampler
