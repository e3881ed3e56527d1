"""Unit tests for the event-driven cycle engine (``sim/events.py``).

Bit-identity against the naive loop is swept exhaustively in
``test_engine_equivalence.py`` (engine matrix) and
``test_checkpoint.py`` (resume identity); this module covers the event
engine's own moving parts — the jump planner, the per-component elision
contracts, engine selection plumbing, and checkpoints that land
mid-jump.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ENGINES, PrefetchConfig, PrefetcherKind, \
    SimConfig
from repro.errors import ConfigError
from repro.sim.events import _plan_from_proof, stall_proof
from repro.sim.simulator import Simulator
from repro.workloads import build_trace

_TRACE = build_trace("gcc_like", 2500, seed=7)


def _stall_config(**changes) -> SimConfig:
    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NONE))
    config = config.replace(
        memory=replace(config.memory, memory_latency=400))
    return config.replace(**changes) if changes else config


# ----------------------------------------------------------------------
# The jump planner
# ----------------------------------------------------------------------

class TestPlanWake:

    @staticmethod
    def _stalled_sim():
        """A simulator parked in a provable multi-cycle stall.

        Naive-step cycles until a cycle both delivers nothing and
        yields a plan; the stall config guarantees hundreds of such
        cycles early on (cold L1-I miss against 400-cycle memory).
        The no-prefetch baseline is always quiescent, so the stall
        proof is the only jump gate.
        """
        sim = Simulator(_TRACE, _stall_config(), engine="naive")
        for _ in range(50):
            sim.cycle += 1
            cycle = sim.cycle
            sim.memory.begin_cycle(cycle)
            sim.backend.retire(cycle)
            if sim._resolve_at is not None and cycle >= sim._resolve_at:
                sim._squash_and_redirect()
            fetched = sim.fetch_engine.tick(cycle)
            sim.predict_unit.tick(cycle, sim.ftq)
            sim.prefetcher.tick(cycle, sim.ftq)
            if not fetched:
                proof = stall_proof(sim, cycle)
                if proof is not None:
                    plan = _plan_from_proof(proof, cycle, 10 ** 9)
                    if plan is not None:
                        return sim, cycle, proof, plan
        pytest.fail("never found a provable stall cycle")

    def test_plan_matches_earliest_wake(self):
        sim, cycle, proof, plan = self._stalled_sim()
        bounds = [sim.fetch_engine.next_wake_cycle(cycle),
                  sim.memory.next_wake_cycle(cycle),
                  sim.backend.next_wake_cycle(cycle),
                  sim._resolve_at]
        if not sim.ftq.full:
            bounds.append(sim.predict_unit.next_wake_cycle(cycle))
        earliest = min(b for b in bounds if b is not None)
        assert proof[3] == earliest
        assert plan.target == earliest
        assert plan.cycles == plan.target - cycle - 1
        assert plan.cycles > 0

    def test_plan_clamped_by_max_cycles(self):
        _, cycle, proof, plan = self._stalled_sim()
        cap = cycle + 2
        clamped = _plan_from_proof(proof, cycle, cap)
        if clamped is not None:
            assert clamped.target <= cap + 1
            assert clamped.cycles >= 1

    def test_no_plan_when_wake_is_next_cycle(self):
        _, cycle, proof, _ = self._stalled_sim()
        # Replay the same proof with an artificial next-cycle wake:
        # nothing can be skipped, so there must be no plan.
        imminent = (proof[0], proof[1], proof[2], cycle + 1)
        assert _plan_from_proof(imminent, cycle, 10 ** 9) is None


# ----------------------------------------------------------------------
# Per-component elision contracts
# ----------------------------------------------------------------------

class TestElisionContracts:

    def test_only_none_prefetcher_declares_inert_tick(self):
        for kind in PrefetcherKind.ALL:
            config = SimConfig(prefetch=PrefetchConfig(kind=kind))
            sim = Simulator(_TRACE, config)
            expected = kind == PrefetcherKind.NONE
            assert sim.prefetcher.inert_tick is expected, kind

    def test_base_prefetcher_defaults_conservative(self):
        from repro.prefetch.base import Prefetcher

        assert Prefetcher.inert_tick is False


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------

class TestEngineSelection:

    def test_unknown_engine_rejected_by_simulator(self):
        for engine in ("bogus", "fast"):
            with pytest.raises(ConfigError, match="unknown engine"):
                Simulator(_TRACE, SimConfig(), engine=engine)

    def test_default_is_event(self):
        assert Simulator(_TRACE, SimConfig()).engine == "event"
        assert ENGINES == ("naive", "event")

    def test_constructor_keyword_selects_engine(self):
        sim = Simulator(_TRACE, SimConfig(), engine="naive")
        assert sim.engine == "naive"

    def test_api_simulate_threads_engine(self):
        from repro.api import simulate

        results = {engine: simulate(_TRACE, _stall_config(),
                                    engine=engine)
                   for engine in ENGINES}
        assert results["event"] == results["naive"]


# ----------------------------------------------------------------------
# Checkpoints landing mid-jump
# ----------------------------------------------------------------------

class TestCheckpointMidJump:

    def test_snapshot_inside_jump_resumes_identically(self):
        """The event engine overshoots checkpoint boundaries inside an
        analytic jump; the snapshot taken at the post-jump cycle must
        still resume bit-identically."""
        config = _stall_config(telemetry_window=64)
        sim = Simulator(_TRACE, config, engine="event")
        states: list[dict] = []
        sim.checkpoint_every(64, states.append)
        ref = sim.run()
        assert sim.skipped_cycles > 0
        # A snapshot whose cycle is off the interval grid proves the
        # boundary fell inside a jump (the sink fires at the first
        # end-of-cycle at or past the boundary).
        off_grid = [s for s in states if s["cycle"] % 64 != 0]
        assert off_grid, "no checkpoint ever landed mid-jump"
        for state in (off_grid[0], off_grid[-1]):
            resumed = Simulator.restore(_TRACE, config, state["machine"],
                                        engine="event")
            assert resumed.run() == ref
        # ... and the same snapshot resumes under the naive loop.
        resumed = Simulator.restore(_TRACE, config, off_grid[0]["machine"],
                                    engine="naive")
        assert resumed.run() == ref
