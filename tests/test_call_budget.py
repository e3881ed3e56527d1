"""A deterministic guard on how many Python calls one simulation makes.

The simulator's speed is bounded by calls into Python functions, each
of which costs tens of nanoseconds before its body runs.  The
per-block path (prediction unit, FTB, direction predictor, FTQ, FDIP
scan and issue, fetch engine, L1-I, backend) makes one call into each
layer's entry point and does its own arithmetic inline.  A one-line
helper or property that comes back onto that path adds thousands of
calls per run: a slowdown of a few percent, which the timing gate
(``benchmarks/bench_perf.py``) cannot resolve but a call count sees
exactly.

Each test counts, under cProfile, the calls to functions defined in
the ``repro`` package during one golden-trace run (event engine, no
warm-up), after one unprofiled run so that first-use work is not
counted.  The count is deterministic for a given tree and interpreter.
Each budget is 5% above the count measured on CPython 3.11, and it
bounds from above only: an interpreter that inlines comprehensions
(3.12) reads lower.  Before the per-block path was inlined, the same
runs made 324,117 (``fdip``/``enqueue``) and 279,689 (``none``) calls.

The build path has a budget of its own: generating ``gcc_like`` and
walking it four times, 2,000 instructions per walk (seeds 1-4), from
one program object.  Before planning drew from per-level callee tables,
instructions were slotted, validation compared kinds with the
``repro.isa`` constants and walkers shared the program's compiled
blocks, the same run made 257,755 calls.

The walk path has one too: four 20,000-instruction walks (seeds 1-4)
of one ``gcc_like`` program whose blocks are already compiled.  Each
compiled block holds its terminator's possible records and the walk
resolves every terminator inline, so only the walker's set-up is
counted; when the walk resolved terminators through helper methods and
built a record per terminator visit, the same walks made 30,177 calls.

To see which function a failure added, profile the same run::

    python -m cProfile -s ncalls -m repro run -w gcc_like --length 10000
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import repro
from repro import PrefetchConfig, SimConfig, simulate
from repro.cfg import ProgramShape, TraceWalker, generate_program
from repro.trace import Trace
from repro.workloads.suite import build_program

#: (prefetcher kind, filter mode) -> calls measured on CPython 3.11.
MEASURED = {
    ("fdip", "enqueue"): 122_832,
    ("none", "none"): 102_478,
}
#: Calls of the build path (see the module docstring) on CPython 3.11.
BUILD_MEASURED = 117_348
#: Calls of the walk path (see the module docstring) on CPython 3.11.
WALK_MEASURED = 16
SLACK = 0.05

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@pytest.fixture(scope="module")
def golden_trace():
    shape = ProgramShape(target_instrs=2048, n_functions=16,
                         n_levels=5, dispatcher_fanout=4)
    program = generate_program(shape, seed=42, name="small")
    return Trace.from_program(program, 10000, seed=7)


def profiled_calls(run) -> int:
    """Calls to ``repro`` functions in one profiled ``run()``, after an
    unprofiled one."""
    run()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    return sum(calls for (filename, _, _), (_, calls, *_)
               in pstats.Stats(profile).stats.items()
               if os.path.abspath(filename).startswith(_PACKAGE))


def repro_calls(trace: Trace, config: SimConfig) -> int:
    """Calls to ``repro`` functions in one profiled run of ``trace``."""
    return profiled_calls(lambda: simulate(trace, config, engine="event"))


def build_path() -> None:
    program = build_program("gcc_like")
    for seed in (1, 2, 3, 4):
        TraceWalker(program, seed=seed).walk(2000)


def walk_path(program) -> None:
    for seed in (1, 2, 3, 4):
        TraceWalker(program, seed=seed).walk(20_000)


@pytest.mark.parametrize("kind,filter_mode", sorted(MEASURED))
def test_calls_within_budget(golden_trace, kind, filter_mode):
    budget = int(MEASURED[kind, filter_mode] * (1 + SLACK))
    calls = repro_calls(golden_trace, SimConfig(prefetch=PrefetchConfig(
        kind=kind, filter_mode=filter_mode)))
    assert calls <= budget, (
        f"{kind}/{filter_mode}: {calls:,} calls to repro functions, "
        f"over the budget of {budget:,}; a helper call is back on the "
        f"per-block path")


def test_build_path_within_budget():
    budget = int(BUILD_MEASURED * (1 + SLACK))
    calls = profiled_calls(build_path)
    assert calls <= budget, (
        f"build path: {calls:,} calls to repro functions, over the "
        f"budget of {budget:,}; a helper or property call is back in "
        f"program generation, validation or the walker's compile")


def test_walk_path_within_budget():
    # The unprofiled first pass compiles every block these walks enter.
    program = build_program("gcc_like")
    budget = int(WALK_MEASURED * (1 + SLACK))
    calls = profiled_calls(lambda: walk_path(program))
    assert calls <= budget, (
        f"walk path: {calls:,} calls to repro functions, over the "
        f"budget of {budget:,}; a helper call is back in the walker's "
        f"loop")
