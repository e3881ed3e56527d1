"""Simulation-throughput benchmark across the two cycle engines.

Measures simulated instructions per wall-clock second on a small matrix
of configurations chosen to bracket the event engine's best and worst
cases:

- ``stall_heavy`` — no prefetching, an instruction working set several
  times the L1-I, and an extreme memory latency.  The machine spends
  almost all of its cycles fully stalled on fills, which is exactly the
  pattern the event engine's idle-span jumps collapse.
- ``prefetch_saturated`` — FDIP with enqueue filtering at stock
  latencies.  The prefetcher touches the memory system nearly every
  cycle, so almost nothing is skippable; this point exists to verify
  that the jump machinery costs (close to) nothing when it cannot help.
- ``mixed_phases`` — FDIP with enqueue filtering against 800-cycle
  memory: prefetch bursts alternate with fully drained stall windows,
  so the event engine's per-component elision and adaptive jump gating
  must win both phases.

Each point is simulated under both engines (``naive`` and ``event``),
timed as the **median** of ``reps`` repetitions after ``warmup``
untimed runs, with the repetitions interleaved across engines so
clock-frequency drift lands on both of them equally; each
engine's speedup is the median of its *per-round* ratios against the
same round's naive run, which cancels machine-speed drift between
rounds as well.  The
per-engine :class:`~repro.sim.results.SimResult` objects are compared
for full equality — the benchmark doubles as an end-to-end equivalence
check.  Results are written as JSON (``BENCH_perf.json`` by default)
and optionally compared against a committed baseline
(``benchmarks/perf_baseline.json``), failing when any engine's
*speedup over naive* regresses by more than ``max_regression``
(speedups are wall-clock ratios, so the comparison is
machine-independent in a way raw instructions/second is not).

Run it via ``python -m repro perf`` or ``make perf``; interpretation
notes live in ``docs/performance.md``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from typing import Iterable

from repro.api import simulate
from repro.cfg import ProgramShape, generate_program
from repro.config import ENGINES, PrefetchConfig, SimConfig
from repro.sim.results import SimResult
from repro.trace import Trace

__all__ = ["PerfPoint", "PERF_MATRIX", "run_perf", "compare_to_baseline",
           "write_report", "format_report"]

DEFAULT_OUTPUT = "BENCH_perf.json"
DEFAULT_BASELINE = "benchmarks/perf_baseline.json"
DEFAULT_LENGTH = 40_000
QUICK_LENGTH = 15_000
DEFAULT_REPS = 5
DEFAULT_WARMUP = 1
DEFAULT_MAX_REGRESSION = 0.15

# Working set of ~64KB (16k instructions x 4B) against a 16KB L1-I:
# capacity misses on every pass through the program.
_SHAPE = ProgramShape(target_instrs=16384, n_functions=48, n_levels=6,
                      dispatcher_fanout=6)
_PROGRAM_SEED = 11
_TRACE_SEED = 3


@dataclass(frozen=True)
class PerfPoint:
    """One (name, config) cell of the benchmark matrix."""

    name: str
    config: SimConfig
    description: str


def _stall_heavy() -> SimConfig:
    config = SimConfig(prefetch=PrefetchConfig(kind="none"))
    return replace(config,
                   memory=replace(config.memory, memory_latency=1600))


def _prefetch_saturated() -> SimConfig:
    return SimConfig(prefetch=PrefetchConfig(kind="fdip",
                                             filter_mode="enqueue"))


def _mixed_phases() -> SimConfig:
    config = SimConfig(prefetch=PrefetchConfig(kind="fdip",
                                               filter_mode="enqueue"))
    return replace(config,
                   memory=replace(config.memory, memory_latency=800))


PERF_MATRIX: tuple[PerfPoint, ...] = (
    PerfPoint("stall_heavy", _stall_heavy(),
              "no prefetch, thrashing L1-I, 1600-cycle memory"),
    PerfPoint("prefetch_saturated", _prefetch_saturated(),
              "fdip/enqueue at stock latencies"),
    PerfPoint("mixed_phases", _mixed_phases(),
              "fdip/enqueue against 800-cycle memory: prefetch bursts "
              "alternating with drained stall windows"),
)


def _build_trace(length: int, seed: int | None = None) -> Trace:
    program = generate_program(_SHAPE, seed=_PROGRAM_SEED)
    return Trace.from_program(program, length,
                              seed=_TRACE_SEED if seed is None else seed)


def _time_engines(trace: Trace, config: SimConfig, reps: int,
                  warmup: int) -> dict[str, tuple[float, float, SimResult]]:
    """Median-of-``reps`` wall time and speedup per engine, interleaved.

    Each repetition round runs every engine once back to back, so a
    machine speeding up or slowing down mid-benchmark biases all
    engines equally instead of whichever happened to run last.  The
    reported speedup is the **median of per-round ratios** — each
    engine's time divided by the *same round's* naive time — which
    cancels machine-speed drift between rounds in a way dividing two
    independent medians does not.

    Returns ``{engine: (median_seconds, median_speedup, result)}``
    (speedup is 1.0 for naive itself).
    """
    configs = {engine: config.replace(engine=engine)
               for engine in ENGINES}
    results: dict[str, SimResult] = {}
    for _ in range(max(warmup, 1)):   # at least one untimed warm run
        for engine in ENGINES:
            results[engine] = simulate(trace, configs[engine])
    times: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    for _ in range(reps):
        for engine in ENGINES:
            start = time.perf_counter()
            results[engine] = simulate(trace, configs[engine])
            times[engine].append(time.perf_counter() - start)
    timed = {}
    for engine in ENGINES:
        speedup = statistics.median(
            naive / mine for naive, mine
            in zip(times["naive"], times[engine]))
        timed[engine] = (statistics.median(times[engine]), speedup,
                         results[engine])
    return timed


def run_perf(length: int = DEFAULT_LENGTH, reps: int = DEFAULT_REPS,
             points: Iterable[PerfPoint] = PERF_MATRIX,
             seed: int | None = None,
             warmup: int = DEFAULT_WARMUP) -> dict:
    """Run the benchmark matrix; returns the version-2 report dict.

    ``seed`` overrides the canonical benchmark trace seed — results are
    only comparable to the committed baseline at the default.
    """
    trace = _build_trace(length, seed)
    default_engine = SimConfig().engine
    report = {"version": 2, "length": length, "reps": reps,
              "warmup": warmup, "default_engine": default_engine,
              "points": {}}
    instructions = len(trace)
    for point in points:
        timed = _time_engines(trace, point.config, reps, warmup)
        naive_result = timed["naive"][2]
        engines = {}
        for engine, (seconds, speedup, result) in timed.items():
            row = {"seconds": round(seconds, 6),
                   "ips": round(instructions / seconds, 1),
                   "identical": result == naive_result}
            if engine != "naive":
                row["speedup"] = round(speedup, 3)
            engines[engine] = row
        report["points"][point.name] = {
            "description": point.description,
            "instructions": instructions,
            "cycles": naive_result.cycles,
            "engine": default_engine,
            "engines": engines,
            "speedup": engines[default_engine]["speedup"],
            "identical": all(row["identical"]
                             for row in engines.values()),
        }
    return report


def compare_to_baseline(report: dict, baseline: dict,
                        max_regression: float = DEFAULT_MAX_REGRESSION,
                        ) -> list[str]:
    """Failure messages for points regressing beyond ``max_regression``.

    Compares each engine's speedup-over-naive point by point — a
    wall-clock ratio, so a uniformly faster or slower machine cancels
    out.  A point or engine missing from the baseline is skipped (it is
    new).  An empty list means the report is acceptable.
    """
    failures = []
    for name, data in report["points"].items():
        base = baseline.get("points", {}).get(name)
        if base is None:
            continue
        for engine, base_row in base["engines"].items():
            base_speedup = base_row.get("speedup")
            row = data["engines"].get(engine)
            if base_speedup is None or row is None:
                continue
            floor = base_speedup * (1.0 - max_regression)
            if row["speedup"] < floor:
                failures.append(
                    f"{name}: {engine}-engine speedup "
                    f"{row['speedup']:.2f}x is below {floor:.2f}x "
                    f"(baseline {base_speedup:.2f}x - "
                    f"{max_regression:.0%})")
    for name, data in report["points"].items():
        if not data["identical"]:
            failures.append(
                f"{name}: engine results DIFFER — an engine is "
                f"broken, fix before worrying about speed")
    return failures


def write_report(report: dict, path: str) -> None:
    """Write ``report`` as JSON, keeping foreign sections of ``path``.

    The baseline file carries sections owned by other benches (the
    sharding reference lives under ``"shard"``, written by
    ``benchmarks/bench_shard.py``); overwriting an existing file keeps
    any top-level key this report does not produce, so regenerating the
    engine matrix never discards the shard numbers.
    """
    import os

    merged = dict(report)
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = {}
        for key, value in previous.items():
            if key not in merged:
                merged[key] = value
    with open(path, "w", encoding="utf-8") as out:
        json.dump(merged, out, indent=2, sort_keys=True)
        out.write("\n")


def format_report(report: dict) -> str:
    lines = [f"perf: {report['length']} instructions, median of "
             f"{report['reps']} (after {report.get('warmup', 0)} "
             f"warmup), default engine {report['default_engine']}"]
    for name, data in report["points"].items():
        engines = data["engines"]
        cells = [f"{engine} {row['ips']:>12,.0f} instr/s"
                 + (f" ({row['speedup']:.2f}x)"
                    if "speedup" in row else "")
                 for engine, row in engines.items()]
        lines.append(
            f"  {name:20s} " + "   ".join(cells) + "   "
            + ("identical" if data["identical"] else "RESULTS DIFFER"))
    return "\n".join(lines)
