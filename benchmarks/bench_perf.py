"""Benchmark: simulator throughput across the two cycle engines.

Unlike the ``bench_e*`` experiments, which regenerate paper tables, this
bench measures the simulator *itself*: simulated instructions per
wall-clock second on the :data:`repro.perf.PERF_MATRIX` configurations
under the naive and event cycle engines.  The same measurement
is available outside pytest as ``python -m repro perf`` (or
``make perf``), which also writes ``BENCH_perf.json`` and checks the
committed baseline.

This file doubles as the CI ``perf-gate``: when the committed baseline
(``benchmarks/perf_baseline.json``) exists, every point's per-engine
speedup-over-naive must stay within
:data:`repro.perf.DEFAULT_MAX_REGRESSION` (15%) of it.  Speedups are
wall-clock ratios, so the gate holds across machines of different
absolute speed.
"""

import json
import sys
from pathlib import Path

from repro import perf

_BASELINE = Path(__file__).parent / "perf_baseline.json"


def test_perf_matrix(benchmark):
    report = benchmark.pedantic(
        perf.run_perf,
        kwargs={"length": perf.QUICK_LENGTH, "reps": 7, "warmup": 1},
        rounds=1, iterations=1)
    text = perf.format_report(report)
    sys.__stdout__.write("\n" + text + "\n")
    sys.__stdout__.flush()
    for name, data in report["points"].items():
        assert data["identical"], f"{name}: engine results differ"
    # The default engine must actually win where winning is possible.
    assert report["points"]["stall_heavy"]["speedup"] > 1.0
    if _BASELINE.exists():
        baseline = json.loads(_BASELINE.read_text(encoding="utf-8"))
        failures = perf.compare_to_baseline(report, baseline)
        assert not failures, "; ".join(failures)
