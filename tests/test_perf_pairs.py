"""The alternating-pairs comparison script (scripts/perf_pairs.py): its
parsing of perfbench output and its summary, on canned runs."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", ROOT / "scripts" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def perfbench_stdout(digest: str, **metrics: float) -> str:
    """What ``perfbench/run.py --trace 0`` prints, cut to what is read."""
    final = {"correct": True, "attempted": 16, "failed": 0,
             "metrics": {name: {"value": value, "unit": "x"}
                         for name, value in metrics.items()}}
    return "\n".join([
        "workload fdip_server  seed 1  seconds 10  trace 0",
        "host nproc 2  python 3.11.7",
        f"results sha256 {digest}",
        "  sim_ips                         41900 instr/s   (higher)",
        json.dumps(final),
    ]) + "\n"


METRICS = [
    {"name": "sim_ips", "unit": "instr/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "req_per_s", "unit": "1/s", "better": "higher"},
]


def canned_pairs(perf_pairs):
    pairs = []
    for i in range(10):
        base = perf_pairs.parse_run(perfbench_stdout(
            "ab" * 32, sim_ips=1000.0 + i, setup_s=2.0 + i / 100))
        change = perf_pairs.parse_run(perfbench_stdout(
            "ab" * 32, sim_ips=1100.0 + i - (200 if i == 3 else 0),
            setup_s=2.0 + i / 100))
        pairs.append((base, change))
    return pairs


class TestParse:
    def test_reads_digest_and_final_metrics(self, perf_pairs):
        run = perf_pairs.parse_run(perfbench_stdout(
            "e2f9" + "0" * 60, sim_ips=41900.0, ipc=1.25))
        assert run.digest == "e2f9" + "0" * 60
        assert run.metrics == {"sim_ips": 41900.0, "ipc": 1.25}

    def test_output_without_digest_is_refused(self, perf_pairs):
        text = perfbench_stdout("ab", sim_ips=1.0).replace(
            "results sha256 ab\n", "")
        with pytest.raises(ValueError, match="digest"):
            perf_pairs.parse_run(text)


class TestSummary:
    def test_medians_quartiles_change_and_wins(self, perf_pairs):
        rows = {row.name: row for row in perf_pairs.summarize(
            canned_pairs(perf_pairs), METRICS)}
        sim = rows["sim_ips"]
        assert sim.base[1] == pytest.approx(1004.5)
        assert sim.change[1] == pytest.approx(1104.5)
        assert sim.base[0] < sim.base[1] < sim.base[2]
        assert sim.delta_pct == pytest.approx(100 * 100 / 1004.5)
        assert (sim.wins, sim.pairs) == (9, 10)     # pair 4 lost

    def test_direction_comes_from_the_metric(self, perf_pairs):
        rows = {row.name: row for row in perf_pairs.summarize(
            canned_pairs(perf_pairs), METRICS)}
        setup = rows["setup_s"]
        assert setup.better == "lower"
        assert setup.wins == 0                      # ties never win
        assert setup.delta_pct == pytest.approx(0.0)

    def test_metric_missing_from_the_runs_is_skipped(self, perf_pairs):
        names = [row.name for row in perf_pairs.summarize(
            canned_pairs(perf_pairs), METRICS)]
        assert names == ["sim_ips", "setup_s"]      # no req_per_s runs

    def test_zero_base_median_has_no_percentage(self, perf_pairs):
        runs = [(perf_pairs.parse_run(perfbench_stdout("a", sim_ips=0.0)),
                 perf_pairs.parse_run(perfbench_stdout("a", sim_ips=5.0)))]
        (row,) = perf_pairs.summarize(runs, METRICS[:1])
        assert row.delta_pct is None and row.wins == 1

    def test_table_has_one_line_per_metric(self, perf_pairs):
        text = perf_pairs.format_summary(perf_pairs.summarize(
            canned_pairs(perf_pairs), METRICS))
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split()[0] == "metric"
        assert "+10.0%" in lines[1]
        assert lines[1].split()[-2:] == ["9/10", "gain"]


def verdict_of(perf_pairs, base_values, change_values, bound=0.1,
               better="higher"):
    """The verdict on one metric over canned (base, change) pairs."""
    pairs = [(perf_pairs.parse_run(perfbench_stdout("a", m=base)),
              perf_pairs.parse_run(perfbench_stdout("a", m=change)))
             for base, change in zip(base_values, change_values)]
    (row,) = perf_pairs.summarize(pairs, [
        {"name": "m", "unit": "x", "better": better, "bound": bound}])
    return row.verdict


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


class TestVerdict:
    def test_gain_needs_nine_tenths_and_the_base_spread(self, perf_pairs):
        up = [value + 5 for value in BASE]
        assert verdict_of(perf_pairs, BASE, up) == "gain"
        # Eight wins of ten are not enough, however far the median moves.
        up[0], up[1] = 90.0, 90.0
        assert verdict_of(perf_pairs, BASE, up) == "held"
        # Nor is winning every pair by less than the base's q1-q3 spread.
        assert verdict_of(perf_pairs, BASE,
                          [value + 0.5 for value in BASE]) == "held"

    def test_direction_decides_better(self, perf_pairs):
        down = [value - 5 for value in BASE]
        assert verdict_of(perf_pairs, BASE, down, better="lower") == "gain"
        assert verdict_of(perf_pairs, BASE, down, bound=0.01) == "worse"

    def test_worse_by_more_than_the_bound(self, perf_pairs):
        assert verdict_of(perf_pairs, BASE,
                          [value * 0.85 for value in BASE]) == "worse"
        assert verdict_of(perf_pairs, BASE,
                          [value * 0.95 for value in BASE]) == "held"

    def test_unresolved_when_the_base_spreads_past_the_bound(
            self, perf_pairs):
        wide = [80.0, 120.0] * 5
        assert verdict_of(perf_pairs, wide, wide) == "unresolved"
        assert verdict_of(perf_pairs, wide, wide, bound=0.5) == "held"

    def test_metric_without_a_bound_is_held_or_gain(self, perf_pairs):
        assert verdict_of(perf_pairs, BASE, [value / 2 for value in BASE],
                          bound=None) == "held"
