"""Fast checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workload runs are tiny (``--seconds 1``) and take a few seconds
each; they check the correctness gate, not the numbers.
"""

from __future__ import annotations

import ast
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import kernel, metrics  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the reference kernel ------------------------------------------------


def test_kernel_imports_only_the_standard_library():
    tree = ast.parse((ROOT / "perfbench" / "kernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported <= {"__future__", "gc", "collections", "heapq"}


def test_kernel_runs_without_importing_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import perfbench.kernel as k; k.run(2); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_kernel_does_constant_work():
    assert {kernel.run_iteration() for _ in range(5)} == {kernel.CHECKSUM}
    assert kernel.run(3) == 3 * kernel.CHECKSUM


def test_kernel_keeps_no_allocation_and_restores_gc():
    kernel.run(1)
    before = sys.getallocatedblocks()
    kernel.run(5)
    assert sys.getallocatedblocks() - before < 50
    assert gc.isenabled()
    gc.disable()
    try:
        kernel.run(1)
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- definitions ----------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"])
                  for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER
    from perfbench import run, workloads

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(128))
    value, p, beyond = metrics.tail(values)
    assert (p, beyond) == (90.0, 12)
    assert value == metrics.percentile(values, 90.0)
    assert metrics.tail(list(range(2500)))[1] == 99.0


def test_plan_blocks_follow_the_window_and_coalescing_rules():
    from perfbench.workloads import plan_blocks

    sequence = [3, 3, 1, 3, 1, 1, 2, 2, 2, 2, 2, 0, 3]
    blocks = plan_blocks(sequence, 4)
    flat = [entry for block in blocks for entry in block]
    assert [position for position, _, _ in flat] == list(range(len(sequence)))
    done = set()
    for block in blocks:
        assert len(block) <= 4
        colds = [index for _, index, kind in block if kind == "cold"]
        assert len(colds) <= 1
        for _, index, kind in block:
            if kind == "hit":
                assert index in done
            elif kind == "coalesced":
                assert index == colds[0]
        done.update(colds)
    assert [kind for _, _, kind in flat].count("cold") == len(set(sequence))


# -- the tracer ------------------------------------------------------------


def test_tracer_reports_missing_entry_points_and_restores_the_rest(
        monkeypatch):
    from perfbench import tracer as tracer_module
    from repro.stats.counters import StatGroup

    original = StatGroup.__dict__["bump"]
    monkeypatch.setattr(tracer_module, "ENTRY_POINTS", (
        ("stats.bump", "repro.stats.counters", "StatGroup.bump", None),
        ("gone", "repro.sim.events", "plan_that_was_removed", None),
        ("gone", "repro.no_such_module", "anything", None),
        ("gone", "repro.sim.simulator", "Simulator.no_such_method", None),
    ))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        group = StatGroup("x")
        group.bump("a", 2)
        assert group.get("a") == 2
        assert tracer.stats["stats.bump"][0] == 1
    finally:
        tracer.uninstall()
    assert StatGroup.__dict__["bump"] is original
    assert len(tracer.absent) == 3


# -- whole runs -------------------------------------------------------------


@pytest.mark.parametrize("workload", ["fdip_server", "nopf_server",
                                      "serve_mixed"])
def test_tiny_run_passes_the_correctness_gate(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "serve_mixed", "--seed", "3", "--seconds",
                "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert result["correct"]
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert "entry point absent" not in proc.stdout
    assert result["metrics"]["serve.cache_hits"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "fdip_server", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
