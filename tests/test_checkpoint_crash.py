"""SIGKILL-and-resume drills through the real execution paths.

``REPRO_CHECKPOINT_KILL_AFTER=N`` makes a worker SIGKILL itself right
after its N-th machine snapshot (once per checkpoint directory), so
these tests kill real pool workers mid-run and assert the supervised
retry resumes from the snapshot — and that the final results are
bit-identical to a never-killed run.  This is the closest the suite
gets to yanking the power cord.  The same drill runs through the
``repro run`` command line, whose ``--resume-from`` restores a snapshot
by hand.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.harness.parallel import parallel_sweep
from repro.sim.checkpoint import KILL_AFTER_ENV

LENGTH = 2500

_SRC = Path(__file__).resolve().parent.parent / "src"


def _config(kind: str = PrefetcherKind.FDIP, **changes) -> SimConfig:
    config = SimConfig(prefetch=PrefetchConfig(kind=kind))
    return config.replace(**changes) if changes else config


@pytest.mark.slow
def test_sweep_survives_sigkill_with_identical_results(tmp_path,
                                                       monkeypatch):
    points = [("gcc_like", _config(PrefetcherKind.NONE)),
              ("gcc_like", _config(PrefetcherKind.FDIP))]

    clean = parallel_sweep(points, trace_length=LENGTH, seed=3,
                           processes=1)
    assert clean.ok

    monkeypatch.setenv(KILL_AFTER_ENV, "2")
    drilled = parallel_sweep(points, trace_length=LENGTH, seed=3,
                             processes=2, max_retries=2,
                             machine_checkpoints=tmp_path / "mc",
                             checkpoint_interval=500)
    assert drilled.ok, [f.message for f in drilled.failures]
    for point in points:
        assert drilled[point] == clean[point]
    # Every point was killed once and came back from a snapshot.
    assert drilled.counters["crashes"] >= 1
    assert drilled.counters["ckpt_resumes"] >= 1
    assert drilled.counters["snapshots"] > 0


def _repro_run(cwd: Path, *args: str, kill_after: int | None = None,
               ) -> subprocess.CompletedProcess:
    """``repro run -w gcc_like ARGS`` in a fresh interpreter."""
    env = dict(os.environ)
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    env["REPRO_TRACE_CACHE"] = str(cwd / "traces")
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", "-w", "gcc_like", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.slow
def test_cli_run_resumes_a_killed_runs_snapshot(tmp_path):
    directory = tmp_path / "mc"
    drill = ("--length", "6000", "--checkpoint-interval", "500",
             "--machine-checkpoint-dir", str(directory))
    clean = _repro_run(tmp_path, "--length", "6000")
    assert clean.returncode == 0, clean.stderr

    killed = _repro_run(tmp_path, *drill, kill_after=2)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    snapshot = directory / "ckpt-000000001000.ckpt.json"
    assert snapshot.exists()

    resumed = _repro_run(tmp_path, "--length", "6000",
                         "--resume-from", str(snapshot))
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean.stdout

    # Another run's snapshot is refused, not resumed.
    other = _repro_run(tmp_path, "--length", "5000",
                       "--resume-from", str(snapshot))
    assert other.returncode == 2
    assert "error:" in other.stderr and "different run" in other.stderr

    # The killed command, rerun, picks up its newest snapshot by itself.
    rerun = _repro_run(tmp_path, *drill, kill_after=2)
    assert rerun.returncode == 0, rerun.stderr
    assert "resumed from cycle 1000" in rerun.stderr
    assert rerun.stdout == clean.stdout
