"""SIGKILL-and-resume drills through the real execution paths.

``REPRO_CHECKPOINT_KILL_AFTER=N`` makes a worker SIGKILL itself right
after its N-th machine snapshot (once per checkpoint directory), so
these tests kill real pool workers mid-run and assert the supervised
retry resumes from the snapshot — and that the final results are
bit-identical to a never-killed run.  This is the closest the suite
gets to yanking the power cord.
"""

from __future__ import annotations

import pytest

from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.harness.parallel import parallel_sweep
from repro.sim.checkpoint import KILL_AFTER_ENV

LENGTH = 2500


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

