"""In-run machine checkpointing: snapshot format and resume identity.

The load-bearing property is at the top: a simulation resumed from ANY
snapshot produces a bit-identical :class:`~repro.sim.SimResult` —
including interval telemetry — to the uninterrupted run, for every
prefetcher variant, under every cycle engine, and across engine switches.
Every resume unpickles a snapshot's machine bytes into a new object
graph, exactly as a resume from disk does, so no live object of the
reference run can leak into the resumed one.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import random

import pytest

from repro.config import ENGINES, PrefetchConfig, PrefetcherKind, \
    SimConfig
from repro.errors import CheckpointError, ConfigError, \
    WatchdogStallError
from repro.fsutil import QUARANTINE_DIR
from repro.harness.supervise import RetryPolicy, run_supervised
from repro.sim import (
    CheckpointManager,
    Simulator,
    run_with_checkpoints,
    snapshot_meta,
)
from repro.sim.checkpoint import read_heartbeat, read_summary
from repro.workloads import build_trace
from tests import _faulty

LENGTH = 2500

_TRACE = build_trace("gcc_like", LENGTH, seed=7)


def _config(kind: str = PrefetcherKind.FDIP, **changes) -> SimConfig:
    config = SimConfig(prefetch=PrefetchConfig(kind=kind),
                       telemetry_window=64)
    return config.replace(**changes) if changes else config


def _recording(config: SimConfig, engine: str = "event",
               interval: int = 400, **run):
    """A simulator whose snapshots, one every ``interval`` cycles, land
    in the returned list."""
    sim = Simulator(_TRACE, config, engine=engine, **run)
    states: list[dict] = []
    sim.checkpoint_every(interval, states.append)
    return sim, states


def _reference(config: SimConfig, engine: str = "event",
               interval: int = 400):
    """Uninterrupted run; returns (result, snapshots)."""
    sim, states = _recording(config, engine, interval)
    return sim.run(), states


def _restored(config: SimConfig, state: dict, engine: str = "event"):
    return Simulator.restore(_TRACE, config, state["machine"],
                             engine=engine)


def _resume(config: SimConfig, state: dict, engine: str = "event"):
    return _restored(config, state, engine).run()


# Config settings (and run options) the prefetcher-kind fuzz below
# leaves at their defaults; each variant gets one cross-engine resume.
_CONFIG_VARIANTS = [
    ("two_level_ftb", {"frontend.predictor.ftb_sets": 32,
                       "frontend.predictor.ftb_l2_sets": 256}, {}),
    ("no_wrong_path", {"frontend.model_wrong_path": False}, {}),
    ("wrong_path_in_window", {"core.wrong_path_in_window": True}, {}),
    ("two_fetch_accesses", {"core.fetch_accesses_per_cycle": 2}, {}),
    ("perfect_direction", {"frontend.perfect_direction": True}, {}),
    ("tiny_queues", {"frontend.ftq_depth": 2, "memory.mshr_entries": 1,
                     "core.window_size": 8}, {}),
    ("max_lookahead", {"prefetch.max_lookahead": 4}, {}),
    ("stream_probe_depth", {"prefetch.kind": PrefetcherKind.STREAM,
                            "prefetch.stream_probe_depth": 3,
                            "prefetch.allocation_filter": False}, {}),
    ("fast_forward_warmup", {"fast_forward_instructions": 800,
                             "warmup_instructions": 400}, {}),
    ("local_direction", {"frontend.predictor.direction": "local"}, {}),
    ("profile", {}, {"profile": True}),
]

# Per-engine fuzz seed bases, pinned so each engine keeps drawing the
# same cadences and resume points when the engine list changes.
_FUZZ_SEED = {"naive": 0, "event": 2000}


# ----------------------------------------------------------------------
# Bit-identical resume (the tentpole guarantee)
# ----------------------------------------------------------------------

class TestResumeBitIdentity:

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", PrefetcherKind.ALL)
    def test_every_variant_resumes_identically(self, kind, engine):
        """Fuzz: arbitrary snapshot cadence, arbitrary resume points."""
        rng = random.Random(_FUZZ_SEED[engine]
                            + PrefetcherKind.ALL.index(kind))
        interval = rng.randrange(150, 700)
        config = _config(kind)
        ref, states = _reference(config, engine, interval)
        assert states, "trace too short to ever snapshot"
        for state in rng.sample(states, min(3, len(states))):
            assert _resume(config, state, engine) == ref

    def test_resume_crosses_engines(self):
        """A snapshot taken under one engine resumes under any other."""
        config = _config()
        refs, states = {}, {}
        for engine in ENGINES:
            refs[engine], states[engine] = _reference(config, engine)
        ref = refs["naive"]
        assert all(refs[engine] == ref for engine in ENGINES)
        for source in ENGINES:
            mid = states[source][len(states[source]) // 2]
            for target in ENGINES:
                if target != source:
                    assert _resume(config, mid, target) == ref, \
                        (source, target)

    @pytest.mark.parametrize("source, target, overrides, run", [
        pytest.param(source, target, overrides, run, id=name)
        for (name, overrides, run), (source, target) in zip(
            _CONFIG_VARIANTS,
            [("naive", "event"), ("event", "naive")] * 6)])
    def test_config_variant_resumes_across_engines(self, source, target,
                                                   overrides, run):
        """Settings off the default path: a mid-run snapshot taken
        under one engine resumes under the other, bit for bit."""
        config = _config().with_overrides(**overrides)
        sim, states = _recording(config, source, 300, **run)
        ref = sim.run()
        assert len(states) >= 2, "trace too short to snapshot mid-run"
        resumed = _restored(config, states[len(states) // 2], target)
        assert resumed.run() == ref
        if run.get("profile"):
            assert resumed.profile_report()["buckets"] \
                == sim.profile_report()["buckets"]

    def test_resume_inside_warmup_region(self):
        """Snapshots before the measurement reset still resume exactly."""
        config = _config(warmup_instructions=LENGTH // 2)
        ref, states = _reference(config, interval=250)
        assert _resume(config, states[0]) == ref
        assert _resume(config, states[-1]) == ref


class _Enough(Exception):
    """Stops a run once it has handed over the snapshots a test needs."""


class TestSnapshotContents:

    def test_snapshot_never_carries_the_trace(self):
        """The trace is pickled by reference: no record reaches a
        snapshot, so its size does not grow with the trace."""
        config = _config(fast_forward_instructions=2500)
        sizes = {}
        for length in (5000, 20_000):
            # An explicit name: a fast-forward slice is named after its
            # bounds, which differ between the two lengths.
            sim = Simulator(build_trace("gcc_like", length, seed=1),
                            config, name="gcc_like")
            states: list[dict] = []

            def sink(state, states=states):
                states.append(state)
                if len(states) == 3:
                    raise _Enough

            sim.checkpoint_every(400, sink)
            with pytest.raises(_Enough):
                sim.run()
            for state in states:
                assert b"TraceRecord" not in state["machine"]
            sizes[length] = [(s["cycle"], len(s["machine"]))
                             for s in states]
        assert sizes[5000] == sizes[20_000]


# ----------------------------------------------------------------------
# CheckpointManager: format, rotation, corruption, identity
# ----------------------------------------------------------------------

def _state(cycle: int, **extra) -> dict:
    return {"cycle": cycle, "retired": cycle // 2, **extra}


class TestCheckpointManager:

    def test_write_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = _state(5, payload=[1, 2, {"a": None}])
        path = manager.write(state)
        assert path.exists()
        assert manager.load(path) == state
        assert manager.latest() == state

    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for cycle in (10, 20, 30, 40):
            manager.write(_state(cycle))
        names = [p.name for p in manager.snapshots()]
        assert names == ["ckpt-000000000030.ckpt.json",
                         "ckpt-000000000040.ckpt.json"]
        assert manager.latest() == _state(40)
        assert manager.written == 4

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep=0)

    def test_corrupt_snapshot_quarantined_and_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(_state(10))
        newest = manager.write(_state(20))
        newest.write_text("garbage, as if truncated mid-crash")
        assert manager.latest() == _state(10)
        assert manager.quarantined == 1
        assert not newest.exists()
        assert (tmp_path / QUARANTINE_DIR / newest.name).exists()

    def test_checksum_mismatch_is_corruption(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.write(_state(10))
        envelope = json.loads(path.read_text())
        envelope["payload"] = json.dumps(_state(99))
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            manager.load(path)
        assert manager.latest() is None
        assert manager.quarantined == 1

    def test_payload_that_does_not_unpickle_is_corruption(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(_state(10))
        newest = manager.write(_state(20))
        envelope = json.loads(newest.read_text())
        truncated = pickle.dumps(_state(20))[:-5]
        for payload in (base64.b64encode(b"not a pickle").decode(),
                        base64.b64encode(truncated).decode(),
                        "{not base64}"):
            # The checksum matches: only unpickling can tell.
            envelope["payload"] = payload
            envelope["checksum"] = hashlib.sha256(
                payload.encode()).hexdigest()
            newest.write_text(json.dumps(envelope))
            with pytest.raises(CheckpointError, match="unpickle"):
                manager.load(newest)
        assert manager.latest() == _state(10)
        assert manager.quarantined == 1
        assert (tmp_path / QUARANTINE_DIR / newest.name).exists()

    def test_version_mismatch_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.write(_state(10))
        envelope = json.loads(path.read_text())
        envelope["version"] = 99
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            manager.latest()
        # A version-1 envelope, whose payload was JSON, is refused by
        # its version before anything reads the payload.
        payload = json.dumps(_state(10))
        path.write_text(json.dumps({
            "schema": "repro.checkpoint", "version": 1, "meta": {},
            "checksum": hashlib.sha256(payload.encode()).hexdigest(),
            "payload": payload}))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1"):
            manager.latest()
        # So is a well-formed version-2 envelope: its machines pickled
        # stat groups with a counter dict, which no longer unpickles.
        newest = manager.write(_state(20))
        envelope = json.loads(newest.read_text())
        envelope["version"] = 2
        newest.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 2"):
            manager.latest()
        # And a well-formed version-3 envelope: its FTQ entries carried
        # a scan flag each and its FTQ no scan cursor.
        newest = manager.write(_state(30))
        envelope = json.loads(newest.read_text())
        envelope["version"] = 3
        newest.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 3"):
            manager.latest()

    def test_identity_mismatch_raises_not_resumes(self, tmp_path):
        theirs = CheckpointManager(tmp_path, meta={"trace": "a", "seed": 1})
        theirs.write(_state(10))
        ours = CheckpointManager(tmp_path, meta={"trace": "b", "seed": 1})
        with pytest.raises(CheckpointError, match="different run"):
            ours.latest()

    def test_heartbeat_written_and_seeds_totals(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(_state(10))
        manager.write(_state(20))
        beat = read_heartbeat(tmp_path)
        assert beat["cycle"] == 20
        assert beat["retired"] == 10
        assert beat["snapshots"] == 2
        # A later attempt in the same directory (the killed worker's
        # retry) keeps counting from where the last one died.
        retry = CheckpointManager(tmp_path)
        assert retry.written == 2
        retry.write(_state(30))
        assert read_heartbeat(tmp_path)["snapshots"] == 3

    def test_clear_drops_snapshots_and_heartbeat(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(_state(10))
        manager.clear()
        assert manager.snapshots() == []
        assert read_heartbeat(tmp_path) is None


# ----------------------------------------------------------------------
# run_with_checkpoints: the one-call resumable run
# ----------------------------------------------------------------------

class TestRunWithCheckpoints:

    def test_clean_run_writes_summary_and_cleans_up(self, tmp_path):
        config = _config()
        ref, _ = _reference(config, interval=500)
        run = run_with_checkpoints(_TRACE, config, directory=tmp_path,
                                   checkpoint_interval=500)
        assert run.result == ref
        assert run.snapshots_written > 0
        assert run.resumed_from_cycle is None
        assert list(tmp_path.glob("ckpt-*.ckpt.json")) == []
        summary = read_summary(tmp_path)
        assert summary["snapshots"] == run.snapshots_written
        assert summary["resumed_from_cycle"] is None

    def test_resumes_from_snapshot_on_disk(self, tmp_path):
        config = _config()
        ref, states = _reference(config)
        seed_mgr = CheckpointManager(tmp_path,
                                     meta=snapshot_meta(_TRACE, config))
        seed_mgr.write(states[1])
        run = run_with_checkpoints(_TRACE, config, directory=tmp_path,
                                   checkpoint_interval=400)
        assert run.result == ref
        assert run.resumed_from_cycle == states[1]["cycle"]
        assert read_summary(tmp_path)["resumed_from_cycle"] \
            == states[1]["cycle"]

    def test_refuses_other_runs_snapshots(self, tmp_path):
        config = _config()
        _, states = _reference(config)
        seed_mgr = CheckpointManager(tmp_path,
                                     meta=snapshot_meta(_TRACE, config))
        seed_mgr.write(states[0])
        other = _config(PrefetcherKind.STREAM)
        with pytest.raises(CheckpointError, match="different run"):
            run_with_checkpoints(_TRACE, other, directory=tmp_path,
                                 checkpoint_interval=400)

    def test_resume_false_ignores_snapshots(self, tmp_path):
        config = _config()
        ref, states = _reference(config)
        seed_mgr = CheckpointManager(tmp_path,
                                     meta=snapshot_meta(_TRACE, config))
        seed_mgr.write(states[1])
        run = run_with_checkpoints(_TRACE, config, directory=tmp_path,
                                   checkpoint_interval=400, resume=False)
        assert run.result == ref
        assert run.resumed_from_cycle is None


# ----------------------------------------------------------------------
# No-progress watchdog
# ----------------------------------------------------------------------

class TestWatchdog:

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fires_with_state_dump(self, engine):
        # Nothing retires in the first few cycles (fill latency), so a
        # 2-cycle watchdog converts that into the typed stall error any
        # genuine livelock would produce.
        sim = Simulator(_TRACE, _config(), engine=engine,
                        watchdog_interval=2)
        with pytest.raises(WatchdogStallError) as info:
            sim.run()
        err = info.value
        assert err.retired == 0
        assert err.cycle >= err.interval == 2
        assert err.state, "stall error must carry a machine-state dump"

    def test_negative_run_options_rejected(self):
        with pytest.raises(ConfigError, match="watchdog_interval"):
            Simulator(_TRACE, _config(), watchdog_interval=-1)
        with pytest.raises(ConfigError, match="checkpoint interval"):
            Simulator(_TRACE, _config()).checkpoint_every(0, print)

    def test_quiet_on_progressing_run(self):
        ref, _ = _reference(_config(), interval=500)
        sim = Simulator(_TRACE, _config(), watchdog_interval=10_000)
        assert sim.run() == ref


# ----------------------------------------------------------------------
# Supervisor: slow-but-progressing vs stuck
# ----------------------------------------------------------------------

class TestStallDiscrimination:

    def test_progressing_worker_outlives_its_timeout(self, tmp_path):
        progress_file = tmp_path / "progress"

        def probe(key):
            try:
                return progress_file.read_text()
            except OSError:
                return None

        policy = RetryPolicy(max_retries=0, point_timeout=0.4,
                             backoff_base=0.0)
        outcome = run_supervised(
            _faulty.slow_progress,
            [("p", (str(tmp_path / "count"), str(progress_file),
                    10, 0.15, "done"))],
            processes=2, policy=policy, progress=probe)
        assert outcome.results == {"p": "done"}
        assert outcome.counters["stalls"] >= 1
        assert outcome.counters["timeouts"] == 0
        assert _faulty.read_count(str(tmp_path / "count")) == 1

    def test_stuck_worker_still_killed(self, tmp_path):
        counter = str(tmp_path / "count")
        policy = RetryPolicy(max_retries=1, point_timeout=0.5,
                             backoff_base=0.0)
        outcome = run_supervised(
            _faulty.hang_then_ok, [("p", (counter, 1, "woke", 30.0))],
            processes=2, policy=policy,
            progress=lambda key: "frozen")
        assert outcome.results == {"p": "woke"}
        assert outcome.counters["timeouts"] >= 1
        assert outcome.counters["stalls"] == 0
