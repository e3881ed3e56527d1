"""Fault-tolerant sweep execution: retries, timeouts, resume.

Covers the supervised executor (injected flaky / crashing / hanging
workers), the hardened result store (checksums + quarantine), resume
from the store with run-count assertions, environment validation, and
the ``repro sweep`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import env
from repro.errors import (
    CacheCorruptionError,
    ConfigError,
    PointTimeoutError,
    ReproError,
    RetryExhaustedError,
    WorkerCrashError,
)
from repro.harness import (
    Point,
    ResultStore,
    Runner,
    RetryPolicy,
    parallel_sweep,
    result_key,
    run_supervised,
    technique_config,
)
from repro.api import simulate
from repro.sim import InvariantViolation, guard_invariants
from repro.stats.sweep import merge_counters, summary_line, sweep_stat_group
from tests import _faulty

FAST = RetryPolicy(max_retries=2, backoff_base=0.0)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


class TestRetryPolicy:
    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_base=1.0)
        assert policy.backoff("k", 2) == policy.backoff("k", 2)
        assert policy.backoff("k", 2) != policy.backoff("other", 2)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_max=4.0, jitter_fraction=0.0)
        assert policy.backoff("k", 1) == pytest.approx(1.0)
        assert policy.backoff("k", 2) == pytest.approx(2.0)
        assert policy.backoff("k", 5) == pytest.approx(4.0)

    def test_zero_base_means_no_sleep(self):
        assert FAST.backoff("k", 3) == 0.0

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                             jitter_fraction=0.25)
        for key in ("a", "b", "c", "d"):
            assert 0.75 <= policy.backoff(key, 1) <= 1.25


class TestSupervisedInline:
    def test_flaky_task_retries_then_succeeds(self, tmp_path):
        counter = str(tmp_path / "flaky.count")
        outcome = run_supervised(
            _faulty.flaky, [("p", (counter, 2, "value"))],
            processes=1, policy=FAST)
        assert outcome.results == {"p": "value"}
        assert outcome.counters["retried"] == 2
        assert outcome.counters["completed"] == 1
        assert _faulty.read_count(counter) == 3

    def test_exhausted_task_records_attempt_history(self, tmp_path):
        counter = str(tmp_path / "dead.count")
        outcome = run_supervised(
            _faulty.flaky, [("p", (counter, 99, "never"))],
            processes=1, policy=FAST)
        assert outcome.results == {}
        failure = outcome.failures["p"]
        assert [a.attempt for a in failure.attempts] == [1, 2, 3]
        assert failure.error_type == "RuntimeError"
        assert "flaky failure #3" in failure.message
        error = failure.as_error()
        assert isinstance(error, RetryExhaustedError)
        assert "3 attempt(s)" in str(error)

    def test_other_tasks_survive_a_failing_one(self, tmp_path):
        tasks = [
            ("bad", (str(tmp_path / "bad.count"), 99, None)),
            ("good", (str(tmp_path / "good.count"), 0, 42)),
        ]
        outcome = run_supervised(_faulty.flaky, tasks,
                                 processes=1, policy=FAST)
        assert outcome.results == {"good": 42}
        assert set(outcome.failures) == {"bad"}

    def test_callbacks_fire(self, tmp_path):
        seen = []
        run_supervised(
            _faulty.flaky,
            [("ok", (str(tmp_path / "a"), 0, 1)),
             ("bad", (str(tmp_path / "b"), 99, None))],
            processes=1, policy=FAST,
            on_success=lambda key, value: seen.append(("ok", key, value)),
            on_failure=lambda key, failure: seen.append(("fail", key)))
        assert ("ok", "ok", 1) in seen
        assert ("fail", "bad") in seen


class TestSupervisedPool:
    def test_worker_crash_rebuilds_pool_and_retries(self, tmp_path):
        counter = str(tmp_path / "crash.count")
        outcome = run_supervised(
            _faulty.crash_then_ok, [("p", (counter, 1, "survived"))],
            processes=2, policy=FAST)
        assert outcome.results == {"p": "survived"}
        assert outcome.counters["crashes"] >= 1
        assert outcome.counters["rebuilds"] >= 1
        assert _faulty.read_count(counter) == 2

    def test_crash_charged_only_to_its_own_task(self, tmp_path):
        """Two tasks that each crash once, at different times, both
        succeed with a single retry: the early crash takes the late
        task down with the pool, and must not cost it an attempt."""
        tasks = [("early", (str(tmp_path / "early.count"), 0.0, "a")),
                 ("late", (str(tmp_path / "late.count"), 0.5, "b"))]
        outcome = run_supervised(
            _faulty.crash_once_after, tasks, processes=2,
            policy=RetryPolicy(max_retries=1, backoff_base=0.0))
        assert outcome.failures == {}
        assert outcome.results == {"early": "a", "late": "b"}
        assert _faulty.read_count(str(tmp_path / "late.count")) == 2

    def test_persistent_crasher_becomes_failure(self, tmp_path):
        counter = str(tmp_path / "crash.count")
        outcome = run_supervised(
            _faulty.crash, [("p", (counter,))],
            processes=2, policy=RetryPolicy(max_retries=1,
                                            backoff_base=0.0))
        assert outcome.results == {}
        failure = outcome.failures["p"]
        assert failure.error_type == WorkerCrashError.__name__
        assert len(failure.attempts) == 2

    def test_hung_worker_times_out_then_succeeds(self, tmp_path):
        counter = str(tmp_path / "hang.count")
        policy = RetryPolicy(max_retries=2, backoff_base=0.0,
                             point_timeout=0.75)
        outcome = run_supervised(
            _faulty.hang_then_ok, [("p", (counter, 1, "woke", 30.0))],
            processes=2, policy=policy)
        assert outcome.results == {"p": "woke"}
        assert outcome.counters["timeouts"] >= 1
        assert outcome.counters["rebuilds"] >= 1

    def test_persistent_hang_fails_while_others_complete(self, tmp_path):
        policy = RetryPolicy(max_retries=1, backoff_base=0.0,
                             point_timeout=0.75)
        tasks = [
            ("stuck", (str(tmp_path / "stuck.count"), 99, None, 30.0)),
            ("quick", (str(tmp_path / "quick.count"), 0, "done", 30.0)),
        ]
        outcome = run_supervised(_faulty.hang_then_ok, tasks,
                                 processes=2, policy=policy)
        assert outcome.results == {"quick": "done"}
        failure = outcome.failures["stuck"]
        assert failure.error_type == PointTimeoutError.__name__
        assert "0.75s" in failure.message


class TestEnvValidation:
    def test_trace_len_junk_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "junk")
        with pytest.raises(ConfigError, match="junk"):
            env.trace_length_override()

    def test_trace_len_valid_and_floored(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "5")
        assert env.trace_length_override() == 1000
        monkeypatch.setenv("REPRO_TRACE_LEN", "150000")
        assert env.trace_length_override() == 150000
        monkeypatch.delenv("REPRO_TRACE_LEN")
        assert env.trace_length_override() is None

    def test_full_flag_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "yes")
        with pytest.raises(ConfigError, match="yes"):
            env.full_run_requested()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert env.full_run_requested() is True
        monkeypatch.setenv("REPRO_FULL", "0")
        assert env.full_run_requested() is False

    def test_result_cache_must_be_directory(self, tmp_path, monkeypatch):
        victim = tmp_path / "a_file"
        victim.write_text("x")
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(victim))
        with pytest.raises(ConfigError, match="a_file"):
            env.result_cache_dir()
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "dir"))
        assert env.result_cache_dir() == str(tmp_path / "dir")

    def test_runner_surfaces_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "garbage")
        with pytest.raises(ConfigError):
            Runner()

    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)


def _result(workload="w", length=1000, seed=1, store=None):
    from tests.test_persist import make_result
    return make_result()


class TestStoreHardening:
    def _roundtrip_store(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        key = result_key("w", technique_config("none"), 1000, 1)
        store.store_key(key, _result())
        return store, key

    def test_truncated_entry_quarantined_not_deleted(self, tmp_path):
        store, key = self._roundtrip_store(tmp_path)
        victim = next((tmp_path / "results").glob("*.result.json"))
        victim.write_text(victim.read_text()[:40])
        assert store.load_key(key) is None
        assert not victim.exists()
        assert len(store.quarantined_files()) == 1
        assert store.quarantined == 1

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store, key = self._roundtrip_store(tmp_path)
        victim = next((tmp_path / "results").glob("*.result.json"))
        envelope = json.loads(victim.read_text())
        envelope["payload"] = envelope["payload"].replace(
            '"cycles": 1000', '"cycles": 9999')
        victim.write_text(json.dumps(envelope))
        assert store.load_key(key) is None
        assert len(store.quarantined_files()) == 1

    def test_unchecksummed_entry_quarantined(self, tmp_path):
        # A bare payload without the checksum envelope is not trusted:
        # it is quarantined like any other corrupt entry.
        from repro.sim.serialize import result_to_json
        store, key = self._roundtrip_store(tmp_path)
        victim = next((tmp_path / "results").glob("*.result.json"))
        victim.write_text(result_to_json(_result()))
        assert store.load_key(key) is None
        assert not victim.exists()
        assert [p.name for p in store.quarantined_files()] == [victim.name]
        assert store.quarantined == 1

    def test_unique_tmp_names_no_shared_path(self, tmp_path):
        # The old implementation used path.with_suffix('.tmp'), which
        # collides across concurrent writers of the same key; the
        # hardened writer must never leave that shared name behind and
        # must not leave temp droppings after a successful store.
        store, _key = self._roundtrip_store(tmp_path)
        leftovers = list((tmp_path / "results").glob("*.tmp"))
        assert leftovers == []

    def test_cache_corruption_error_fields(self):
        error = CacheCorruptionError("/tmp/x.json", "checksum mismatch")
        assert error.path == "/tmp/x.json"
        assert "quarantin" not in error.reason  # reason is the cause
        assert isinstance(error, ReproError)


class _FlakyOnce:
    """Wraps simulate: raise on the first N calls, then delegate."""

    def __init__(self, fail_times, exc_factory):
        self.calls = 0
        self.fail_times = fail_times
        self.exc_factory = exc_factory

    def __call__(self, trace, config, name=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.exc_factory()
        return simulate(trace, config, name=name)


class TestParallelSweepFaults:
    POINT = ("compress_like", None)  # config filled per test

    def _points(self, *techniques):
        return [("compress_like", technique_config(t)) for t in techniques]

    def test_flaky_point_completes_sweep(self, tmp_path, monkeypatch):
        flaky = _FlakyOnce(1, lambda: RuntimeError("transient"))
        monkeypatch.setattr("repro.harness.parallel.simulate", flaky)
        outcome = parallel_sweep(self._points("none"), trace_length=2000,
                                 processes=1, policy=FAST)
        assert outcome.ok
        assert outcome.counters["retried"] == 1
        assert flaky.calls == 2

    def test_invariant_violation_is_retried_and_classified(
            self, tmp_path, monkeypatch):
        flaky = _FlakyOnce(1, lambda: InvariantViolation(
            ["injected violation"], context="compress_like"))
        monkeypatch.setattr("repro.harness.parallel.simulate", flaky)
        outcome = parallel_sweep(self._points("none"), trace_length=2000,
                                 processes=1, policy=FAST)
        assert outcome.ok
        assert outcome.counters["retried"] == 1

    def test_exhausted_point_degrades_gracefully(self, tmp_path,
                                                 monkeypatch):
        flaky = _FlakyOnce(99, lambda: InvariantViolation(["always bad"]))
        monkeypatch.setattr("repro.harness.parallel.simulate", flaky)
        points = self._points("none", "nlp")
        outcome = parallel_sweep(points, trace_length=2000, processes=1,
                                 policy=FAST)
        # Both points fail (shared fake), sweep still returns an outcome.
        assert len(outcome.failures) == 2
        failure = outcome.failures[0]
        assert failure.error_type == "InvariantViolation"
        assert failure.workload == "compress_like"
        with pytest.raises(RetryExhaustedError):
            outcome.raise_if_failed()

    def test_outcome_is_a_mapping(self, tmp_path):
        points = self._points("none")
        outcome = parallel_sweep(points, trace_length=2000, processes=1)
        assert set(outcome) == set(points)
        assert len(outcome) == 1
        assert outcome[points[0]].instructions > 0
        assert outcome.ok

    def test_worker_validates_invariants(self, tmp_path, monkeypatch):
        # Corrupt the counters the worker produces: the guard must turn
        # the violation into a structured point failure.
        def corrupted(trace, config, name=None):
            result = simulate(trace, config, name=name)
            result.counters["backend.retired"] += 1
            return result

        monkeypatch.setattr("repro.harness.parallel.simulate",
                            corrupted)
        outcome = parallel_sweep(self._points("none"), trace_length=2000,
                                 processes=1,
                                 policy=RetryPolicy(max_retries=0))
        assert not outcome.ok
        assert outcome.failures[0].error_type == "InvariantViolation"
        assert "retired" in outcome.failures[0].message


class TestCheckpointResume:
    def _count_sims(self, monkeypatch):
        counting = _FlakyOnce(0, None)
        monkeypatch.setattr("repro.harness.parallel.simulate",
                            counting)
        return counting

    def test_resume_reruns_only_unfinished_points(self, tmp_path,
                                                  monkeypatch):
        counting = self._count_sims(monkeypatch)
        store = ResultStore(tmp_path / "results")
        first = [("compress_like", technique_config("none")),
                 ("compress_like", technique_config("nlp"))]
        outcome = parallel_sweep(first, trace_length=2000, processes=1,
                                 store=store)
        assert outcome.ok and counting.calls == 2

        # "Interrupted" rerun with one extra point: only it simulates.
        extended = first + [("compress_like",
                             technique_config("stream"))]
        resumed = parallel_sweep(extended, trace_length=2000, processes=1,
                                 store=store)
        assert resumed.ok
        assert counting.calls == 3          # exactly one new simulation
        assert resumed.counters["resumed"] == 2
        assert len(resumed) == 3
        assert "2 resumed" in resumed.summary()

    def test_second_sweep_on_same_store_simulates_nothing(
            self, tmp_path, monkeypatch):
        counting = self._count_sims(monkeypatch)
        store = ResultStore(tmp_path / "results")
        points = [("compress_like", technique_config("none")),
                  ("compress_like", technique_config("nlp"))]
        first = parallel_sweep(points, trace_length=2000, processes=1,
                               store=store)
        second = parallel_sweep(points, trace_length=2000, processes=1,
                                store=store)
        assert counting.calls == 2
        assert second.summary().startswith(
            "sweep: 2/2 points completed (2 resumed)")
        assert dict(second) == dict(first)

    def test_deleted_entry_resimulates_only_that_point(self, tmp_path,
                                                       monkeypatch):
        counting = self._count_sims(monkeypatch)
        store = ResultStore(tmp_path / "results")
        # Warmed explicitly, so each point's config is its store key's.
        points = [("compress_like", technique_config(t).replace(
            warmup_instructions=400)) for t in ("none", "nlp")]
        first = parallel_sweep(points, trace_length=2000, processes=1,
                               store=store)
        victim = result_key("compress_like", points[1][1], 2000, 1)
        (tmp_path / "results" / f"{victim}.result.json").unlink()
        second = parallel_sweep(points, trace_length=2000, processes=1,
                                store=store)
        assert counting.calls == 3
        assert second.counters["resumed"] == 1
        assert dict(second) == dict(first)

    def test_sweep_without_store_simulates_every_point(self, tmp_path,
                                                       monkeypatch):
        counting = self._count_sims(monkeypatch)
        points = [("compress_like", technique_config("none"))]
        parallel_sweep(points, trace_length=2000, processes=1)
        outcome = parallel_sweep(points, trace_length=2000, processes=1)
        assert counting.calls == 2
        assert outcome.counters["resumed"] == 0

    def test_resume_survives_lost_store_entry(self, tmp_path, monkeypatch):
        counting = self._count_sims(monkeypatch)
        store = ResultStore(tmp_path / "results")
        points = [("compress_like", technique_config("none"))]
        parallel_sweep(points, trace_length=2000, processes=1, store=store)
        store.clear()                     # the stored result is lost
        resumed = parallel_sweep(points, trace_length=2000, processes=1,
                                 store=store)
        assert resumed.ok and counting.calls == 2


class TestSweepCounters:
    def test_merge(self):
        merged = merge_counters({"completed": 1, "retried": 2},
                                {"completed": 3, "failed": 1})
        assert merged == {"completed": 4, "retried": 2, "failed": 1}

    def test_stat_group(self):
        group = sweep_stat_group({"completed": 5})
        assert group.name == "sweep"
        assert group.get("completed") == 5
        assert group.get("failed") == 0

    def test_summary_line_full(self):
        line = summary_line({"points": 12, "completed": 8, "resumed": 2,
                             "retried": 3, "failed": 2, "timeouts": 1,
                             "crashes": 1, "rebuilds": 2})
        assert line == ("sweep: 10/12 points completed (2 resumed), "
                        "3 retried, 2 failed "
                        "(1 timeouts, 1 crashes, 2 pool rebuilds)")

    def test_summary_line_minimal(self):
        assert summary_line({"points": 2, "completed": 2}) == \
            "sweep: 2/2 points completed, 0 retried, 0 failed"


class TestRunnerResilience:
    def test_with_seed_propagates_store_and_settings(self, tmp_path):
        parent = Runner(trace_length=2000, warmup_fraction=0.3,
                        persist_dir=str(tmp_path / "results"))
        child = parent.with_seed(7)
        assert child._store is parent._store
        assert child.warmup_fraction == 0.3
        assert child.trace_length == 2000
        assert child.seed == 7

    def test_runner_sweep_memoizes_results(self, tmp_path, monkeypatch):
        runner = Runner(trace_length=2000)
        points = [Point("compress_like", technique_config("none"))]
        outcome = runner.sweep(points, processes=1)
        assert outcome.ok
        assert runner.runs_performed == 1
        # A subsequent run() replays the memo without simulating.
        counting = _FlakyOnce(0, None)
        monkeypatch.setattr("repro.harness.runner.simulate",
                            counting)
        runner.run("compress_like", technique_config("none"))
        assert counting.calls == 0

    def test_runner_run_guards_invariants_before_storing(self, tmp_path,
                                                         monkeypatch):
        def corrupted(trace, config, name=None):
            result = simulate(trace, config, name=name)
            result.counters["backend.retired"] += 1
            return result

        monkeypatch.setattr("repro.harness.runner.simulate", corrupted)
        results = tmp_path / "results"
        runner = Runner(trace_length=2000, persist_dir=str(results))
        with pytest.raises(InvariantViolation, match="retired"):
            runner.run("compress_like", technique_config("none"))
        assert runner.runs_performed == 0
        assert list(results.glob("*.result.json")) == []

    def test_runner_sweep_resumes_from_store(self, tmp_path, monkeypatch):
        results = str(tmp_path / "results")
        points = [Point("compress_like", technique_config("none")),
                  Point("compress_like", technique_config("nlp"))]
        Runner(trace_length=2000, persist_dir=results).sweep(
            points, processes=1)
        counting = _FlakyOnce(0, None)
        monkeypatch.setattr("repro.harness.parallel.simulate", counting)
        runner = Runner(trace_length=2000, persist_dir=results)
        outcome = runner.sweep(points, processes=1)
        assert counting.calls == 0
        assert outcome.summary().startswith(
            "sweep: 2/2 points completed (2 resumed)")
        assert runner.runs_performed == 2

    def test_api_sweep_resumes_from_result_cache(self, tmp_path,
                                                 monkeypatch):
        from repro.api import sweep
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        points = [Point("compress_like", technique_config("none"))]
        sweep(points, trace_length=2000, processes=1)
        counting = _FlakyOnce(0, None)
        monkeypatch.setattr("repro.harness.parallel.simulate", counting)
        outcome = sweep(points, trace_length=2000, processes=1)
        assert counting.calls == 0
        assert outcome.summary().startswith(
            "sweep: 1/1 points completed (1 resumed)")

    def test_runner_accumulates_sweep_counters(self, tmp_path):
        runner = Runner(trace_length=2000)
        runner.sweep([Point("compress_like", technique_config("none"))],
                     processes=1)
        runner.sweep([Point("compress_like", technique_config("nlp"))],
                     processes=1)
        assert runner.sweep_counters["points"] == 2

    def test_report_footer_shows_sweep_summary(self, tmp_path):
        from repro.harness import generate_report
        runner = Runner(trace_length=2000)
        runner.sweep([Point("compress_like", technique_config("none"))],
                     processes=1)
        text = generate_report(runner, experiment_ids=["E1"])
        assert "Sweep execution: sweep: 1/1 points completed" in text

    def test_guard_invariants_returns_result(self, tmp_path):
        from repro.workloads import build_trace
        from repro.config import SimConfig
        trace = build_trace("compress_like", 2000, seed=1)
        result = simulate(trace, SimConfig())
        assert guard_invariants(result) is result

    def test_invariant_violation_pickles_with_diagnostics(self):
        import pickle
        error = InvariantViolation(["a broke", "b broke"], context="w")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.violations == ["a broke", "b broke"]
        assert clone.context == "w"
        assert isinstance(clone, AssertionError)
        assert isinstance(clone, ReproError)


class TestCliSweep:
    def test_sweep_command(self, capsys):
        from repro.cli import main
        code = main(["sweep", "-w", "compress_like", "-t", "none",
                     "--length", "2000", "--processes", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compress_like" in out
        assert "sweep: 1/1 points completed" in out

    def test_sweep_resume_via_checkpoint(self, tmp_path, capsys):
        from repro.cli import main
        checkpoint = str(tmp_path / "ckpt")
        args = ["sweep", "-w", "compress_like", "-t", "none", "nlp",
                "--length", "2000", "--processes", "1",
                "--checkpoint-dir", checkpoint]
        assert main(args) == 0
        capsys.readouterr()
        # Rerunning with the same directory serves every stored point.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sweep: 2/2 points completed (2 resumed)" in out

    def test_report_processes_flag_prewarms(self, capsys):
        from repro.cli import main
        code = main(["report", "--length", "2000", "--experiments", "E1",
                     "--processes", "1"])
        assert code == 0
