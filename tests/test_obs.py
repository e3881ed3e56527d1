"""Structured observability: the event log, span tracing, and the
cycle-attribution profiler (``repro.obs``)."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import PrefetchConfig, PrefetcherKind, SimConfig
from repro.errors import ConfigError, ObservabilityError, SimulationError
from repro.obs import (
    EVENT_SCHEMA,
    KINDS,
    PROFILE_CATEGORIES,
    PROFILE_SCHEMA,
    configure_logging,
    current_context,
    current_run_id,
    emit,
    export_chrome_trace,
    logging_active,
    obs_context,
    parse_event_line,
    profile_run,
    read_events,
    reset_logging,
    spans_from_events,
    trace_from_events,
    validate_chrome_trace,
    validate_event,
)
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def _isolated_logging(monkeypatch):
    """Each test starts and ends with no sinks and a clean environment."""
    for name in ("REPRO_LOG_FILE", "REPRO_LOG_STDERR",
                 "REPRO_LOG_RUN_ID"):
        monkeypatch.delenv(name, raising=False)
    reset_logging()
    yield
    reset_logging()


def _fdip() -> SimConfig:
    return SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP))


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------

class TestEventLog:
    def test_emit_is_noop_without_sinks(self, tmp_path):
        assert not logging_active()
        emit("run_start", data={"name": "x"})   # must not raise or write

    def test_file_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        run_id = configure_logging(file=path)
        emit("run_start", data={"name": "t", "cycle": 0})
        emit("run_end", data={"name": "t", "cycle": 10})
        events = read_events(path)
        assert [e["kind"] for e in events] == ["run_start", "run_end"]
        for event in events:
            assert event["schema"] == EVENT_SCHEMA
            assert event["run"] == run_id
            assert event["pid"] == os.getpid()
        assert events[0]["seq"] < events[1]["seq"]
        assert events[0]["ts"] <= events[1]["ts"]

    def test_every_kind_validates(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        configure_logging(file=path)
        for kind in sorted(KINDS):
            emit(kind, data={"probe": kind})
        events = read_events(path)
        assert {e["kind"] for e in events} == KINDS
        for event in events:
            assert validate_event(event) is event

    def test_unknown_kind_rejected(self, tmp_path):
        configure_logging(file=str(tmp_path / "e.jsonl"))
        with pytest.raises(ObservabilityError, match="unknown event kind"):
            emit("made_up_kind")

    def test_context_nesting_and_overrides(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        configure_logging(file=path)
        with obs_context(point="gcc/abc"):
            with obs_context(attempt=2):
                assert current_context() == {"point": "gcc/abc",
                                             "attempt": 2}
                emit("task_spawn")
                emit("task_done", attempt=3)    # kwarg beats context
            emit("task_retry")
        events = read_events(path)
        spawn, done, retry = events
        assert (spawn["point"], spawn["attempt"]) == ("gcc/abc", 2)
        assert done["attempt"] == 3
        assert (retry["point"], retry["attempt"]) == ("gcc/abc", None)

    def test_unknown_correlation_field_rejected(self):
        with pytest.raises(ObservabilityError, match="correlation"):
            with obs_context(workload="nope"):
                pass

    def test_kind_filter_and_stable_order(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        configure_logging(file=path)
        for _ in range(3):
            emit("task_spawn")
            emit("task_done")
        spawns = read_events(path, kinds={"task_spawn"})
        assert [e["kind"] for e in spawns] == ["task_spawn"] * 3

    def test_malformed_lines_rejected(self):
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            parse_event_line("{nope")
        with pytest.raises(ObservabilityError, match="schema"):
            parse_event_line(json.dumps({"schema": "other/v9"}))
        good = {"schema": EVENT_SCHEMA, "kind": "run_start", "ts": 1.0,
                "wall": 1.0, "pid": 1, "seq": 1, "run": None,
                "point": None, "attempt": None, "data": {}}
        assert parse_event_line(json.dumps(good))["kind"] == "run_start"
        bad = dict(good, attempt="first")
        with pytest.raises(ObservabilityError, match="attempt"):
            validate_event(bad)
        # v1 lines (which carried a shard field) and the removed shard
        # kinds no longer validate.
        v1 = dict(good, schema="repro.events/v1", shard=None)
        with pytest.raises(ObservabilityError, match="schema"):
            parse_event_line(json.dumps(v1))
        for kind in ("shard_start", "shard_end"):
            with pytest.raises(ObservabilityError, match="kind"):
                parse_event_line(json.dumps(dict(good, kind=kind)))

    def test_configure_propagates_through_environment(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        run_id = configure_logging(file=path)
        assert os.environ["REPRO_LOG_FILE"] == path
        assert os.environ["REPRO_LOG_RUN_ID"] == run_id
        # A "worker" process adopts the env lazily after a reset.
        reset_logging(scrub_env=False)
        assert logging_active()
        assert current_run_id() == run_id
        emit("task_spawn")
        assert read_events(path)[0]["run"] == run_id
        reset_logging()
        assert "REPRO_LOG_FILE" not in os.environ


class TestSimulatorEvents:
    def test_run_lifecycle_with_warmup(self, tmp_path, small_trace):
        path = str(tmp_path / "e.jsonl")
        configure_logging(file=path)
        config = _fdip().replace(warmup_instructions=5_000)
        result = Simulator(small_trace, config).run()
        events = read_events(path)
        kinds = [e["kind"] for e in events]
        assert kinds == ["run_start", "warmup_end", "run_end"]
        start, warm, end = events
        assert start["data"]["engine"] == "event"   # the default engine
        assert start["data"]["resumed"] is False
        assert warm["data"]["cycle"] < end["data"]["cycle"]
        # run_end's retired counts the whole run, warm-up included.
        assert end["data"]["retired"] >= result.instructions
        assert end["data"]["instructions_per_second"] > 0

    def test_events_do_not_change_results(self, tmp_path, tiny_trace):
        silent = Simulator(tiny_trace, _fdip()).run()
        configure_logging(file=str(tmp_path / "e.jsonl"))
        logged = Simulator(tiny_trace, _fdip()).run()
        assert logged == silent


# ----------------------------------------------------------------------
# Sweep correlation (the end-to-end acceptance path)
# ----------------------------------------------------------------------

class TestSweepCorrelation:
    def _sweep(self, tmp_path, processes):
        from repro.harness import parallel_sweep, technique_config

        path = str(tmp_path / "sweep.jsonl")
        run_id = configure_logging(file=path)
        outcome = parallel_sweep(
            [("compress_like", technique_config("none")),
             ("compress_like", technique_config("fdip_enqueue"))],
            trace_length=3_000, processes=processes)
        assert outcome.ok
        return run_id, read_events(path)

    @pytest.mark.parametrize("processes", [1, 2],
                             ids=["inline", "pooled"])
    def test_worker_events_share_run_and_point_ids(self, tmp_path,
                                                   processes):
        run_id, events = self._sweep(tmp_path, processes)
        assert {e["run"] for e in events} == {run_id}
        kinds = {e["kind"] for e in events}
        assert {"sweep_start", "task_spawn", "run_start", "run_end",
                "task_done", "sweep_end"} <= kinds
        # Events emitted inside workers carry the scheduling context.
        for event in events:
            if event["kind"] in ("run_start", "run_end", "task_done"):
                assert event["point"], event
                assert event["attempt"] == 1
        points = {e["point"] for e in events if e["kind"] == "task_done"}
        assert len(points) == 2

    def test_span_tree_and_chrome_export(self, tmp_path):
        _, events = self._sweep(tmp_path, 1)
        spans = spans_from_events(events)
        names = [s.name for s in spans]
        assert sum(n == "sweep" for n in names) == 1
        assert sum(n.startswith("attempt ") for n in names) == 2
        assert sum(n.startswith("sim ") for n in names) == 2
        for span in spans:
            assert span.duration >= 0.0
        out = tmp_path / "sweep.trace.json"
        count = export_chrome_trace(tmp_path / "sweep.jsonl", out)
        document = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) is document
        assert len(document["traceEvents"]) == count == len(spans)

    def test_instant_kinds_become_markers(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        configure_logging(file=path)
        emit("pool_rebuild", data={"rebuilds": 1})
        emit("watchdog_stall", data={"cycle": 9})
        document = trace_from_events(read_events(path))
        validate_chrome_trace(document)
        phases = {e["name"]: e["ph"] for e in document["traceEvents"]}
        assert phases == {"pool_rebuild": "i", "watchdog_stall": "i"}


# ----------------------------------------------------------------------
# Cycle profiler
# ----------------------------------------------------------------------

class TestCycleProfiler:
    @pytest.mark.parametrize("kind", PrefetcherKind.ALL)
    def test_buckets_sum_to_cycles(self, small_trace, kind):
        config = SimConfig(prefetch=PrefetchConfig(kind=kind))
        response = profile_run(small_trace, config)
        result, profile = response.result, response.profile
        assert response.source == "computed"
        assert profile["schema"] == PROFILE_SCHEMA
        assert sum(profile["buckets"].values()) == result.cycles
        assert profile["cycles"] == result.cycles
        assert profile["meta"]["prefetcher"] == kind

    def test_identical_under_both_engines(self, small_trace):
        event_response = profile_run(small_trace, _fdip(),
                                     engine="event")
        naive_response = profile_run(small_trace, _fdip(),
                                     engine="naive")
        event_result, event = (event_response.result,
                               event_response.profile)
        naive_result, naive = (naive_response.result,
                               naive_response.profile)
        assert event_result == naive_result
        assert event["buckets"] == naive["buckets"]

    def test_profiling_never_perturbs_results(self, small_trace):
        plain = Simulator(small_trace, _fdip()).run()
        profiled = profile_run(small_trace, _fdip()).result
        assert profiled == plain

    def test_component_regrouping_consistent(self, small_trace):
        profile = profile_run(small_trace, _fdip()).profile
        components = dict(PROFILE_CATEGORIES)
        regrouped = sum(cycles
                        for causes in profile["components"].values()
                        for cycles in causes.values())
        assert regrouped == profile["cycles"]
        for component, causes in profile["components"].items():
            for cause in causes:
                assert components[cause] == component

    def test_warmup_excluded_from_profile(self, small_trace):
        config = _fdip().replace(warmup_instructions=5_000)
        response = profile_run(small_trace, config)
        result, profile = response.result, response.profile
        # Only the measured region is attributed, not warm-up cycles.
        assert sum(profile["buckets"].values()) == result.cycles

    def test_checkpoint_resume_preserves_profile(self, small_trace):
        config = _fdip()
        sim = Simulator(small_trace, config, profile=True)
        states: list[dict] = []
        sim.checkpoint_every(400, states.append)
        reference = sim.run()
        expected = sim.profile_report()
        assert states, "trace too short to ever snapshot"
        resumed = Simulator.restore(small_trace, config,
                                    states[len(states) // 2]["machine"])
        assert resumed.run() == reference
        assert resumed.profile_report()["buckets"] == expected["buckets"]

    def test_profile_report_requires_opt_in(self, tiny_trace):
        sim = Simulator(tiny_trace, _fdip())
        sim.run()
        with pytest.raises(SimulationError, match="profile=True"):
            sim.profile_report()


# ----------------------------------------------------------------------
# Config surface for observability
# ----------------------------------------------------------------------

class TestObservabilityConfig:
    def test_unknown_kwarg_suggests_closest_field(self):
        with pytest.raises(ConfigError,
                           match="did you mean 'telemetry_window'"):
            SimConfig.from_dict({"telemetry_windw": 64})
