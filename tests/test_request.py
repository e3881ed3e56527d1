"""RunRequest / RunResponse and the shared resolve_request path."""

from __future__ import annotations

import json

import pytest

from repro.api import execute, simulate
from repro.config import PrefetchConfig, SimConfig
from repro.errors import ConfigError
from repro.obs import profile_run
from repro.sim.serialize import result_to_json
from repro.spec import (
    REQUEST_SCHEMA,
    RunRequest,
    RunResponse,
    resolve_request,
)
from repro.workloads import build_trace

LENGTH = 6_000


class TestRunRequestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            RunRequest("")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError, match="SimConfig"):
            RunRequest("gcc_like", config={"kind": "fdip"})

    def test_bad_trace_length_rejected(self):
        with pytest.raises(ConfigError, match="trace_length"):
            RunRequest("gcc_like", trace_length=0)

    def test_name_prefers_label(self):
        assert RunRequest("gcc_like").name == "gcc_like"
        assert RunRequest("gcc_like", label="exp3").name == "exp3"

    def test_unresolved_request_has_no_cache_key(self):
        with pytest.raises(ConfigError, match="resolve_request"):
            RunRequest("gcc_like").cache_key()


class TestResolveRequest:
    def test_pins_every_default(self):
        request = resolve_request(workload="gcc_like")
        assert request.resolved
        assert request.trace_length is not None
        request.cache_key()   # resolvable now

    def test_kwargs_override_request_fields(self):
        base = RunRequest("gcc_like", trace_length=LENGTH, seed=1)
        overridden = resolve_request(base, seed=7, label="alt")
        assert overridden.seed == 7
        assert overridden.label == "alt"
        assert overridden.workload == "gcc_like"

    def test_needs_a_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            resolve_request()

    def test_rejects_non_request(self):
        with pytest.raises(ConfigError, match="RunRequest"):
            resolve_request(("gcc_like", SimConfig()))

    def test_idempotent(self):
        once = resolve_request(workload="gcc_like", trace_length=LENGTH)
        assert resolve_request(once) == once


class TestWireForm:
    def test_round_trip(self):
        request = resolve_request(
            workload="gcc_like",
            config=SimConfig(prefetch=PrefetchConfig(kind="fdip")),
            trace_length=LENGTH, seed=3, label="point-a")
        payload = request.to_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        json.dumps(payload)   # JSON-compatible by construction
        rebuilt = RunRequest.from_dict(payload)
        assert rebuilt == request
        assert rebuilt.cache_key() == request.cache_key()

    def test_unknown_key_rejected(self):
        payload = RunRequest("gcc_like").to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            RunRequest.from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = RunRequest("gcc_like").to_dict()
        # A v1 body also carried the two keys of sharded execution.
        v1 = dict(payload, schema="repro.request/v1", shards=1,
                  shard_overlap=None)
        # A v2 body's config also carried five run options.
        v2 = dict(payload, schema="repro.request/v2",
                  config=dict(payload["config"], engine="event",
                              checkpoint_interval=0, watchdog_interval=0,
                              profile=False, event_log=None))
        # A v3 body's config also stated the trace length.
        v3 = dict(payload, schema="repro.request/v3",
                  config=dict(payload["config"], max_instructions=None))
        for body in (dict(payload, schema="repro.request/v99"), v1, v2,
                     v3):
            with pytest.raises(ConfigError, match="schema"):
                RunRequest.from_dict(body)

    def test_config_naming_max_instructions_rejected(self):
        payload = RunRequest("gcc_like").to_dict()
        body = dict(payload, config=dict(payload["config"],
                                         max_instructions=1_000))
        with pytest.raises(ConfigError, match="max_instructions"):
            RunRequest.from_dict(body)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            RunRequest.from_dict(None)


class TestExecute:
    def test_execute_matches_simulate_bit_identically(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        request = resolve_request(workload="compress_like",
                                  trace_length=LENGTH, seed=1,
                                  label="compress_like")
        response = execute(request)
        direct = simulate(trace, SimConfig(), name="compress_like")
        assert response.source == "computed"
        assert result_to_json(response.result) == result_to_json(direct)

    def test_execute_accepts_a_prebuilt_trace(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        request = resolve_request(workload="compress_like",
                                  trace_length=LENGTH, seed=1)
        via_trace = execute(request, trace=trace)
        rebuilt = execute(request)
        assert result_to_json(via_trace.result) == \
            result_to_json(rebuilt.result)


class TestRunResponse:
    def _response(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        return profile_run(trace, SimConfig())

    def test_profile_run_returns_response(self):
        response = self._response()
        assert isinstance(response, RunResponse)
        assert response.source == "computed"
        assert response.profile is not None
        assert response.profile["cycles"] == response.result.cycles

    def test_bad_source_rejected(self):
        response = self._response()
        with pytest.raises(ConfigError, match="source"):
            RunResponse(result=response.result,
                        request=response.request, source="psychic")
