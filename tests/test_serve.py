"""The simulation service: coalescing, caching, admission, HTTP."""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import pytest

from repro.api import simulate
from repro.config import SimConfig
from repro.errors import QueueFullError, ServeError
from repro.obs import configure_logging, read_events, reset_logging
import repro.serve.service as service_module
import repro.spec as spec_module
from repro.serve import Client, ResultCache, ServiceDaemon, \
    SimulationService
from repro.sim.serialize import SCHEMA_VERSION, result_to_json
from repro.spec import RunRequest, RunResponse, resolve_request
from repro.workloads import build_trace

LENGTH = 6_000


def _request(seed: int = 1, **kwargs) -> RunRequest:
    return resolve_request(workload="compress_like",
                           trace_length=LENGTH, seed=seed, **kwargs)


@pytest.fixture()
def event_log(tmp_path):
    path = tmp_path / "events.jsonl"
    configure_logging(file=str(path))
    yield path
    reset_logging()


@pytest.fixture(scope="module")
def small_result():
    trace = build_trace("compress_like", LENGTH, seed=1)
    return simulate(trace, SimConfig(), name="compress_like")


def _serve_kinds(path) -> list[str]:
    return [event["kind"] for event in read_events(path)
            if event["kind"].startswith("serve_")]


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.01)


class _GatedExecutor:
    """Counts invocations; holds them until released."""

    def __init__(self, result, fail: bool = False):
        self.result = result
        self.fail = fail
        self.gate = threading.Event()
        self.calls: list[RunRequest] = []

    def __call__(self, request: RunRequest) -> RunResponse:
        self.calls.append(request)
        assert self.gate.wait(timeout=30)
        if self.fail:
            raise RuntimeError("injected executor failure")
        return RunResponse(result=self.result, request=request)


class TestCoalescing:
    def test_concurrent_identical_requests_run_once(self, event_log,
                                                    small_result):
        executor = _GatedExecutor(small_result)
        service = SimulationService(workers=2, executor=executor)
        request = _request()
        ids = [service.submit(request) for _ in range(4)]
        assert len(set(ids)) == 4          # every client gets its own job
        executor.gate.set()
        responses = [service.result(job, timeout=30) for job in ids]
        service.shutdown()

        assert len(executor.calls) == 1    # exactly one simulation
        sources = sorted(r.source for r in responses)
        assert sources == ["coalesced", "coalesced", "coalesced",
                           "computed"]
        # Every follower shares the primary's one result object.
        assert all(r.result is responses[0].result or
                   r.result is small_result for r in responses)

        kinds = _serve_kinds(event_log)
        assert kinds.count("serve_running") == 1
        assert kinds.count("serve_coalesced") == 3
        assert kinds.count("serve_enqueued") == 4
        assert kinds.count("serve_done") == 1

    def test_different_requests_do_not_coalesce(self, small_result):
        executor = _GatedExecutor(small_result)
        service = SimulationService(workers=1, executor=executor,
                                    max_queue_depth=8)
        first = service.submit(_request(seed=1))
        second = service.submit(_request(seed=2))
        executor.gate.set()
        service.result(first, timeout=30)
        service.result(second, timeout=30)
        service.shutdown()
        assert len(executor.calls) == 2

    def test_failure_propagates_to_followers(self, small_result):
        executor = _GatedExecutor(small_result, fail=True)
        service = SimulationService(workers=1, executor=executor)
        request = _request()
        primary = service.submit(request)
        _wait_for(lambda: executor.calls)
        follower = service.submit(request)
        executor.gate.set()
        with pytest.raises(ServeError, match="injected"):
            service.result(primary, timeout=30)
        with pytest.raises(ServeError, match="injected"):
            service.result(follower, timeout=30)
        assert service.counters["failed"] == 2
        service.shutdown()


class TestCacheServing:
    def test_repeat_request_is_a_bit_identical_cache_hit(
            self, tmp_path, event_log):
        service = SimulationService(cache_dir=str(tmp_path / "cache"),
                                    workers=1)
        request = _request(label="compress_like")
        cold = service.result(service.submit(request), timeout=300)
        warm = service.result(service.submit(request), timeout=300)
        service.shutdown()

        assert cold.source == "computed"
        assert warm.source == "cache"
        assert result_to_json(warm.result) == result_to_json(cold.result)
        trace = build_trace("compress_like", LENGTH, seed=1)
        direct = simulate(trace, SimConfig(), name="compress_like")
        assert result_to_json(warm.result) == result_to_json(direct)

        kinds = _serve_kinds(event_log)
        assert kinds.count("serve_running") == 1
        assert kinds.count("serve_cache_hit") == 1
        assert service.cache.hits == 1
        assert service.cache.stores == 1

    def test_cache_survives_service_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        request = _request()
        first = SimulationService(cache_dir=cache_dir, workers=1)
        cold = first.result(first.submit(request), timeout=300)
        first.shutdown()
        second = SimulationService(cache_dir=cache_dir, workers=1)
        warm = second.result(second.submit(request), timeout=30)
        second.shutdown()
        assert warm.source == "cache"
        assert result_to_json(warm.result) == result_to_json(cold.result)


    def test_served_hit_derives_its_cache_key_once(self, tmp_path,
                                                   small_result,
                                                   monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_request(), small_result)
        calls = []
        derive = spec_module.cache_key

        def counting(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(spec_module, "cache_key", counting)
        service = SimulationService(cache, workers=1)
        response = service.result(service.submit(_request()), timeout=30)
        service.shutdown()
        assert response.source == "cache"
        assert len(calls) == 1


class TestJobTable:
    def test_oldest_finished_jobs_are_forgotten(self, tmp_path,
                                                small_result, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 3)
        cache = ResultCache(tmp_path / "cache")
        cache.put(_request(), small_result)
        daemon = ServiceDaemon(SimulationService(cache, workers=1),
                               port=0)
        daemon.start_background()
        client = Client(*daemon.address)
        try:
            jobs = [client.submit(_request()) for _ in range(6)]
            for job in jobs[:3]:
                with pytest.raises(ServeError, match=r"\(404\).*"
                                                     r"unknown job id"):
                    client.fetch(job)
            for job in jobs[3:]:
                assert client.fetch(job).source == "cache"
            assert client.stats()["jobs"] == 3
        finally:
            daemon.stop()

    def test_queued_running_and_followers_are_kept(self, tmp_path,
                                                   small_result,
                                                   monkeypatch):
        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 2)
        cache = ResultCache(tmp_path / "cache")
        cache.put(_request(seed=9), small_result)
        executor = _GatedExecutor(small_result)
        service = SimulationService(cache, workers=1, executor=executor)
        running = service.submit(_request(seed=1))
        _wait_for(lambda: executor.calls)
        follower = service.submit(_request(seed=1))
        queued = service.submit(_request(seed=2))
        for _ in range(4):
            service.submit(_request(seed=9))
        assert [service.status(job)["state"]
                for job in (running, follower, queued)] \
            == ["running", "running", "queued"]
        assert service.stats()["jobs"] == 5
        executor.gate.set()
        service.result(queued, timeout=30)
        service.shutdown()
        assert service.result(queued, timeout=0).source == "computed"
        assert service.stats()["jobs"] == 2

    def test_unread_results_are_kept_past_the_bound(self, small_result,
                                                    monkeypatch):
        """Without a result cache, a finished job is forgotten only
        after its result was read: submit bound + 1 jobs, then fetch
        the first."""
        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 3)
        service = SimulationService(
            workers=1,
            executor=lambda request: RunResponse(result=small_result,
                                                 request=request))
        daemon = ServiceDaemon(service, port=0)
        daemon.start_background()
        client = Client(*daemon.address)
        try:
            jobs = [client.submit(_request(seed=seed))
                    for seed in range(1, 5)]
            _wait_for(lambda: client.stats()["completed"] == 4)
            assert client.stats()["jobs"] == 4
            for job in jobs:
                assert client.fetch(job).source == "computed"
            assert client.stats()["jobs"] == 3
            with pytest.raises(ServeError, match=r"\(404\)"):
                client.fetch(jobs[0])
        finally:
            daemon.stop()

    def test_submit_reply_of_a_forgotten_cache_hit(self, tmp_path,
                                                   small_result,
                                                   monkeypatch):
        """The 202 reply takes the job's state from the admission, not
        from a second lookup a forgotten cache hit would fail."""
        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 0)
        cache = ResultCache(tmp_path / "cache")
        cache.put(_request(), small_result)
        daemon = ServiceDaemon(SimulationService(cache, workers=1),
                               port=0)
        daemon.start_background()
        try:
            connection = http.client.HTTPConnection(*daemon.address,
                                                    timeout=30)
            connection.request(
                "POST", "/v1/submit",
                body=json.dumps({"request": _request().to_dict()}),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            reply = json.loads(response.read())
            connection.close()
            assert response.status == 202
            assert reply["state"] == "done"
            assert daemon.service.stats()["jobs"] == 0
        finally:
            daemon.stop()

    def test_concurrent_submitters_keep_the_bound(self, small_result,
                                                  monkeypatch):
        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 8)
        service = SimulationService(
            workers=4, max_queue_depth=1000,
            executor=lambda request: RunResponse(result=small_result,
                                                 request=request))

        def submit_many(offset: int) -> None:
            jobs = [service.submit(_request(seed=(offset + index) % 10
                                            + 1))
                    for index in range(50)]
            for job in jobs:
                service.result(job, timeout=60)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_many, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        service.shutdown(timeout=30)
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] == 200
        assert stats["inflight"] == 0
        assert stats["jobs"] == 8


class TestSchemaRefusal:
    def test_result_cache_is_the_result_store(self):
        import repro.harness.persist
        import repro.serve.cache

        assert repro.serve.cache.ResultCache \
            is repro.harness.persist.ResultStore
        assert ResultCache is repro.harness.persist.ResultStore

    def test_mismatched_schema_version_is_refused_and_quarantined(
            self, tmp_path, small_result):
        cache = ResultCache(tmp_path / "cache")
        request = _request()
        key = cache.put(request, small_result)
        path = cache._path(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        assert envelope["schema_version"] == SCHEMA_VERSION
        envelope["schema_version"] = SCHEMA_VERSION + 7
        path.write_text(json.dumps(envelope), encoding="utf-8")

        assert cache.get(request) is None
        assert cache.refused == 1
        assert cache.quarantined == 1
        assert not path.exists()
        assert len(cache.quarantined_files()) == 1

    def test_matching_schema_version_loads(self, tmp_path, small_result):
        cache = ResultCache(tmp_path / "cache")
        request = _request()
        cache.put(request, small_result)
        loaded = cache.get(request)
        assert loaded is not None
        assert result_to_json(loaded) == result_to_json(small_result)
        assert (cache.hits, cache.misses, cache.refused) == (1, 0, 0)

    def test_envelope_records_request_and_schema(self, tmp_path,
                                                 small_result):
        cache = ResultCache(tmp_path / "cache")
        request = _request()
        key = cache.put(request, small_result)
        envelope = json.loads(
            cache._path(key).read_text(encoding="utf-8"))
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["request"] == request.to_dict()


class TestAdmissionControl:
    def test_overflow_rejected_not_blocked(self, event_log,
                                           small_result):
        executor = _GatedExecutor(small_result)
        service = SimulationService(workers=1, max_queue_depth=2,
                                    executor=executor)
        running = service.submit(_request(seed=1))
        _wait_for(lambda: executor.calls)   # seed=1 holds the worker
        queued = [service.submit(_request(seed=2)),
                  service.submit(_request(seed=3))]
        started = time.monotonic()
        with pytest.raises(QueueFullError, match="429|full"):
            service.submit(_request(seed=4))
        assert time.monotonic() - started < 5   # rejected, not hung
        executor.gate.set()
        for job in [running, *queued]:
            service.result(job, timeout=30)
        service.shutdown()

        assert service.counters["rejected"] == 1
        kinds = _serve_kinds(event_log)
        assert kinds.count("serve_rejected") == 1

    def test_coalesced_and_cached_never_count_against_depth(
            self, small_result):
        executor = _GatedExecutor(small_result)
        service = SimulationService(workers=1, max_queue_depth=1,
                                    executor=executor)
        first = service.submit(_request())
        _wait_for(lambda: executor.calls)
        followers = [service.submit(_request()) for _ in range(5)]
        executor.gate.set()
        for job in [first, *followers]:
            service.result(job, timeout=30)
        service.shutdown()
        assert len(executor.calls) == 1

    def test_bad_limits_rejected(self):
        with pytest.raises(ServeError, match="workers"):
            SimulationService(workers=0)
        with pytest.raises(ServeError, match="max_queue_depth"):
            SimulationService(max_queue_depth=0)


class TestPriority:
    def test_higher_priority_runs_first(self, small_result):
        executor = _GatedExecutor(small_result)
        service = SimulationService(workers=1, max_queue_depth=8,
                                    executor=executor)
        service.submit(_request(seed=1))
        _wait_for(lambda: executor.calls)   # worker busy on seed=1
        service.submit(_request(seed=2), priority=0)
        urgent = service.submit(_request(seed=3), priority=5)
        executor.gate.set()
        service.result(urgent, timeout=30)
        service.shutdown()
        order = [request.seed for request in executor.calls]
        assert order.index(3) < order.index(2)

    def test_non_int_priority_rejected(self, small_result):
        service = SimulationService(
            executor=_GatedExecutor(small_result))
        with pytest.raises(ServeError, match="priority"):
            service.submit(_request(), priority="high")
        service.shutdown()


class TestServiceErrors:
    def test_unknown_workload_rejected_at_submit(self, small_result):
        service = SimulationService(
            executor=_GatedExecutor(small_result))
        with pytest.raises(ServeError, match="unknown workload"):
            service.submit(RunRequest("not_a_workload",
                                      trace_length=LENGTH))
        service.shutdown()

    def test_unknown_job_id(self, small_result):
        service = SimulationService(
            executor=_GatedExecutor(small_result))
        with pytest.raises(ServeError, match="unknown job"):
            service.status("job-999999")
        service.shutdown()

    def test_submit_after_shutdown_refused(self, small_result):
        service = SimulationService(
            executor=_GatedExecutor(small_result))
        service.start()
        service.shutdown()
        with pytest.raises(ServeError, match="shutting down"):
            service.submit(_request())


class TestTelemetry:
    def test_counters_in_tree(self, tmp_path, small_result):
        # stats() is the service's one counter view: its own counters at
        # the top level and the result store's under "cache".
        executor = _GatedExecutor(small_result)
        executor.gate.set()
        service = SimulationService(cache_dir=str(tmp_path / "cache"),
                                    workers=1, executor=executor)
        service.result(service.submit(_request()), timeout=30)
        service.result(service.submit(_request()), timeout=30)
        service.shutdown()
        assert not hasattr(service, "telemetry")
        stats = service.stats()
        assert (stats["submitted"], stats["completed"],
                stats["cache_hits"]) == (2, 2, 1)
        assert stats["cache"] == {"hits": 1, "misses": 1, "stores": 1,
                                  "refused": 0, "quarantined": 0}


class TestHTTPRoundtrip:
    def _daemon(self, **kwargs):
        daemon = ServiceDaemon(SimulationService(**kwargs), port=0)
        daemon.start_background()
        return daemon, Client(*daemon.address)

    def test_health_and_stats(self, small_result):
        daemon, client = self._daemon(
            executor=_GatedExecutor(small_result))
        try:
            health = client.health()
            assert health["ok"] is True
            assert "version" in health
            assert client.stats()["submitted"] == 0
        finally:
            daemon.stop()

    def test_submit_fetch_roundtrip_is_typed_and_identical(
            self, tmp_path):
        daemon, client = self._daemon(
            cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            request = _request(label="compress_like")
            job = client.submit(request)
            response = client.fetch(job, wait=300)
            assert isinstance(response, RunResponse)
            assert response.source == "computed"
            assert response.request.cache_key() == request.cache_key()
            again = client.run(request)
            assert again.source == "cache"
            assert result_to_json(again.result) == \
                result_to_json(response.result)
            trace = build_trace("compress_like", LENGTH, seed=1)
            direct = simulate(trace, SimConfig(), name="compress_like")
            assert result_to_json(response.result) == \
                result_to_json(direct)
        finally:
            daemon.stop()

    def test_coalescing_over_http(self, small_result):
        executor = _GatedExecutor(small_result)
        daemon, client = self._daemon(workers=2, executor=executor)
        try:
            request = _request()
            ids = [client.submit(request) for _ in range(3)]
            executor.gate.set()
            sources = sorted(client.fetch(job, wait=30).source
                             for job in ids)
            assert sources == ["coalesced", "coalesced", "computed"]
            assert len(executor.calls) == 1
        finally:
            daemon.stop()

    def test_queue_overflow_maps_to_429(self, small_result):
        executor = _GatedExecutor(small_result)
        daemon, client = self._daemon(workers=1, max_queue_depth=1,
                                      executor=executor)
        try:
            client.submit(_request(seed=1))
            _wait_for(lambda: executor.calls)
            client.submit(_request(seed=2))
            with pytest.raises(QueueFullError):
                client.submit(_request(seed=3))
            executor.gate.set()
        finally:
            daemon.stop()

    def test_config_naming_event_log_is_refused(self, tmp_path,
                                                small_result):
        reset_logging()
        log = tmp_path / "logs" / "events.jsonl"
        daemon, _ = self._daemon(executor=_GatedExecutor(small_result))
        try:
            body = {"request": dict(_request().to_dict(), config=dict(
                SimConfig().to_dict(), event_log=str(log)))}
            connection = http.client.HTTPConnection(*daemon.address,
                                                    timeout=30)
            connection.request("POST", "/v1/submit",
                               body=json.dumps(body),
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            detail = json.loads(response.read())["detail"]
            connection.close()
            assert response.status == 400
            assert "event_log" in detail
        finally:
            daemon.stop()
        assert not log.exists()
        assert not log.parent.exists()

    def test_unknown_job_is_a_client_error(self, small_result):
        daemon, client = self._daemon(
            executor=_GatedExecutor(small_result))
        try:
            with pytest.raises(ServeError, match="unknown job"):
                client.status("job-999999")
            with pytest.raises(ServeError, match="unknown job"):
                client.fetch("job-999999")
        finally:
            daemon.stop()

    def test_pending_job_is_not_ready(self, small_result):
        executor = _GatedExecutor(small_result)
        daemon, client = self._daemon(workers=1, executor=executor)
        try:
            job = client.submit(_request())
            with pytest.raises(ServeError, match="still"):
                client.fetch(job, wait=0)
            executor.gate.set()
            assert client.fetch(job, wait=30).source == "computed"
        finally:
            daemon.stop()

    def test_unreachable_daemon_is_a_serve_error(self):
        client = Client("127.0.0.1", 1, timeout=2)
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()

    def test_remote_shutdown(self, small_result):
        daemon, client = self._daemon(
            executor=_GatedExecutor(small_result))
        client.shutdown()
        _wait_for(lambda: daemon._thread is None
                  or not daemon._thread.is_alive())
        with pytest.raises(ServeError):
            client.health()
