"""The in-process simulation service: queueing, coalescing, caching.

:class:`SimulationService` owns the scheduling policy behind the
daemon (and is usable directly as a library object):

- **admission control** — a bounded priority queue; a submission that
  would exceed ``max_queue_depth`` raises
  :class:`~repro.errors.QueueFullError` synchronously (the daemon maps
  it to HTTP 429) instead of growing an unbounded backlog;
- **request coalescing** — submissions are keyed by the request's
  content-addressed :meth:`~repro.spec.RunRequest.cache_key`; a
  request identical to one already queued or running attaches to it as
  a *follower* and shares its one simulation (N concurrent clients →
  exactly one run);
- **cache serving** — a request whose result is already in the
  :class:`~repro.serve.cache.ResultCache` completes at submit time
  without touching the queue;
- **bounded memory** — a finished job becomes forgettable once its
  result has been read (:meth:`~SimulationService.wait` /
  :meth:`~SimulationService.result`, the daemon's ``/v1/result``) or
  is held by the result cache, where resubmitting the request finds
  it; the service remembers at most :data:`MAX_FINISHED_JOBS`
  forgettable jobs and forgets the oldest first (their ids then answer
  "unknown job id").  Queued, running and unread uncached jobs are
  never forgotten;
- **typed lifecycle** — every transition is emitted to the
  ``repro.events/v2`` log (``serve_enqueued`` → ``serve_coalesced`` /
  ``serve_cache_hit`` / ``serve_scheduled`` → ``serve_running`` →
  ``serve_done`` / ``serve_failed`` / ``serve_rejected``), with the
  job id in the payload and the cache key as the ``point``
  correlation id.

Execution itself is :func:`repro.api.execute` — the same unified path
every other entry point uses — so a served result is bit-identical to
the same request run through the library.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import QueueFullError, ServeError
from repro.obs import events as obs_events
from repro.serve.cache import ResultCache
from repro.spec import RunRequest, RunResponse, resolve_request

__all__ = ["Job", "SimulationService", "JOB_STATES"]

#: Every state a job can be observed in.
JOB_STATES = ("queued", "running", "done", "failed")

#: How many forgettable jobs (finished, and read or cached) a service
#: remembers; beyond it the oldest is forgotten first.
MAX_FINISHED_JOBS = 256


@dataclass
class Job:
    """One submission's lifecycle record.

    ``followers`` lists the job ids coalesced onto this one (primary
    jobs only); ``primary`` names the job a coalesced submission
    attached to.  Exactly one of ``response`` / ``error`` is set once
    ``state`` is terminal.
    """

    id: str
    request: RunRequest
    priority: int = 0
    state: str = "queued"
    source: str | None = None
    response: RunResponse | None = None
    error: str | None = None
    primary: str | None = None
    followers: list[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    def snapshot(self) -> dict:
        """JSON-compatible status view (the daemon's ``/v1/status``)."""
        return {
            "job": self.id,
            "state": self.state,
            "workload": self.request.workload,
            "key": self.request.cache_key(),
            "priority": self.priority,
            "source": self.source,
            "error": self.error,
            "primary": self.primary,
            "followers": list(self.followers),
        }


class SimulationService:
    """Priority-scheduled, coalescing, cache-backed run service.

    ``workers`` bounds in-service concurrency (each worker thread runs
    one simulation at a time through :func:`repro.api.execute`);
    ``max_queue_depth`` bounds the *queued* backlog — running jobs,
    coalesced followers, and cache hits never count against it.
    ``executor`` is injectable for tests (a callable from
    :class:`~repro.spec.RunRequest` to
    :class:`~repro.spec.RunResponse`).
    """

    def __init__(self, cache: ResultCache | None = None, *,
                 cache_dir: str | None = None,
                 workers: int = 1,
                 max_queue_depth: int = 16,
                 executor: "Callable[[RunRequest], RunResponse] | None"
                 = None):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if cache is None and cache_dir is None:
            from repro import env

            cache_dir = env.serve_cache_dir()
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self._executor = executor
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, str]] = []
        self._jobs: dict[str, Job] = {}
        # Finished jobs that were read or are cached, oldest first.
        self._forgettable: OrderedDict[str, None] = OrderedDict()
        self._inflight: dict[str, str] = {}
        self._seq = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        self.counters: dict[str, int] = {
            "submitted": 0, "completed": 0, "failed": 0, "rejected": 0,
            "coalesced": 0, "cache_hits": 0, "simulations": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent; submit() auto-starts)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-serve-{index}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
        obs_events.emit("serve_start", data={
            "workers": self.workers,
            "max_queue_depth": self.max_queue_depth,
            "cache_dir": (str(self.cache.directory)
                          if self.cache is not None else None)})

    def shutdown(self, *, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting work and wind the workers down.

        With ``wait`` (the default) already-queued jobs drain first;
        otherwise the queue is failed out immediately.  Idempotent.
        """
        with self._cond:
            if self._stopping:
                return
            self._stopping = True
            if not wait:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    self._fail_locked(self._jobs[job_id],
                                      "service shut down before the "
                                      "job ran")
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        obs_events.emit("serve_stop", data=dict(self.counters))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: RunRequest, *, priority: int = 0) -> str:
        """Admit one request; returns its job id.

        The request is resolved through the shared
        :func:`~repro.spec.resolve_request` normalization first, so the
        key it coalesces and caches under is exactly the key a direct
        library call would compute.  Raises
        :class:`~repro.errors.QueueFullError` when the queue is at
        ``max_queue_depth`` and :class:`~repro.errors.ServeError` for
        an unknown workload or a stopped service.
        """
        return self._admit(request, priority)[0]

    def _admit(self, request: RunRequest,
               priority: int) -> tuple[str, str]:
        """:meth:`submit`, also returning the job's state at admission.

        The daemon's 202 reply reads the state here: a cache hit is
        forgettable at once, so looking it up again could miss.
        """
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ServeError(
                f"priority must be an int, got {priority!r}")
        request = resolve_request(request)
        from repro.workloads import ALL_WORKLOADS

        if request.workload not in ALL_WORKLOADS:
            raise ServeError(
                f"unknown workload {request.workload!r}; expected one "
                f"of: {', '.join(ALL_WORKLOADS)}")
        self.start()
        key = request.cache_key()
        with self._cond:
            if self._stopping:
                raise ServeError("service is shutting down; "
                                 "submission refused")
            seq = next(self._seq)
            job = Job(id=f"job-{seq:06d}", request=request,
                      priority=priority)
            self.counters["submitted"] += 1
            obs_events.emit("serve_enqueued", point=key, data={
                "job": job.id, "workload": request.workload,
                "priority": priority})

            cached = self.cache.get(request) \
                if self.cache is not None else None
            if cached is not None:
                job.state = "done"
                job.source = "cache"
                job.response = RunResponse(
                    result=cached, request=request, source="cache")
                self._jobs[job.id] = job
                self._forgettable_locked(job.id)
                self.counters["cache_hits"] += 1
                self.counters["completed"] += 1
                obs_events.emit("serve_cache_hit", point=key,
                                data={"job": job.id})
                return job.id, job.state

            primary_id = self._inflight.get(key)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                job.primary = primary_id
                job.state = primary.state
                primary.followers.append(job.id)
                self._jobs[job.id] = job
                self.counters["coalesced"] += 1
                obs_events.emit("serve_coalesced", point=key, data={
                    "job": job.id, "primary": primary_id})
                return job.id, job.state

            if len(self._heap) >= self.max_queue_depth:
                self.counters["rejected"] += 1
                obs_events.emit("serve_rejected", point=key, data={
                    "job": job.id, "depth": len(self._heap),
                    "limit": self.max_queue_depth})
                raise QueueFullError(len(self._heap),
                                     self.max_queue_depth)

            self._jobs[job.id] = job
            self._inflight[key] = job.id
            heapq.heappush(self._heap, (-priority, seq, job.id))
            obs_events.emit("serve_scheduled", point=key, data={
                "job": job.id, "depth": len(self._heap)})
            self._cond.notify()
            return job.id, job.state

    # ------------------------------------------------------------------
    # Introspection / retrieval
    # ------------------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """A JSON-compatible snapshot of one job's state."""
        with self._lock:
            return self._job(job_id).snapshot()

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal (or ``timeout``); returns it.

        The returned :class:`Job` may still be non-terminal when the
        timeout elapsed first — check :attr:`Job.done`.  A terminal
        job counts as read and may be forgotten from then on.
        """
        with self._cond:
            job = self._job(job_id)
            self._cond.wait_for(lambda: job.done, timeout=timeout)
            if job.done:
                self._forgettable_locked(job.id)
            return job

    def result(self, job_id: str,
               timeout: float | None = None) -> RunResponse:
        """The job's :class:`~repro.spec.RunResponse` (blocking).

        Raises :class:`~repro.errors.ServeError` when the job failed
        or when ``timeout`` elapsed first.
        """
        job = self.wait(job_id, timeout=timeout)
        if job.state == "failed":
            raise ServeError(f"job {job_id} failed: {job.error}")
        if job.response is None:
            raise ServeError(
                f"job {job_id} did not complete within "
                f"{timeout if timeout is not None else 0:g}s "
                f"(state {job.state!r})")
        return job.response

    def stats(self) -> dict:
        """Service counters plus live queue state (JSON-compatible)."""
        with self._lock:
            stats = dict(self.counters)
            stats["queue_depth"] = len(self._heap)
            stats["inflight"] = len(self._inflight)
            stats["jobs"] = len(self._jobs)
        if self.cache is not None:
            stats["cache"] = {
                "hits": self.cache.hits, "misses": self.cache.misses,
                "stores": self.cache.stores,
                "refused": self.cache.refused,
                "quarantined": self.cache.quarantined}
        return stats

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------

    def _execute(self, request: RunRequest) -> RunResponse:
        if self._executor is not None:
            return self._executor(request)
        from repro.api import execute

        return execute(request)

    def _worker(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._heap or self._stopping)
                if not self._heap:
                    return   # stopping and drained
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                job.state = "running"
                for follower_id in job.followers:
                    self._jobs[follower_id].state = "running"
                key = job.request.cache_key()
                obs_events.emit("serve_running", point=key,
                                data={"job": job.id})
            try:
                response = self._execute(job.request)
            except Exception as exc:  # noqa: BLE001 — reported, not fatal
                with self._cond:
                    self._fail_locked(
                        job, f"{type(exc).__name__}: {exc}")
                    self._cond.notify_all()
                continue
            cached = self.cache is not None
            if cached:
                try:
                    self.cache.put(job.request, response.result)
                except OSError:
                    cached = False   # a read-only cache must not fail the job
            with self._cond:
                self.counters["simulations"] += 1
                self._complete_locked(job, response)
                if cached:
                    self._forgettable_locked(job.id, *job.followers)
                self._cond.notify_all()

    def _complete_locked(self, job: Job, response: RunResponse) -> None:
        job.state = "done"
        job.source = response.source
        job.response = response
        self._inflight.pop(job.request.cache_key(), None)
        self.counters["completed"] += 1
        obs_events.emit("serve_done", point=job.request.cache_key(),
                        data={"job": job.id, "source": response.source,
                              "followers": len(job.followers)})
        for follower_id in job.followers:
            follower = self._jobs[follower_id]
            follower.state = "done"
            follower.source = "coalesced"
            follower.response = RunResponse(
                result=response.result, request=follower.request,
                source="coalesced", profile=response.profile)
            self.counters["completed"] += 1

    def _fail_locked(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        self._inflight.pop(job.request.cache_key(), None)
        self.counters["failed"] += 1
        obs_events.emit("serve_failed", point=job.request.cache_key(),
                        data={"job": job.id, "error": error})
        for follower_id in job.followers:
            follower = self._jobs[follower_id]
            follower.state = "failed"
            follower.error = error
            self.counters["failed"] += 1

    def _forgettable_locked(self, *job_ids: str) -> None:
        """Mark finished jobs read or cached, forgetting the oldest
        such jobs beyond :data:`MAX_FINISHED_JOBS`."""
        for job_id in job_ids:
            if job_id in self._jobs:   # a late waiter's job may be gone
                self._forgettable[job_id] = None
        while len(self._forgettable) > MAX_FINISHED_JOBS:
            del self._jobs[self._forgettable.popitem(last=False)[0]]
