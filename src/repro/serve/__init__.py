"""Simulation service: daemon, content-addressed cache, typed client.

The serving layer turns the library's run API into a long-lived
process:

- :class:`~repro.serve.cache.ResultCache` — a content-addressed result
  store keyed by :meth:`~repro.spec.RunRequest.cache_key`, layered on
  the harness's :class:`~repro.harness.persist.ResultStore` (same
  atomic-write / checksum / quarantine discipline) and additionally
  refusing entries whose recorded result schema version does not match
  this build;
- :class:`~repro.serve.service.SimulationService` — the in-process
  scheduler: a priority queue with bounded admission (overflow raises
  :class:`~repro.errors.QueueFullError` instead of blocking),
  coalescing of identical in-flight requests (N concurrent submissions
  of one request run exactly one simulation), and cache-hit serving;
- :class:`~repro.serve.daemon.ServiceDaemon` — the stdlib HTTP facade
  (``repro serve``), speaking JSON over ``http.server``;
- :class:`~repro.serve.client.Client` — the blocking typed client
  (``repro submit`` / ``status`` / ``fetch``).

Every request transition is emitted to the ``repro.events/v2`` log
(``serve_enqueued`` → ``serve_coalesced`` / ``serve_cache_hit`` /
``serve_scheduled`` → ``serve_running`` → ``serve_done`` /
``serve_failed`` / ``serve_rejected``), correlated by job id and the
request's cache key.  See ``docs/serving.md``.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import Client
from repro.serve.daemon import ServiceDaemon
from repro.serve.service import Job, SimulationService

__all__ = [
    "ResultCache",
    "SimulationService",
    "ServiceDaemon",
    "Client",
    "Job",
]
