"""Simulation service: daemon, content-addressed cache, typed client.

The serving layer turns the library's run API into a long-lived
process:

- :class:`~repro.serve.cache.ResultCache` — the content-addressed
  result store keyed by :meth:`~repro.spec.RunRequest.cache_key`: the
  harness's :class:`~repro.harness.persist.ResultStore` itself, so a
  result a sweep stored is a cache hit here;
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

The package resolves each export on first use (a module ``__getattr__``),
so a process that only runs the service in-process, importing
:class:`ResultCache` or :class:`SimulationService`, never loads the HTTP
client and daemon (``http.client``, ``http.server``, ``ssl``, ``email``).
``from repro.serve import X`` works as before.
"""

from __future__ import annotations

import importlib

#: Exported name -> the module that defines it.
_EXPORTS = {
    "ResultCache": "repro.serve.cache",
    "SimulationService": "repro.serve.service",
    "ServiceDaemon": "repro.serve.daemon",
    "Client": "repro.serve.client",
    "Job": "repro.serve.service",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
