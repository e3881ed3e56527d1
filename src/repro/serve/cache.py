"""Content-addressed result cache for the simulation service.

:class:`ResultCache` is the harness's
:class:`~repro.harness.persist.ResultStore` itself, not a subclass: the
service, the memoizing Runner and the sweep store a point's result the
same way, under :meth:`~repro.spec.RunRequest.cache_key`, so a result a
sweep stored is a cache hit for the service and the reverse.
"""

from __future__ import annotations

from repro.harness.persist import ResultStore

__all__ = ["ResultCache"]

#: The service's name for the one result store class.
ResultCache = ResultStore
