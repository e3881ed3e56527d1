"""Content-addressed result cache for the simulation service.

:class:`ResultCache` subclasses the harness's
:class:`~repro.harness.persist.ResultStore`, so it inherits the
crash-safe write path wholesale: unique-temp-file + ``os.replace``
atomic writes, an embedded SHA-256 content checksum, and quarantine
(never deletion) of corrupt entries.  On top of that it:

- keys every entry by :meth:`~repro.spec.RunRequest.cache_key` — the
  same digest the memoizing runner and the sweep's result store use,
  derived in one place (:mod:`repro.cachekey`), covering the canonical
  ``SimConfig.to_dict()``, the workload/trace identity, the package
  version, and the result schema version;
- records the originating request and this build's result schema
  version in the entry envelope, and **refuses** (quarantines) entries
  whose recorded ``schema_version`` does not match — a cache written
  by an older or newer build misses loudly instead of deserializing
  into subtly different results;
- counts hits / misses / stores / refusals for the service's
  telemetry tree.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CacheCorruptionError
from repro.harness.persist import ResultStore
from repro.sim import SimResult
from repro.sim.serialize import SCHEMA_VERSION
from repro.spec import RunRequest
from repro.stats.telemetry import TelemetryNode

__all__ = ["ResultCache"]


class ResultCache(ResultStore):
    """Request-keyed, schema-checked view over the result store."""

    def __init__(self, directory: str | Path):
        super().__init__(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refused = 0

    # ------------------------------------------------------------------
    # Envelope vetting (the ResultStore subclass hook)
    # ------------------------------------------------------------------

    def _check_envelope(self, path: Path, envelope: dict) -> None:
        """Refuse entries written under a different result schema.

        Raising :class:`~repro.errors.CacheCorruptionError` makes the
        base loader quarantine the file under ``<dir>/quarantine/``;
        the lookup then misses and the simulation re-runs.
        """
        version = envelope.get("schema_version")
        if version is not None and version != SCHEMA_VERSION:
            self.refused += 1
            raise CacheCorruptionError(
                str(path),
                f"result schema_version {version!r} does not match this "
                f"build's ({SCHEMA_VERSION}); entry quarantined")

    # ------------------------------------------------------------------
    # Request-keyed API
    # ------------------------------------------------------------------

    def get(self, request: RunRequest) -> SimResult | None:
        """The cached result for ``request``, or None (counted)."""
        result = self.load_key(request.cache_key())
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, request: RunRequest, result: SimResult) -> str:
        """Store ``result`` under ``request``'s key; returns the key.

        The envelope records the request's wire form and the result
        schema version, so an entry is self-describing for post-mortem
        and refusable on schema drift.
        """
        key = request.cache_key()
        self.store_key(key, result, meta={
            "schema_version": SCHEMA_VERSION,
            "request": request.to_dict(),
        })
        self.stores += 1
        return key

    def telemetry(self) -> TelemetryNode:
        """The cache's counters as one telemetry node."""
        return TelemetryNode(name="cache", counters={
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "refused": self.refused,
            "quarantined": self.quarantined,
        })
