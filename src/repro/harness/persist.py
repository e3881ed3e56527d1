"""Persistent, content-addressed simulation-result store.

Long (``REPRO_FULL=1``) sweeps are expensive; :class:`ResultStore` keeps
each :class:`SimResult` on disk under its request's
:meth:`~repro.spec.RunRequest.cache_key`, which covers everything that
determines the result — the workload/trace identity, the full
configuration, and the package version (so any model change invalidates
old results).  Results are deterministic, so a stored entry *is* the
point's result: the store is also the only record of sweep progress,
and a sweep rerun over the same store simulates only the points it does
not hold.  The Runner, the sweep and the simulation service
(:class:`repro.serve.ResultCache` is this class) share it.

Each entry is one JSON envelope: ``schema_version`` (the result schema
of the build that wrote it), ``request`` (the request's wire form, for
post-mortem), ``checksum`` (SHA-256 of the payload) and ``payload``
(the serialized result).

The store is hardened for concurrent, crash-prone use:

- writes go through a **unique per-writer temp file** plus atomic
  ``os.replace`` (a shared ``.tmp`` path would race when two workers
  store the same key);
- a truncated or garbled entry, one whose checksum does not match, and
  one written under another ``schema_version`` are **quarantined**
  under ``<dir>/quarantine/`` for post-mortem instead of being silently
  deleted, and the load simply misses.  An entry without
  ``schema_version`` (as older sweeps wrote) still loads.

Enable the store for the benchmark suite by setting
``REPRO_RESULT_CACHE`` to a directory path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# The store's keys are cache_key digests; perfbench traces the name here.
from repro.cachekey import cache_key  # noqa: F401
from repro.errors import CacheCorruptionError
from repro.fsutil import QUARANTINE_DIR, atomic_write_text, quarantine
from repro.obs import events as obs_events
from repro.sim import SimResult
from repro.sim.serialize import SCHEMA_VERSION, result_from_json, \
    result_to_json
from repro.spec import RunRequest

__all__ = ["ResultStore"]


class ResultStore:
    """Directory-backed map from :class:`~repro.spec.RunRequest` to
    :class:`SimResult`, counting hits, misses, stores, refused entries
    (another ``schema_version``) and quarantined entries."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refused = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.result.json"

    def _parse(self, path: Path, text: str) -> SimResult:
        try:
            envelope = json.loads(text)
        except ValueError as exc:
            raise CacheCorruptionError(str(path),
                                       f"not valid JSON ({exc})") from None
        if not isinstance(envelope, dict) or "payload" not in envelope:
            raise CacheCorruptionError(str(path), "no checksummed payload")
        version = envelope.get("schema_version")
        if version is not None and version != SCHEMA_VERSION:
            self.refused += 1
            raise CacheCorruptionError(
                str(path),
                f"result schema_version {version!r} does not match this "
                f"build's ({SCHEMA_VERSION}); entry quarantined")
        payload = envelope["payload"]
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest != envelope.get("checksum"):
            raise CacheCorruptionError(str(path), "checksum mismatch")
        return result_from_json(payload)

    def get(self, request: RunRequest) -> SimResult | None:
        """The stored result for ``request``, or None (counted).

        Corrupt or refused entries are quarantined under
        ``<dir>/quarantine/`` and counted on :attr:`quarantined`; the
        lookup then misses.
        """
        result = self._load(self._path(request.cache_key()))
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def _load(self, path: Path) -> SimResult | None:
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError:
            # Garbled beyond UTF-8: corrupt, same as a failed checksum.
            self._quarantine_entry(path, "not valid UTF-8")
            return None
        try:
            return self._parse(path, text)
        except Exception as exc:  # noqa: BLE001 — corrupt entry, not fatal
            self._quarantine_entry(path, str(exc))
            return None

    def _quarantine_entry(self, path: Path, reason: str) -> None:
        try:
            quarantine(path)
            self.quarantined += 1
            obs_events.emit("store_quarantine", data={
                "path": str(path), "reason": reason})
        except OSError:
            pass

    def put(self, request: RunRequest, result: SimResult) -> str:
        """Store ``result`` under ``request``'s key; returns the key."""
        key = request.cache_key()
        payload = result_to_json(result)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "request": request.to_dict(),
            "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        atomic_write_text(self.directory, self._path(key),
                          json.dumps(envelope))
        self.stores += 1
        return key

    def clear(self) -> int:
        """Delete all stored results; returns the number removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.result.json"):
            path.unlink()
            removed += 1
        return removed

    def quarantined_files(self) -> list[Path]:
        """Entries quarantined as corrupt (for post-mortem inspection)."""
        qdir = self.directory / QUARANTINE_DIR
        if not qdir.exists():
            return []
        return sorted(qdir.iterdir())
