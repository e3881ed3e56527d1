"""Persistent, content-addressed simulation-result store.

Long (``REPRO_FULL=1``) sweeps are expensive; :class:`ResultStore` keeps
each :class:`SimResult` on disk keyed by everything that determines it —
the workload/trace identity, the full configuration, and the package
version (so any model change invalidates old results).  Results are
deterministic, so a stored entry *is* the point's result: the store is
also the only record of sweep progress, and a sweep rerun over the same
store simulates only the points it does not hold.

The store is hardened for concurrent, crash-prone use:

- writes go through a **unique per-writer temp file** plus atomic
  ``os.replace`` (a shared ``.tmp`` path would race when two workers
  store the same key);
- entries embed a **content checksum**; a truncated or garbled file is
  **quarantined** under ``<dir>/quarantine/`` for post-mortem instead of
  being silently deleted, and the load simply misses.

Enable the store for the benchmark suite by setting
``REPRO_RESULT_CACHE`` to a directory path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cachekey import cache_key
from repro.config import SimConfig
from repro.errors import CacheCorruptionError
from repro.fsutil import QUARANTINE_DIR, atomic_write_text, quarantine
from repro.obs import events as obs_events
from repro.sim import SimResult
from repro.sim.serialize import result_from_json, result_to_json

__all__ = ["ResultStore", "result_key"]


def result_key(workload: str, config: SimConfig, trace_length: int,
               seed: int) -> str:
    """Stable identity of one simulation point (its store key).

    A thin alias of :func:`repro.cachekey.cache_key` — the Runner, the
    sweep, and the serving layer's content-addressed cache all derive
    their keys from that one helper, so no two layers can ever disagree
    about a point's identity.
    """
    return cache_key(workload, config, trace_length, seed)


class ResultStore:
    """Directory-backed map from run identity to SimResult.

    :meth:`load_key` / :meth:`store_key` take a point's
    :func:`result_key` (a :func:`~repro.cachekey.cache_key` digest) —
    the serving layer's content-addressed
    :class:`~repro.serve.cache.ResultCache` layers on top of these,
    inheriting the atomic-write / checksum / quarantine discipline
    wholesale.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.result.json"

    def _check_envelope(self, path: Path, envelope: dict) -> None:
        """Hook for subclasses to vet envelope metadata before parsing.

        Raise :class:`~repro.errors.CacheCorruptionError` to refuse the
        entry; the loader then quarantines the file.
        """

    def _parse(self, path: Path, text: str) -> SimResult:
        try:
            envelope = json.loads(text)
        except ValueError as exc:
            raise CacheCorruptionError(str(path),
                                       f"not valid JSON ({exc})") from None
        if not isinstance(envelope, dict) or "payload" not in envelope:
            raise CacheCorruptionError(str(path), "no checksummed payload")
        self._check_envelope(path, envelope)
        payload = envelope["payload"]
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest != envelope.get("checksum"):
            raise CacheCorruptionError(str(path), "checksum mismatch")
        return result_from_json(payload)

    def load_key(self, key: str) -> SimResult | None:
        """Return the result stored under ``key`` or None.

        Corrupt or refused entries are quarantined under
        ``<dir>/quarantine/`` and counted on :attr:`quarantined`; the
        load simply misses.
        """
        path = self._path(key)
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

    def store_key(self, key: str, result: SimResult,
                  meta: dict | None = None) -> None:
        """Store ``result`` under a precomputed key.

        ``meta`` adds envelope fields alongside ``checksum``/``payload``
        (the serving cache records the originating request and the
        result schema version there); the payload checksum always wins
        on conflict.
        """
        path = self._path(key)
        payload = result_to_json(result)
        fields = dict(meta) if meta else {}
        fields.update({
            "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "payload": payload,
        })
        atomic_write_text(self.directory, path, json.dumps(fields))

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
