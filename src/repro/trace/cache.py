"""On-disk trace cache.

Walking a synthetic program emits about 1.5 million instructions per
second once the program is generated (a million-instruction ``gcc_like``
walk takes 0.65 s under CPython 3.11 on a two-CPU container); benchmark
sweeps re-use the same traces dozens of times.  The cache stores traces
under a key derived from how they were built, so any change to the build
parameters produces a different file.

The cache directory defaults to ``.trace_cache`` in the current working
directory and can be overridden with the ``REPRO_TRACE_CACHE`` environment
variable.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Callable

from repro.trace.io import read_trace, write_trace
from repro.trace.stream import Trace

__all__ = ["TraceCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """The trace cache directory (env override, else ``./.trace_cache``)."""
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override:
        return Path(override)
    return Path.cwd() / ".trace_cache"


class TraceCache:
    """Content-addressed store of built traces."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{digest}.trace.gz"

    def get_or_build(self, key: str, builder: Callable[[], Trace]) -> Trace:
        """Return the cached trace for ``key``, building it on a miss.

        A corrupt cached file is rebuilt and overwritten rather than
        raised, so stale caches never break an experiment run.
        """
        path = self._path_for(key)
        if path.exists():
            try:
                return read_trace(path)
            except Exception:
                path.unlink(missing_ok=True)
        trace = builder()
        self.directory.mkdir(parents=True, exist_ok=True)
        # Unique-per-writer temp file: concurrent sweep workers may build
        # the same trace, and a shared temp name would let their writes
        # interleave (or one replace() race the other's).
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        prefix=f".{path.stem}.",
                                        suffix=".tmp")
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            write_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return trace

    def clear(self) -> int:
        """Delete every cached trace; returns the number removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.trace.gz"):
            path.unlink()
            removed += 1
        return removed
