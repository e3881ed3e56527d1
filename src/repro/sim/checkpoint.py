"""In-run machine checkpoints: versioned snapshots, resume, heartbeats.

:class:`~repro.sim.simulator.Simulator` can hand a checkpoint sink a
snapshot every N cycles (:meth:`~repro.sim.simulator.Simulator.
checkpoint_every`):
``{"cycle", "retired", "machine"}``, where ``machine`` is one pickle of
the whole simulator (trace stored by reference) that
:meth:`~repro.sim.simulator.Simulator.restore` turns back into a
runnable machine.  This module owns what happens to those snapshots:

- :class:`CheckpointManager` pickles each one into a versioned,
  SHA-256-checksummed JSON envelope (payload base64-encoded) and
  writes it via a **durable** atomic write (contents
  and directory entry fsynced — a snapshot must survive a machine
  crash, not just a process kill), rotates old snapshots away, and
  maintains a small *heartbeat* file (cycle / retired instructions) the
  supervised pool reads to tell a slow worker from a stuck one;
- :meth:`CheckpointManager.latest` returns the newest **valid**
  snapshot: corrupt files (bad JSON, checksum mismatch, a payload that
  does not unpickle, missing keys)
  are quarantined under ``<dir>/quarantine/`` and skipped, while a
  snapshot whose identity metadata does not match the current run
  raises :class:`~repro.errors.CheckpointError` — silently resuming
  another run's machine state would corrupt results;
- :func:`run_with_checkpoints` is the one-call resumable run: build the
  simulator, or restore it from the latest valid snapshot when one
  exists, attach the sink, run to completion, leave a summary file for
  the supervising process, and drop the now-useless snapshots.

Snapshots are trusted input: unpickling a crafted file runs arbitrary
code, and the checksum detects corruption, not tampering.  Resume only
from directories this user's own runs wrote.

Identity metadata (:func:`snapshot_meta`) binds snapshots to the
(trace, config, package version) that produced them.  The engine,
cadence, watchdog and profiler are options of the run, not of the
config, so a snapshot taken under one engine or cadence resumes
cleanly under another (resume is bit-identical either way; see
``tests/test_checkpoint.py``).

Crash drills: setting ``REPRO_CHECKPOINT_KILL_AFTER=N`` makes the
*first* process writing snapshots into a directory SIGKILL itself right
after its ``N``-th snapshot (a marker file keeps retries alive).  The
crash-recovery tests and the CI smoke job use this to exercise the real
kill-and-resume path end to end.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.config import DEFAULT_ENGINE, SimConfig
from repro.errors import CheckpointError
from repro.fsutil import atomic_write_text, quarantine
from repro.obs import events as obs_events
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.trace import Trace

__all__ = [
    "SCHEMA",
    "VERSION",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "CheckpointManager",
    "CheckpointedRun",
    "snapshot_meta",
    "run_with_checkpoints",
    "read_heartbeat",
    "read_summary",
    "HEARTBEAT_NAME",
    "SUMMARY_NAME",
]

SCHEMA = "repro.checkpoint"
# Bumped whenever the pickled machine changes layout (3: stat-group
# counters became slots; 4: the FTQ keeps the prefetch scan cursor in
# place of a flag per entry, the memory system its tag-port count and
# the stream prefetcher its count of wanting buffers; 5: the caches and
# FTBs keep a set mask, the prediction unit whether its FTB has two
# levels and the fetch engine its prefetcher's demand hook in place of
# the prefetcher; 6: the FTQ occupancy is a list of counts, one per
# occupancy, in place of a run-length observer, and the memory system
# no longer keeps the current cycle), so an older snapshot is refused
# before it is unpickled.
VERSION = 6

#: Snapshot cadence (cycles) when a snapshot directory is given without
#: one: ``repro run``/``repro stats --machine-checkpoint-dir``,
#: ``repro sweep --machine-checkpoints`` and ``parallel_sweep``.
DEFAULT_CHECKPOINT_INTERVAL = 100_000

HEARTBEAT_NAME = "heartbeat.json"
SUMMARY_NAME = "ckpt-summary.json"

#: Crash-drill hook (tests, CI smoke job): SIGKILL the process after it
#: has written this many snapshots, once per checkpoint directory.
KILL_AFTER_ENV = "REPRO_CHECKPOINT_KILL_AFTER"
_KILL_MARKER = "crash-drill.done"


def snapshot_meta(trace: Trace, config: SimConfig) -> dict:
    """Identity metadata binding snapshots to one (trace, config) run."""
    digest = hashlib.sha256(repr(config).encode("utf-8")) \
        .hexdigest()[:16]
    return {
        "trace": trace.name,
        "seed": trace.seed,
        "instructions": len(trace),
        "config_digest": digest,
        "repro_version": repro.__version__,
    }


class _CorruptSnapshot(Exception):
    """Internal: a snapshot file that should be quarantined, not raised."""


class CheckpointManager:
    """Directory of rotating, checksummed machine snapshots for one run.

    ``meta`` is the run identity (:func:`snapshot_meta`); ``keep`` is
    how many snapshots to retain (older ones are rotated away — one
    would suffice for resume, a second survives a crash *during* the
    newest write even if the filesystem reorders the replace).
    """

    def __init__(self, directory: str | Path, *, meta: dict | None = None,
                 keep: int = 2):
        if keep < 1:
            raise CheckpointError(str(directory),
                                  f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.meta = dict(meta) if meta else {}
        self.keep = keep
        self.written = 0
        self.quarantined = 0
        # Snapshots written by earlier (killed) attempts in this
        # directory still count toward the run's total.
        beat = read_heartbeat(self.directory)
        if beat is not None:
            self.written = int(beat.get("snapshots", 0))

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def path_for(self, cycle: int) -> Path:
        return self.directory / f"ckpt-{cycle:012d}.ckpt.json"

    def write(self, state: dict) -> Path:
        """Persist one machine snapshot durably; rotate old ones."""
        payload = base64.b64encode(
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)) \
            .decode("ascii")
        envelope = json.dumps({
            "schema": SCHEMA,
            "version": VERSION,
            "meta": self.meta,
            "checksum": hashlib.sha256(
                payload.encode("utf-8")).hexdigest(),
            "payload": payload,
        })
        path = self.path_for(int(state["cycle"]))
        atomic_write_text(self.directory, path, envelope, durable=True)
        self.written += 1
        self.heartbeat(int(state["cycle"]), int(state.get("retired", 0)))
        obs_events.emit("checkpoint_written", data={
            "cycle": int(state["cycle"]),
            "retired": int(state.get("retired", 0)),
            "snapshots": self.written, "path": str(path)})
        self._rotate()
        self._crash_drill()
        return path

    def heartbeat(self, cycle: int, retired: int) -> None:
        """Record forward progress for the supervising process.

        Best-effort (not fsynced): losing the last beat in a crash only
        delays stuck-vs-slow classification by one interval.
        """
        atomic_write_text(
            self.directory, self.directory / HEARTBEAT_NAME,
            json.dumps({"cycle": cycle, "retired": retired,
                        "snapshots": self.written, "pid": os.getpid(),
                        "time": time.time()}))

    def _rotate(self) -> None:
        for path in self.snapshots()[:-self.keep]:
            try:
                path.unlink()
            except OSError:
                pass

    def _crash_drill(self) -> None:
        spec = os.environ.get(KILL_AFTER_ENV)
        if not spec:
            return
        marker = self.directory / _KILL_MARKER
        if self.written >= int(spec) and not marker.exists():
            # Durably mark the drill done first, so the retry survives.
            atomic_write_text(self.directory, marker, "killed",
                              durable=True)
            os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshots(self) -> list[Path]:
        """Snapshot files on disk, oldest first."""
        return sorted(self.directory.glob("ckpt-*.ckpt.json"))

    def _parse(self, path: Path) -> dict:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise _CorruptSnapshot(f"cannot read: {exc}") from None
        try:
            envelope = json.loads(text)
        except ValueError as exc:
            raise _CorruptSnapshot(f"not valid JSON ({exc})") from None
        if not isinstance(envelope, dict) \
                or envelope.get("schema") != SCHEMA:
            raise _CorruptSnapshot("not a repro checkpoint envelope")
        if envelope.get("version") != VERSION:
            raise CheckpointError(
                str(path), f"unsupported checkpoint version "
                           f"{envelope.get('version')!r} "
                           f"(this build reads version {VERSION})")
        payload = envelope.get("payload")
        if not isinstance(payload, str):
            raise _CorruptSnapshot("missing payload")
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest != envelope.get("checksum"):
            raise _CorruptSnapshot("checksum mismatch")
        stored = envelope.get("meta", {})
        if self.meta and stored:
            mismatched = sorted(
                field for field in self.meta
                if field in stored and stored[field] != self.meta[field])
            if mismatched:
                detail = ", ".join(
                    f"{field}: snapshot has {stored[field]!r}, this run "
                    f"has {self.meta[field]!r}" for field in mismatched)
                raise CheckpointError(
                    str(path),
                    f"belongs to a different run ({detail}); point this "
                    f"run at a fresh checkpoint directory or delete the "
                    f"stale snapshots")
        try:
            state = pickle.loads(base64.b64decode(payload, validate=True))
        except Exception as exc:
            # Unpickling raises no single error type (UnpicklingError,
            # EOFError, ValueError, ...); whichever it is, a checksummed
            # payload that does not load is as corrupt as a garbled file.
            raise _CorruptSnapshot(
                f"payload does not unpickle ({exc!r})") from None
        if not isinstance(state, dict) or "cycle" not in state:
            raise _CorruptSnapshot("payload is not a machine snapshot")
        return state

    def load(self, path: str | Path) -> dict:
        """Parse one snapshot file, raising on any defect."""
        try:
            return self._parse(Path(path))
        except _CorruptSnapshot as exc:
            raise CheckpointError(str(path), str(exc)) from None

    def latest(self) -> dict | None:
        """Newest valid snapshot state, or None when there is none.

        Corrupt snapshots (truncated by a crash mid-write, garbled on
        disk) are quarantined and skipped; an identity or version
        mismatch raises :class:`CheckpointError` instead — resuming it
        would be silently wrong.
        """
        for path in reversed(self.snapshots()):
            try:
                return self._parse(path)
            except _CorruptSnapshot as exc:
                try:
                    quarantine(path)
                    self.quarantined += 1
                    obs_events.emit("checkpoint_quarantined", data={
                        "path": str(path), "reason": str(exc)})
                except OSError:
                    pass
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop snapshots and the heartbeat (the run completed)."""
        for path in self.snapshots():
            try:
                path.unlink()
            except OSError:
                pass
        try:
            (self.directory / HEARTBEAT_NAME).unlink()
        except OSError:
            pass

    def write_summary(self, resumed_from_cycle: int | None) -> None:
        """Leave completion counters behind for the supervising process."""
        atomic_write_text(
            self.directory, self.directory / SUMMARY_NAME,
            json.dumps({"snapshots": self.written,
                        "resumed_from_cycle": resumed_from_cycle,
                        "quarantined": self.quarantined}))


def read_heartbeat(directory: str | Path) -> dict | None:
    """The directory's heartbeat, or None (missing or corrupt)."""
    return _read_json(Path(directory) / HEARTBEAT_NAME)


def read_summary(directory: str | Path) -> dict | None:
    """The directory's completion summary, or None."""
    return _read_json(Path(directory) / SUMMARY_NAME)


def _read_json(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


@dataclass
class CheckpointedRun:
    """Outcome of one :func:`run_with_checkpoints` call."""

    result: SimResult
    snapshots_written: int
    resumed_from_cycle: int | None
    quarantined: int


def run_with_checkpoints(trace: Trace, config: SimConfig, *,
                         directory: str | Path,
                         checkpoint_interval: int = 0,
                         name: str | None = None,
                         engine: str = DEFAULT_ENGINE,
                         watchdog_interval: int = 0,
                         keep: int = 2, resume: bool = True,
                         cleanup: bool = True) -> CheckpointedRun:
    """Run one simulation with periodic snapshots and crash resume.

    When ``directory`` already holds a valid snapshot of this exact run
    (same trace, seed, length, config — see :func:`snapshot_meta`) and
    ``resume`` is true, the simulation continues from it instead of
    cycle 0; the final :class:`~repro.sim.results.SimResult` is
    bit-identical to an uninterrupted run either way.  Snapshots are
    written every ``checkpoint_interval`` cycles (0 disables them — the
    run is then merely *resumable from* existing snapshots, not
    crash-safe itself).  ``engine`` and ``watchdog_interval`` mean what
    they mean to :class:`~repro.sim.simulator.Simulator`.  On success
    a summary file with the snapshot/resume counters is left behind
    and, with ``cleanup``, the now-useless snapshots are dropped.
    """
    manager = CheckpointManager(directory, meta=snapshot_meta(trace, config),
                                keep=keep)
    state = manager.latest() if resume else None
    if state is None:
        sim = Simulator(trace, config, name=name, engine=engine,
                        watchdog_interval=watchdog_interval)
        resumed_from = None
    else:
        sim = Simulator.restore(trace, config, state["machine"],
                                engine=engine,
                                watchdog_interval=watchdog_interval)
        if name is not None:
            sim.name = name
        resumed_from = int(state["cycle"])
        obs_events.emit("checkpoint_resumed", data={
            "cycle": resumed_from,
            "retired": int(state.get("retired", 0)),
            "name": sim.name})
    if checkpoint_interval:
        sim.checkpoint_every(checkpoint_interval, manager.write)
    result = sim.run()
    manager.write_summary(resumed_from)
    if cleanup:
        manager.clear()
    return CheckpointedRun(result=result,
                           snapshots_written=manager.written,
                           resumed_from_cycle=resumed_from,
                           quarantined=manager.quarantined)
