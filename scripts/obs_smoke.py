#!/usr/bin/env python
"""Observability smoke check (CI: the ``obs-smoke`` job).

Drives the real CLI end to end and asserts the observability contract:

1. a sweep with ``--log-file``/``--trace-export`` writes an event log
   in which **every** line validates against ``repro.events/v2`` and
   carries one coherent run id, and a Chrome trace that passes the
   structural checks Perfetto's loader performs;
2. ``repro profile --json`` emits a ``repro.profile/v1`` document
   whose buckets sum exactly to the measured cycle count;
3. profiling and event logging never perturb results: a logged,
   profiled run returns a ``SimResult`` bit-identical to a bare run.

Exits non-zero on the first violation.  Pure standard library, a few
seconds of wall clock — cheap enough for every CI run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

LENGTH = "6000"


def _run_cli(*args: str, env: dict | None = None) -> str:
    command = [sys.executable, "-m", "repro", *args]
    merged = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if env:
        merged.update(env)
    done = subprocess.run(command, capture_output=True, text=True,
                          env=merged, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(
            f"obs-smoke: {' '.join(command)} exited "
            f"{done.returncode}\n{done.stderr}")
    return done.stdout


def check_sweep_log_and_trace(workdir: str) -> None:
    from repro.obs import read_events, validate_chrome_trace

    events_path = os.path.join(workdir, "events.jsonl")
    trace_path = os.path.join(workdir, "sweep.trace.json")
    _run_cli("sweep", "-w", "compress_like", "-t", "none",
             "fdip_enqueue", "--length", LENGTH, "--processes", "2",
             "--log-file", events_path, "--trace-export", trace_path)

    events = read_events(events_path)   # validates every line
    if not events:
        raise SystemExit("obs-smoke: sweep wrote no events")
    kinds = {event["kind"] for event in events}
    needed = {"sweep_start", "task_spawn", "run_start", "run_end",
              "task_done", "sweep_end"}
    if not needed <= kinds:
        raise SystemExit(
            f"obs-smoke: sweep log is missing kinds "
            f"{sorted(needed - kinds)}")
    runs = {event["run"] for event in events}
    if len(runs) != 1 or None in runs:
        raise SystemExit(
            f"obs-smoke: expected one run id across supervisor and "
            f"workers, saw {runs}")
    settled = [e for e in events if e["kind"] == "task_done"]
    if any(e["point"] is None or e["attempt"] is None for e in settled):
        raise SystemExit("obs-smoke: task_done events lost their "
                         "point/attempt correlation ids")

    with open(trace_path, encoding="utf-8") as handle:
        document = json.load(handle)
    validate_chrome_trace(document)
    if not document["traceEvents"]:
        raise SystemExit("obs-smoke: exported Chrome trace is empty")
    print(f"obs-smoke: sweep ok ({len(events)} events, "
          f"{len(document['traceEvents'])} trace events)")


def check_profile_sums() -> None:
    out = _run_cli("profile", "-w", "compress_like", "--length", LENGTH,
                   "--json")
    profile = json.loads(out)
    if profile.get("schema") != "repro.profile/v1":
        raise SystemExit(
            f"obs-smoke: bad profile schema {profile.get('schema')!r}")
    total = sum(profile["buckets"].values())
    if total != profile["cycles"]:
        raise SystemExit(
            f"obs-smoke: profile buckets sum to {total}, "
            f"run took {profile['cycles']} cycles")
    print(f"obs-smoke: profile ok ({profile['cycles']} cycles "
          f"fully attributed)")


def check_results_unperturbed(workdir: str) -> None:
    from repro.api import profile_run, simulate
    from repro.config import SimConfig
    from repro.obs import configure_logging, reset_logging
    from repro.workloads import build_trace

    trace = build_trace("compress_like", int(LENGTH), seed=1)
    bare = simulate(trace, SimConfig())
    configure_logging(file=os.path.join(workdir, "perturb.jsonl"))
    try:
        response = profile_run(trace, SimConfig())
        observed, profile = response.result, response.profile
    finally:
        reset_logging()
    if observed != bare:
        raise SystemExit("obs-smoke: observability perturbed the "
                         "simulation result")
    if sum(profile["buckets"].values()) != bare.cycles:
        raise SystemExit("obs-smoke: profile disagrees with the bare "
                         "run's cycle count")
    print("obs-smoke: results bit-identical with observability on")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as work:
        check_sweep_log_and_trace(work)
        check_profile_sums()
        check_results_unperturbed(work)
    print("obs-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
