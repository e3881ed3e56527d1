#!/usr/bin/env python
"""Simulation-service smoke check (CI: the ``serve-smoke`` job).

Drives the real daemon end to end over HTTP and asserts the serving
contract:

1. ``repro serve --port 0`` starts, prints its bound address, and
   serves ``/v1/health``;
2. N concurrent identical submissions run **exactly one** simulation —
   asserted from the structured event log (one ``run_start`` /
   ``serve_running``; every duplicate either coalesced onto it or hit
   the cache);
3. a repeat of the same request after completion is a pure cache hit
   (zero additional simulations) and the served result is
   **bit-identical** to a direct in-process ``api.simulate()`` run;
4. the wire form is checked: a body whose ``config`` names
   ``event_log`` (a run option, not part of the machine) and a body
   tagged ``repro.request/v2`` are both refused with HTTP 400;
5. ``POST /v1/shutdown`` drains the service and the daemon exits 0,
   emitting ``serve_stop``.

Exits non-zero on the first violation.  Pure standard library, a few
seconds of wall clock — cheap enough for every CI run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

LENGTH = 20_000
DUPLICATES = 4


def _fail(message: str) -> None:
    raise SystemExit(f"serve-smoke: {message}")


def _submit_status(host: str, port: int, body: dict) -> int:
    """HTTP status of one raw ``POST /v1/submit``."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/v1/submit", body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def main() -> int:
    from repro.config import SimConfig
    from repro.obs import read_events
    from repro.serve import Client
    from repro.spec import RunRequest

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as work:
        events_path = os.path.join(work, "events.jsonl")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(ROOT, "src"),
                   REPRO_LOG_FILE=events_path)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", os.path.join(work, "cache")],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            line = daemon.stdout.readline().strip()
            match = re.match(r"serving on http://([\d.]+):(\d+)$", line)
            if not match:
                _fail(f"unexpected startup line {line!r}")
            client = Client(match.group(1), int(match.group(2)))
            if client.health().get("ok") is not True:
                _fail("health check failed")

            request = RunRequest("compress_like", SimConfig(),
                                 trace_length=LENGTH, seed=1,
                                 label="compress_like")

            # -- duplicate concurrent submissions --------------------
            ids: list[str | None] = [None] * DUPLICATES

            def submit(slot: int) -> None:
                ids[slot] = client.submit(request)

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(DUPLICATES)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if None in ids or len(set(ids)) != DUPLICATES:
                _fail(f"expected {DUPLICATES} distinct job ids, "
                      f"got {ids}")
            responses = [client.fetch(job, wait=300) for job in ids]
            print(f"serve-smoke: {DUPLICATES} duplicate submissions -> "
                  f"sources {sorted(r.source for r in responses)}")

            # -- repeat after completion: a pure cache hit -----------
            repeat = client.run(request, wait=300)
            if repeat.source != "cache":
                _fail(f"repeat request came back {repeat.source!r}, "
                      f"expected 'cache'")

            # -- served results are bit-identical to a direct run ----
            from repro.api import simulate
            from repro.sim.serialize import result_to_json
            from repro.workloads import build_trace

            direct = simulate(build_trace("compress_like", LENGTH,
                                          seed=1),
                              SimConfig(), name="compress_like")
            golden = result_to_json(direct)
            for response in [*responses, repeat]:
                if result_to_json(response.result) != golden:
                    _fail("served result is not bit-identical to a "
                          "direct api.simulate() run")
            print("serve-smoke: served results bit-identical to a "
                  "direct run")

            # -- the wire form refuses run options and old schemas ---
            wire = request.to_dict()
            bodies = {
                "a config naming event_log": dict(wire, config=dict(
                    wire["config"],
                    event_log=os.path.join(work, "wire.jsonl"))),
                "a repro.request/v2 body": dict(
                    wire, schema="repro.request/v2"),
            }
            for what, body in bodies.items():
                status = _submit_status(match.group(1),
                                        int(match.group(2)),
                                        {"request": body})
                if status != 400:
                    _fail(f"{what} got HTTP {status}, expected 400")
            print("serve-smoke: malformed wire forms refused with 400")

            # -- clean shutdown --------------------------------------
            client.shutdown()
            if daemon.wait(timeout=30) != 0:
                _fail(f"daemon exited {daemon.returncode}")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)

        # -- the event log tells the whole story ---------------------
        events = read_events(events_path)
        counts: dict[str, int] = {}
        for event in events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        if counts.get("run_start", 0) != 1:
            _fail(f"expected exactly 1 simulation in the daemon, "
                  f"event log shows {counts.get('run_start', 0)} "
                  f"run_start events")
        if counts.get("serve_running", 0) != 1:
            _fail(f"expected exactly 1 serve_running event, "
                  f"got {counts.get('serve_running', 0)}")
        duplicates_accounted = counts.get("serve_coalesced", 0) \
            + counts.get("serve_cache_hit", 0)
        # DUPLICATES-1 duplicates plus the post-completion repeat all
        # avoided a simulation, whichever path each one took.
        if duplicates_accounted != DUPLICATES:
            _fail(f"expected {DUPLICATES} coalesced/cache-hit "
                  f"submissions, got {duplicates_accounted} "
                  f"(counts {counts})")
        if counts.get("serve_cache_hit", 0) < 1:
            _fail("the post-completion repeat never hit the cache")
        for kind in ("serve_start", "serve_enqueued", "serve_scheduled",
                     "serve_done", "serve_stop"):
            if counts.get(kind, 0) < 1:
                _fail(f"event log is missing {kind} (counts {counts})")
        print(f"serve-smoke: event log ok "
              f"({counts.get('serve_enqueued')} submissions, "
              f"1 simulation, "
              f"{counts.get('serve_coalesced', 0)} coalesced, "
              f"{counts.get('serve_cache_hit', 0)} cache hits)")
    print("serve-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
