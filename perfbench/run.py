#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload fdip_server --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload nopf_server --seconds 10 --steadiness 5

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (from a second, traced pass over the same plan).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers for people, with the raw (not host-normalized) value of
every time and a machine fingerprint beside them.  ``--steadiness N``
runs the workload N times in fresh processes, one after another, and
prints each end-to-end metric's median, quartiles and extremes, raw and
normalized side by side.

Exit status: 0 when every output passed the correctness gate, 1 when
some did not (the JSON line is still printed), 2 when the program under
test cannot be found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402  (needs ROOT on the path)
from perfbench.hostclock import HostClock, now  # noqa: E402

SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fdip_server", "nopf_server", "serve_mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-normalized benchmark of the FDIP simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured work, in seconds at nominal speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="also write raw and normalized metrics here")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds seed.."
                             "seed+N-1) and summarize the spread")
    return parser.parse_args(argv)


# -- metrics ------------------------------------------------------------


def end_to_end(workload, plain, norm, import_interval,
               rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced pass.

    ``norm(start, end)`` turns a wall interval into seconds (normalized
    or raw).  Returns the metric values and the tail-percentile notes.
    """
    colds = [r for r in plain.requests if r.kind == "cold"]
    hits = [r for r in plain.requests if r.kind == "hit"]
    results = list(plain.results.values())
    setup = (norm(*import_interval)
             + metrics.median(norm(*iv) for iv in workload.setup_reps)
             + sum(norm(*iv) for iv in workload.setup_once))
    hit_latency = [norm(r.start, r.end) for r in hits]
    tail_value, tail_p, beyond = metrics.tail(hit_latency)
    attempted = workload.attempted
    values = {
        "sim_ips": metrics.median(r.instructions / norm(*r.work)
                                  for r in colds),
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
        "ipc": (sum(r.instructions for r in results)
                / sum(r.cycles for r in results)),
        "success_rate": (attempted - plain.failed(attempted)) / attempted,
        "req_per_s": len(plain.requests) / sum(norm(*iv)
                                               for iv in plain.busy),
        "hit_p50_ms": 1000.0 * metrics.median(hit_latency),
        "hit_tail_ms": 1000.0 * tail_value,
        "cold_p50_ms": 1000.0 * metrics.median(
            norm(r.start, r.end) for r in colds),
    }
    notes = {"hit_tail_ms": f"p{tail_p:g} of {len(hit_latency)} hits, "
                            f"{beyond} beyond it"}
    return values, notes


#: Per-cycle layers reported as calls and self time per cold request.
_COUNTED_LAYERS = ("sim.stall_proof", "frontend.fetch", "frontend.predict",
                   "ftb", "bpred", "cpu", "prefetch", "memory")


def per_layer(workload, plain, traced, tracer, clock, runs_from,
              setup_layers, setup_speed) -> dict:
    """The per-layer metrics of a traced pass (times per unit/request)."""
    colds = [r for r in traced.requests if r.kind == "cold"]
    hits = [r for r in traced.requests if r.kind == "hit"]

    def values(requests, category, field):
        out = []
        for request in requests:
            value = request.layers.get(category, (0, 0.0, 0.0))[field]
            if field:
                value *= clock.speed(request.start, request.end)
            out.append(value)
        return out

    def calls(requests, category):
        return statistics.fmean(values(requests, category, 0)) \
            if requests else 0.0

    def med(requests, category, field):
        return metrics.median(values(requests, category, field))

    def setup_time(category):
        return setup_layers.get(category, (0, 0.0, 0.0))[1] * setup_speed

    out = {"sim.run_s": med(colds, "sim.run", 1),
           "sim.self_s": med(colds, "sim.run", 2)}
    for layer in _COUNTED_LAYERS:
        out[f"{layer}.calls"] = calls(colds, layer)
        out[f"{layer}.self_s"] = med(colds, layer, 2)
    out["stats.bump.calls"] = calls(colds, "stats.bump")
    out["stats.self_s"] = med(colds, "stats.bump", 2)

    runs = tracer.runs[runs_from:]
    skipped = [s for s, _ in runs if s is not None]
    cycles = sum(c for _, c in runs)
    out["sim.jumped_ratio"] = (sum(skipped) / cycles
                               if runs and len(skipped) == len(runs)
                               and cycles else 0.0)

    results = list(plain.results.values())
    instructions = sum(r.instructions for r in results)
    issued = sum(r.prefetches_issued for r in results)
    useful = sum(r.prefetches_useful for r in results)
    would_miss = useful + sum(r.demand_misses + r.demand_merges
                              for r in results)
    out["memory.l1i_mpki"] = 1000.0 * sum(
        r.demand_misses + r.demand_merges for r in results) / instructions
    out["memory.bus_util"] = statistics.fmean(r.bus_utilization
                                              for r in results)
    out["prefetch.accuracy"] = useful / issued if issued else 0.0
    out["prefetch.coverage"] = useful / would_miss if would_miss else 0.0

    out["cfg.generate_s"] = setup_time("cfg.generate")
    out["trace.walk_s"] = setup_time("trace.walk")
    out["trace.write_s"] = setup_time("trace.write")
    out["trace.read_s"] = med(colds, "trace.read", 1)

    out["spec.resolve_s"] = med(hits, "spec.resolve", 1)
    out["cachekey.calls"] = calls(traced.requests, "cachekey")
    out["cachekey.self_s"] = med(hits, "cachekey", 2)
    out["persist.read_s"] = med(hits, "persist.read", 1)
    out["serialize.from_dict_s"] = med(hits, "serialize.from_dict", 1)
    out["serve.submit_s"] = med(hits, "serve.submit", 1)

    out["results.collect_s"] = med(colds, "results.collect", 1)
    out["persist.write_s"] = med(colds, "persist.write", 1)
    out["serialize.to_dict_s"] = med(colds, "serialize.to_dict", 1)
    out["serve.queue_wait_ms"] = 1000.0 * metrics.median(
        clock.normalized(r.start, r.work[0]) for r in colds)

    counters = plain.counters
    out["serve.cache_hits"] = counters.get("cache_hits", 0)
    out["serve.simulations"] = counters.get("simulations", 0)
    out["serve.coalesced"] = counters.get("coalesced", 0)
    out["serve.jobs_retained"] = counters.get("jobs", 0)

    plain_colds = [r for r in plain.requests if r.kind == "cold"]
    out["host.ref_ms"] = 1000.0 * clock.median_iteration_s()
    out["host.sim_ips_raw"] = metrics.median(
        r.instructions / clock.work(*r.work) for r in plain_colds)
    out["host.req_per_s_raw"] = len(plain.requests) / sum(
        clock.work(*iv) for iv in plain.busy)
    out["host.trace_overhead"] = (
        sum(clock.normalized(*iv) for iv in traced.busy)
        / sum(clock.normalized(*iv) for iv in plain.busy))
    return out


# -- one run --------------------------------------------------------------


def run_once(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run this from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole process (threads started later inherit it):
    # the service's worker thread then runs on the core the main
    # thread's kernel samples measure.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    clock = HostClock()
    clock.start()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    workload = None
    try:
        clock.bracket()
        start = now()
        workloads = importlib.import_module("perfbench.workloads")
        import_interval = (start, now())
        clock.bracket()

        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, scratch)
        workload.setup(clock)
        plain = workload.run_pass(clock)
        traced = tracer = None
        if args.trace:
            from perfbench.tracer import Tracer

            workload.stop_service()
            tracer = Tracer()
            clock.on_sample = tracer.steal
            tracer.install()
            try:
                before = tracer.snapshot()
                start = now()
                workload.traced_setup(tracer)
                setup_interval = (start, now())
                clock.bracket()
                setup_layers = workloads.layer_delta(tracer, before)
                workload.restart_service()
                runs_from = len(tracer.runs)
                traced = workload.run_pass(clock, tracer)
            finally:
                tracer.uninstall()
                clock.on_sample = None
            if traced.digest() != plain.digest():
                plain.fail(None, "the traced pass produced different "
                                 "results")
        workload.stop_service()
        clock.stop()
        workload.check_naive(plain)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        normalized, notes = end_to_end(workload, plain, clock.normalized,
                                       import_interval, rss_mb)
        raw, _ = end_to_end(workload, plain, clock.work, import_interval,
                            rss_mb)
        if tracer is not None:
            printed = per_layer(workload, plain, traced, tracer, clock,
                                runs_from, setup_layers,
                                clock.speed(*setup_interval))
            definitions = metrics.PER_LAYER
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write_spans(spans, import_interval[0])
        else:
            printed = normalized
            definitions = metrics.END_TO_END
    finally:
        clock.stop()
        if workload is not None:
            workload.stop_service()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = workload.attempted
    failed = plain.failed(attempted)
    fingerprint = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_iteration_ms": 1000.0 * clock.median_iteration_s(),
        "kernel_samples": clock.samples,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}")
    print("host " + "  ".join(f"{k} {v:.4g}" if isinstance(v, float)
                              else f"{k} {v}"
                              for k, v in fingerprint.items()))
    print(f"results sha256 {plain.digest()}")
    for name, (unit, better) in definitions.items():
        line = f"  {name:24s} {printed[name]:>14.6g} {unit:9s} ({better})"
        if name in raw and name not in ("ipc", "success_rate",
                                        "peak_rss_mb"):
            line += f"   raw {raw[name]:.6g}"
        if name in notes and tracer is None:
            line += f"   [{notes[name]}]"
        print(line)
    if tracer is not None:
        print(f"spans written to {spans.relative_to(ROOT)}")
        for label in tracer.absent:
            print(f"  entry point absent: {label}")
    for message in plain.failures[:20]:
        print(f"  FAILED {message}")
    if args.report is not None:
        args.report.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "digest": plain.digest(), "fingerprint": fingerprint,
            "normalized": normalized, "raw": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": printed[name], "unit": unit}
                    for name, (unit, _) in definitions.items()},
    }))
    return 0 if failed == 0 else 1


# -- steadiness report ----------------------------------------------------


def steadiness(args: argparse.Namespace) -> int:
    SCRATCH.mkdir(exist_ok=True)
    reports = []
    for offset in range(args.steadiness):
        seed = args.seed + offset
        with tempfile.TemporaryDirectory(dir=SCRATCH) as directory:
            report = Path(directory) / "report.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0",
                       "--report", str(report)]
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
                print(f"run with seed {seed} failed "
                      f"(exit {proc.returncode})")
                return 1
            reports.append(json.loads(report.read_text()))
        print(f"seed {seed}: done", flush=True)

    def summary(values: list[float]) -> str:
        q1, q2, q3 = metrics.quartiles(values)
        spread = (q3 - q1) / q2 if q2 else 0.0
        return (f"median {q2:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                f"min {min(values):10.5g}  max {max(values):10.5g}  "
                f"iqr/median {spread:6.3f}")

    print(f"{args.workload}: {len(reports)} runs, seeds {args.seed}.."
          f"{args.seed + len(reports) - 1}, {args.seconds} s each")
    kernel_ms = [r["fingerprint"]["kernel_iteration_ms"] for r in reports]
    print(f"  {'host.ref_ms':14s} raw        {summary(kernel_ms)}")
    for name in metrics.END_TO_END:
        for label, kind in ((name, "normalized"), ("", "raw")):
            values = [report[kind][name] for report in reports]
            print(f"  {label:14s} {kind:10s} {summary(values)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
