"""Command-line interface.

Subcommands::

    python -m repro list                         # workloads + techniques
    python -m repro characterize -w gcc_like     # trace characterization
    python -m repro run -w perl_like -p fdip     # one simulation
    python -m repro stats -w gcc_like --json     # full telemetry tree
    python -m repro experiment E3                # regenerate one table
    python -m repro calibrate                    # workload band checks
    python -m repro report -o report.md          # all experiments -> md
    python -m repro sweep -t none fdip_enqueue   # fault-tolerant sweep
    python -m repro perf                         # engine throughput
    python -m repro profile -w gcc_like          # cycle attribution
    python -m repro serve --port 8357            # simulation service
    python -m repro submit -w gcc_like --wait 60 # request via the daemon
    python -m repro status job-000001            # job state snapshot
    python -m repro fetch job-000001 --wait 60   # typed result retrieval

Every subcommand accepts ``--length`` (alias ``--trace-length``) and
``--seed`` via one parent parser, so the flags spell and behave
identically everywhere.  ``sweep``, the one command that runs a
supervised pool, takes ``--processes``, ``--max-retries``, and
``--point-timeout``; ``report --processes`` prewarms the main grid
through the same pool.
``run`` prints a metrics table, or JSON with ``--json``.  ``stats``
dumps the full hierarchical telemetry tree — human table by default,
the versioned snapshot schema with ``--json``, flat
``path,counter,value`` rows with ``--csv``, and per-window interval
series (``--window N``) alongside.

Observability (see ``docs/observability.md``): ``run``, ``stats``,
``sweep``, ``profile``, and ``serve`` share ``--log-file`` /
``--log-stderr`` (structured ``repro.events/v2`` JSONL, inherited by
worker processes) and ``--trace-export`` (convert the event log into
Chrome trace-event JSON loadable in Perfetto).  ``profile`` and
``stats --profile`` report the per-component cycle-attribution
breakdown.

Serving (see ``docs/serving.md``): ``serve`` runs the HTTP simulation
service daemon (priority queue, request coalescing, content-addressed
result cache); ``submit`` / ``status`` / ``fetch`` are its client
commands and share ``--host`` / ``--port`` via one parent parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import env
from repro.config import DEFAULT_ENGINE, ENGINES, FilterMode, \
    PrefetcherKind, SimConfig
from repro.errors import ConfigError, ReproError
from repro.harness import (
    EXPERIMENTS,
    ResultStore,
    Runner,
    TECHNIQUE_ORDER,
    parallel_sweep,
    technique_config,
)
from repro.api import profile_run
from repro.harness.report import generate_report
from repro.obs import events as obs_events
from repro.obs.profile import CATEGORIES as PROFILE_CATEGORIES
from repro.obs.spans import export_chrome_trace
from repro.sim import Simulator
from repro.stats import IntervalSeries, format_table, rows_to_csv, \
    telemetry_table
from repro.trace import characterize
from repro.workloads import ALL_WORKLOADS, build_trace, get_profile

__all__ = ["main", "build_parser"]

_DEFAULT_LENGTH = 60_000


def _trace_flags() -> argparse.ArgumentParser:
    """Shared ``--length``/``--seed`` parent parser.

    Both default to ``None`` so each subcommand can resolve its own
    fallback (see :func:`_length` and :func:`_seed`): most use 60 000
    instructions and seed 1, ``perf`` keeps its benchmark lengths and
    trace seed.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--length", "--trace-length", dest="length",
                        type=int, default=None,
                        help="trace length in instructions "
                             f"(default {_DEFAULT_LENGTH})")
    parent.add_argument("--seed", type=int, default=None,
                        help="trace walk seed (default 1)")
    return parent


def _cycles(text: str) -> int:
    """argparse type of a cycle count (an int >= 0)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _checkpoint_flags() -> argparse.ArgumentParser:
    """Shared in-run checkpoint/watchdog parent parser (run/stats)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--checkpoint-interval", type=_cycles, default=0,
                        metavar="CYCLES",
                        help="write a resumable machine snapshot every "
                             "N cycles (0 = off; needs --machine-"
                             "checkpoint-dir)")
    parent.add_argument("--machine-checkpoint-dir", default=None,
                        metavar="DIR",
                        help="directory for in-run machine snapshots; "
                             "an existing valid snapshot of this exact "
                             "run is resumed automatically")
    parent.add_argument("--watchdog-interval", type=_cycles, default=0,
                        metavar="CYCLES",
                        help="abort with a state dump if no instruction "
                             "retires for N cycles (0 = off)")
    return parent


def _obs_flags() -> argparse.ArgumentParser:
    """Shared observability parent parser (run/stats/sweep/profile/serve)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--log-file", default=None, metavar="JSONL",
                        help="append structured repro.events/v2 events "
                             "to this JSON-lines file (worker processes "
                             "inherit the sink)")
    parent.add_argument("--log-stderr", action="store_true",
                        help="mirror structured events to stderr")
    parent.add_argument("--trace-export", default=None, metavar="JSON",
                        help="after the command, convert the event log "
                             "into Chrome trace-event JSON (loadable in "
                             "Perfetto); implies an event log")
    return parent


def _endpoint_flags() -> argparse.ArgumentParser:
    """Shared ``--host``/``--port`` parent parser (serve and clients)."""
    from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--host", default=DEFAULT_HOST,
                        help=f"service address (default {DEFAULT_HOST})")
    parent.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"service port (default {DEFAULT_PORT}; "
                             f"'serve' accepts 0 for an ephemeral port)")
    return parent


def _length(args: argparse.Namespace,
            fallback: int = _DEFAULT_LENGTH) -> int:
    return args.length if args.length is not None else fallback


def _seed(args: argparse.Namespace, fallback: int = 1) -> int:
    return args.seed if args.seed is not None else fallback


def _require_snapshot_dir(interval: int | None, directory: str | None,
                          flag: str) -> None:
    """Refuse a snapshot cadence given without a snapshot directory."""
    if interval and not directory:
        raise ConfigError(f"--checkpoint-interval needs {flag}; without "
                          f"it no snapshot is written")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fetch Directed Instruction Prefetching (MICRO-32 "
                    "1999) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    trace_flags = _trace_flags()
    checkpoint_flags = _checkpoint_flags()
    obs_flags = _obs_flags()

    sub.add_parser("list", help="list workloads and techniques")

    p_char = sub.add_parser("characterize", parents=[trace_flags],
                            help="characterize a workload trace")
    p_char.add_argument("-w", "--workload", required=True,
                        choices=ALL_WORKLOADS)

    p_run = sub.add_parser("run",
                           parents=[trace_flags, checkpoint_flags,
                                    obs_flags],
                           help="run one simulation")
    p_run.add_argument("-w", "--workload", required=True,
                       choices=ALL_WORKLOADS)
    p_run.add_argument("-p", "--prefetcher", default=PrefetcherKind.FDIP,
                       choices=PrefetcherKind.ALL)
    p_run.add_argument("-f", "--filter", default=FilterMode.ENQUEUE,
                       choices=FilterMode.ALL,
                       help="cache probe filtering mode (fdip only)")
    p_run.add_argument("--warmup", type=int, default=0)
    p_run.add_argument("--json", action="store_true",
                       help="emit metrics as JSON")
    p_run.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                       help="cycle engine (default: 'event'; results "
                            "are identical under either engine)")
    p_run.add_argument("--resume-from", default=None, metavar="SNAPSHOT",
                       help="resume from one explicit snapshot file "
                            "(written under --machine-checkpoint-dir)")

    p_stats = sub.add_parser(
        "stats",
        parents=[trace_flags, checkpoint_flags, obs_flags],
        help="run one simulation, dump the hierarchical telemetry tree")
    p_stats.add_argument("-w", "--workload", required=True,
                         choices=ALL_WORKLOADS)
    p_stats.add_argument("-p", "--prefetcher", default=PrefetcherKind.FDIP,
                         choices=PrefetcherKind.ALL)
    p_stats.add_argument("-f", "--filter", default=FilterMode.ENQUEUE,
                         choices=FilterMode.ALL,
                         help="cache probe filtering mode (fdip only)")
    p_stats.add_argument("--warmup", type=int, default=0)
    p_stats.add_argument("--window", type=int, default=0,
                         help="interval sampling window in cycles "
                              "(0 = no interval series)")
    fmt = p_stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the full versioned snapshot as JSON")
    fmt.add_argument("--csv", action="store_true",
                     help="emit flat path,counter,value CSV")
    p_stats.add_argument("--intervals", action="store_true",
                         help="with --csv: emit the interval series "
                              "instead of the counters")
    p_stats.add_argument("--profile", action="store_true",
                         help="also report the per-component "
                              "cycle-attribution profile")

    p_exp = sub.add_parser("experiment", parents=[trace_flags],
                           help="regenerate one experiment")
    p_exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS),
                       metavar="EXPERIMENT",
                       help=f"one of {', '.join(sorted(EXPERIMENTS))}")

    p_cal = sub.add_parser("calibrate", parents=[trace_flags],
                           help="check workload profiles against their "
                                "calibration bands")
    p_cal.add_argument("-w", "--workload", default=None,
                       choices=ALL_WORKLOADS,
                       help="one profile (default: the whole suite)")

    p_sw = sub.add_parser(
        "sweep", parents=[trace_flags, obs_flags],
        help="fault-tolerant parallel sweep over workloads x techniques")
    p_sw.add_argument("--processes", type=int, default=None,
                      help="worker processes (1 = inline)")
    p_sw.add_argument("--max-retries", type=int, default=2,
                      help="retries per point after the first attempt")
    p_sw.add_argument("--point-timeout", type=float, default=None,
                      help="wall-clock seconds per point attempt")
    p_sw.add_argument("-w", "--workloads", nargs="+", default=None,
                      choices=ALL_WORKLOADS,
                      help="workload subset (default: the whole suite)")
    p_sw.add_argument("-t", "--techniques", nargs="+",
                      default=["none", "fdip_enqueue"],
                      choices=TECHNIQUE_ORDER)
    p_sw.add_argument("--checkpoint-dir", default=None,
                      help="result store directory (default: "
                           "$REPRO_RESULT_CACHE); points it holds are "
                           "served from it, so rerunning with the same "
                           "directory resumes")
    p_sw.add_argument("--machine-checkpoints", default=None,
                      metavar="DIR",
                      help="in-run machine snapshot directory: killed or "
                           "hung workers resume their point mid-run "
                           "instead of restarting it")
    p_sw.add_argument("--checkpoint-interval", type=_cycles, default=None,
                      metavar="CYCLES",
                      help="snapshot cadence for --machine-checkpoints")

    p_prof = sub.add_parser(
        "profile", parents=[trace_flags, obs_flags],
        help="run one simulation, report the per-component "
             "cycle-attribution breakdown")
    p_prof.add_argument("-w", "--workload", required=True,
                        choices=ALL_WORKLOADS)
    p_prof.add_argument("-p", "--prefetcher",
                        default=PrefetcherKind.FDIP,
                        choices=PrefetcherKind.ALL)
    p_prof.add_argument("-f", "--filter", default=FilterMode.ENQUEUE,
                        choices=FilterMode.ALL,
                        help="cache probe filtering mode (fdip only)")
    p_prof.add_argument("--warmup", type=int, default=0)
    p_prof.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                        help="cycle engine to profile under (the "
                             "profile is identical under either engine)")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the repro.profile/v1 document")

    p_perf = sub.add_parser(
        "perf", parents=[trace_flags],
        help="measure simulated-instructions/second across the "
             "cycle engines")
    p_perf.add_argument("--quick", action="store_true",
                        help="short traces (CI smoke mode)")
    p_perf.add_argument("--output", default=None,
                        help="report JSON path (default: BENCH_perf.json)")
    p_perf.add_argument("--baseline", default=None,
                        help="baseline JSON to compare against "
                             "(default: benchmarks/perf_baseline.json "
                             "when it exists)")
    p_perf.add_argument("--max-regression", type=float, default=None,
                        help="allowed fractional speedup drop vs the "
                             "baseline, per engine (default 0.15)")
    p_perf.add_argument("--reps", type=int, default=None,
                        help="timing repetitions per point "
                             "(median-of; default 5)")
    p_perf.add_argument("--warmup", type=int, default=None,
                        help="untimed warm-up repetitions per point "
                             "before timing starts (default 1)")

    endpoint_flags = _endpoint_flags()

    p_serve = sub.add_parser(
        "serve", parents=[endpoint_flags, obs_flags],
        help="run the HTTP simulation service daemon")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="concurrent simulation worker threads")
    p_serve.add_argument("--max-queue-depth", type=int, default=16,
                         help="queued-request bound; submissions beyond "
                              "it are rejected with HTTP 429")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="content-addressed result cache directory "
                              "(default: $REPRO_SERVE_CACHE; unset "
                              "disables the cache)")

    p_sub = sub.add_parser(
        "submit", parents=[endpoint_flags, trace_flags],
        help="submit one simulation request to a running daemon")
    p_sub.add_argument("-w", "--workload", required=True,
                       choices=ALL_WORKLOADS)
    p_sub.add_argument("-p", "--prefetcher", default=PrefetcherKind.FDIP,
                       choices=PrefetcherKind.ALL)
    p_sub.add_argument("-f", "--filter", default=FilterMode.ENQUEUE,
                       choices=FilterMode.ALL,
                       help="cache probe filtering mode (fdip only)")
    p_sub.add_argument("--warmup", type=int, default=0)
    p_sub.add_argument("--priority", type=int, default=0,
                       help="queue priority (higher runs sooner)")
    p_sub.add_argument("--wait", type=float, default=0.0, metavar="S",
                       help="block up to S seconds and print the "
                            "result (default: print the job id only)")
    p_sub.add_argument("--json", action="store_true",
                       help="with --wait: emit the metrics as JSON")

    p_stat = sub.add_parser(
        "status", parents=[endpoint_flags],
        help="print one job's state snapshot as JSON")
    p_stat.add_argument("job", help="job id from 'repro submit'")

    p_fetch = sub.add_parser(
        "fetch", parents=[endpoint_flags],
        help="retrieve one job's result from the daemon")
    p_fetch.add_argument("job", help="job id from 'repro submit'")
    p_fetch.add_argument("--wait", type=float, default=0.0, metavar="S",
                         help="block up to S seconds for completion")
    p_fetch.add_argument("--json", action="store_true",
                         help="emit metrics as JSON")

    p_rep = sub.add_parser("report", parents=[trace_flags],
                           help="run every experiment, emit markdown")
    p_rep.add_argument("-o", "--output", default="-",
                       help="output file ('-' for stdout)")
    p_rep.add_argument("--experiments", nargs="*", default=None,
                       help="subset of experiment ids (default: all)")
    p_rep.add_argument("--processes", type=int, default=None,
                       help="prewarm the main grid with this many "
                            "supervised workers before reporting "
                            "(when a requested experiment reads it)")

    return parser


def _cmd_list() -> int:
    print("workloads:")
    for name in ALL_WORKLOADS:
        profile = get_profile(name)
        print(f"  {name:16s} [{profile.category}] {profile.description}")
    print("\nprefetchers:", ", ".join(PrefetcherKind.ALL))
    print("filter modes (fdip):", ", ".join(FilterMode.ALL))
    print("experiments:", ", ".join(sorted(
        EXPERIMENTS, key=lambda e: int(e[1:]))))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    trace = build_trace(args.workload, _length(args), seed=_seed(args))
    stats = characterize(trace)
    rows = [
        ["records", stats.n_records],
        ["distinct pcs", stats.distinct_pcs],
        ["footprint KB", stats.footprint_kb],
        ["distinct 32B blocks", stats.distinct_blocks],
        ["control fraction", stats.control_fraction],
        ["taken fraction", stats.taken_fraction],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} ({_length(args)} instrs)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _require_snapshot_dir(args.checkpoint_interval,
                          args.machine_checkpoint_dir,
                          "--machine-checkpoint-dir")
    trace = build_trace(args.workload, _length(args), seed=_seed(args))
    config = SimConfig()
    config = technique_config(_technique_name(args), config)
    if args.warmup:
        config = config.replace(warmup_instructions=args.warmup)

    footer = None
    if args.resume_from:
        from pathlib import Path

        from repro.sim import CheckpointManager, snapshot_meta

        meta = snapshot_meta(trace, config)
        manager = CheckpointManager(Path(args.resume_from).parent,
                                    meta=meta)
        state = manager.load(args.resume_from)
        sim = Simulator.restore(trace, config, state["machine"],
                                engine=args.engine,
                                watchdog_interval=args.watchdog_interval)
        if args.machine_checkpoint_dir and args.checkpoint_interval > 0:
            sink = CheckpointManager(args.machine_checkpoint_dir,
                                     meta=meta)
            sim.checkpoint_every(args.checkpoint_interval, sink.write)
        result = sim.run()
        footer = (f"checkpointing: resumed from {args.resume_from} "
                  f"(cycle {state['cycle']})")
    elif args.machine_checkpoint_dir:
        from repro.sim import run_with_checkpoints

        run = run_with_checkpoints(
            trace, config, directory=args.machine_checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            name=args.workload, engine=args.engine,
            watchdog_interval=args.watchdog_interval)
        result = run.result
        footer = (f"checkpointing: {run.snapshots_written} snapshots "
                  f"written to {args.machine_checkpoint_dir}")
        if run.resumed_from_cycle is not None:
            footer += f", resumed from cycle {run.resumed_from_cycle}"
        if run.quarantined:
            footer += f", {run.quarantined} corrupt snapshots quarantined"
    else:
        result = Simulator(trace, config, engine=args.engine,
                           watchdog_interval=args.watchdog_interval).run()
    if footer is not None:
        print(footer, file=sys.stderr)
    if args.json:
        payload = {
            "workload": result.name,
            "prefetcher": result.prefetcher,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": result.ipc,
            "l1i_mpki": result.l1i_mpki,
            "bus_utilization": result.bus_utilization,
            "prefetches_issued": result.prefetches_issued,
            "prefetch_accuracy": result.prefetch_accuracy,
            "prefetch_coverage": result.prefetch_coverage,
            "mispredicts_per_ki": result.mispredicts_per_ki,
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        ["IPC", result.ipc],
        ["cycles", result.cycles],
        ["L1-I MPKI", result.l1i_mpki],
        ["bus utilization", result.bus_utilization],
        ["prefetches issued", result.prefetches_issued],
        ["prefetch accuracy", result.prefetch_accuracy],
        ["prefetch coverage", result.prefetch_coverage],
        ["mispredicts / ki", result.mispredicts_per_ki],
        ["bpred accuracy", result.bpred_accuracy],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.workload} / {_technique_name(args)}"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _require_snapshot_dir(args.checkpoint_interval,
                          args.machine_checkpoint_dir,
                          "--machine-checkpoint-dir")
    trace = build_trace(args.workload, _length(args), seed=_seed(args))
    config = technique_config(_technique_name(args), SimConfig())
    if args.warmup:
        config = config.replace(warmup_instructions=args.warmup)
    if args.window:
        config = config.replace(telemetry_window=args.window)
    if args.profile and args.machine_checkpoint_dir:
        print("error: --profile does not compose with "
              "--machine-checkpoint-dir; profile a plain run",
              file=sys.stderr)
        return 2
    if args.profile and args.csv:
        print("error: the profile has no CSV form; use --json or the "
              "human table", file=sys.stderr)
        return 2
    profile = None
    if args.machine_checkpoint_dir:
        from repro.sim import run_with_checkpoints

        run = run_with_checkpoints(
            trace, config, directory=args.machine_checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            name=args.workload, watchdog_interval=args.watchdog_interval)
        result = run.result
        print(f"checkpointing: {run.snapshots_written} snapshots written"
              + (f", resumed from cycle {run.resumed_from_cycle}"
                 if run.resumed_from_cycle is not None else ""),
              file=sys.stderr)
    else:
        sim = Simulator(trace, config, profile=args.profile,
                        watchdog_interval=args.watchdog_interval)
        result = sim.run()
        if args.profile:
            profile = sim.profile_report()
    snapshot = result.telemetry
    assert snapshot is not None   # live runs always carry a snapshot

    if args.csv and args.intervals:
        if snapshot.intervals is None:
            print("error: no interval series recorded; pass --window N",
                  file=sys.stderr)
            return 2
        print(rows_to_csv(IntervalSeries.headers(),
                          snapshot.intervals.rows()), end="")
        return 0
    if args.json:
        if profile is not None:
            payload = json.loads(snapshot.to_json())
            payload["profile"] = profile
            print(json.dumps(payload, indent=2))
        else:
            print(snapshot.to_json(indent=2))
        return 0
    if args.csv:
        print(rows_to_csv(snapshot.counter_headers(),
                          snapshot.counter_rows()), end="")
        return 0
    print(telemetry_table(snapshot))
    if snapshot.intervals is not None:
        print()
        print(format_table(
            IntervalSeries.headers(), snapshot.intervals.rows(),
            title=f"interval series (window "
                  f"{snapshot.intervals.window} cycles)"))
    if profile is not None:
        print()
        _print_profile(profile,
                       title=f"cycle attribution ({args.workload})")
    return 0


def _print_profile(profile: dict, *, title: str) -> None:
    """Render a ``repro.profile/v1`` document as a human table."""
    buckets = profile["buckets"]
    total = max(profile["cycles"], 1)
    rows: list[list[object]] = [
        [component, name, buckets[name],
         f"{buckets[name] / total * 100:5.1f}%"]
        for name, component in PROFILE_CATEGORIES
        if buckets.get(name, 0) > 0]
    rows.append(["total", "", profile["cycles"], "100.0%"])
    print(format_table(["component", "cause", "cycles", "share"],
                       rows, title=title))
    bus_busy = (profile.get("overlap") or {}).get("bus_busy")
    if bus_busy is not None:
        print(f"bus busy (overlaps the buckets above): {bus_busy} "
              f"cycles ({bus_busy / total * 100:.1f}%)")


def _cmd_profile(args: argparse.Namespace) -> int:
    trace = build_trace(args.workload, _length(args), seed=_seed(args))
    config = technique_config(_technique_name(args), SimConfig())
    if args.warmup:
        config = config.replace(warmup_instructions=args.warmup)
    response = profile_run(trace, config, name=args.workload,
                           engine=args.engine)
    result, profile = response.result, response.profile
    if args.json:
        print(json.dumps(profile, indent=2))
        return 0
    _print_profile(
        profile,
        title=f"{args.workload} / {_technique_name(args)} "
              f"(ipc {result.ipc:.4f}, {result.cycles} cycles)")
    return 0


def _technique_name(args: argparse.Namespace) -> str:
    if args.prefetcher != PrefetcherKind.FDIP:
        return args.prefetcher
    suffix = "nofilter" if args.filter == FilterMode.NONE else args.filter
    return f"fdip_{suffix}"


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = Runner(trace_length=_length(args), seed=_seed(args))
    table = EXPERIMENTS[args.experiment_id](runner)
    print(table.formatted())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.workloads import calibrate, calibrate_suite
    if args.workload:
        reports = [calibrate(args.workload, _length(args), _seed(args))]
    else:
        reports = calibrate_suite(_length(args), _seed(args))
    rows = [[r.name, "ok" if r.ok else "FAIL", r.dyn_footprint_kb,
             r.control_fraction, r.taken_fraction, r.base_mpki,
             "; ".join(r.failures)] for r in reports]
    print(format_table(
        ["workload", "status", "dyn KB", "ctrl", "taken", "mpki",
         "failures"], rows,
        title=f"calibration at {_length(args)} instructions"))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_snapshot_dir(args.checkpoint_interval,
                          args.machine_checkpoints, "--machine-checkpoints")
    workloads = args.workloads or list(ALL_WORKLOADS)
    triples = [(workload, technique, technique_config(technique))
               for workload in workloads
               for technique in args.techniques]
    points = [(workload, config) for workload, _, config in triples]
    checkpoint = args.checkpoint_dir or env.result_cache_dir()
    store = ResultStore(checkpoint) if checkpoint else None
    extra = {}
    if args.checkpoint_interval is not None:
        extra["checkpoint_interval"] = args.checkpoint_interval
    outcome = parallel_sweep(
        points, trace_length=_length(args), seed=_seed(args),
        processes=args.processes, max_retries=args.max_retries,
        point_timeout=args.point_timeout, store=store,
        machine_checkpoints=args.machine_checkpoints, **extra)
    rows = []
    for workload, technique, config in triples:
        result = outcome.results.get((workload, config))
        if result is None:
            continue
        rows.append([workload, technique, result.ipc, result.l1i_mpki,
                     result.bus_utilization])
    print(format_table(
        ["workload", "technique", "ipc", "l1i_mpki", "bus util"], rows,
        title=f"sweep at {_length(args)} instructions, "
              f"seed {_seed(args)}"))
    technique_of = {(workload, config): technique
                    for workload, technique, config in triples}
    for failure in outcome.failures:
        label = technique_of.get((failure.workload, failure.config),
                                 failure.key)
        print(f"FAILED {failure.workload}/{label}: {failure.error_type}: "
              f"{failure.message} "
              f"({len(failure.attempts)} attempts)", file=sys.stderr)
    print(outcome.summary())
    return 0 if outcome.ok else 3


def _cmd_perf(args: argparse.Namespace) -> int:
    import os

    from repro import perf

    length = args.length
    if length is None:
        length = perf.QUICK_LENGTH if args.quick else perf.DEFAULT_LENGTH
    reps = args.reps if args.reps is not None else perf.DEFAULT_REPS
    warmup = (args.warmup if args.warmup is not None
              else perf.DEFAULT_WARMUP)
    report = perf.run_perf(length=length, reps=reps, warmup=warmup,
                           seed=_seed(args, perf.DEFAULT_SEED))
    output = args.output or perf.DEFAULT_OUTPUT
    perf.write_report(report, output)
    print(perf.format_report(report))
    print(f"wrote {output}", file=sys.stderr)

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(perf.DEFAULT_BASELINE):
        baseline_path = perf.DEFAULT_BASELINE
    failures = []
    if baseline_path:
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
        max_regression = args.max_regression
        if max_regression is None:
            max_regression = perf.DEFAULT_MAX_REGRESSION
        failures = perf.compare_to_baseline(report, baseline,
                                            max_regression)
    else:
        failures = [f"{name}: results differ between cycle engines"
                    for name, data in report["points"].items()
                    if not data["identical"]]
    for failure in failures:
        print(f"PERF FAIL {failure}", file=sys.stderr)
    return 4 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    runner = Runner(trace_length=_length(args), seed=_seed(args))
    text = generate_report(runner, experiment_ids=args.experiments,
                           processes=args.processes)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServiceDaemon, SimulationService

    service = SimulationService(cache_dir=args.cache_dir,
                                workers=args.workers,
                                max_queue_depth=args.max_queue_depth)
    daemon = ServiceDaemon(service, host=args.host, port=args.port)
    host, port = daemon.address
    # The startup line is machine-readable on purpose: with --port 0
    # it is how callers (the smoke test included) learn the bound port.
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _serve_request(args: argparse.Namespace) -> "RunRequest":
    """One typed request from the submit command's flags."""
    from repro.spec import RunRequest

    config = technique_config(_technique_name(args), SimConfig())
    if args.warmup:
        config = config.replace(warmup_instructions=args.warmup)
    return RunRequest(workload=args.workload, config=config,
                      trace_length=_length(args), seed=_seed(args))


def _print_response(job_id: str, response, *, json_out: bool) -> int:
    result = response.result
    if json_out:
        payload = {
            "job": job_id,
            "source": response.source,
            "workload": result.name,
            "prefetcher": result.prefetcher,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": result.ipc,
            "l1i_mpki": result.l1i_mpki,
            "bus_utilization": result.bus_utilization,
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        ["source", response.source],
        ["IPC", result.ipc],
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["L1-I MPKI", result.l1i_mpki],
        ["bus utilization", result.bus_utilization],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{job_id} ({result.name} / "
                             f"{result.prefetcher})"))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import Client

    client = Client(args.host, args.port)
    job_id = client.submit(_serve_request(args), priority=args.priority)
    if args.wait > 0:
        return _print_response(job_id,
                               client.fetch(job_id, wait=args.wait),
                               json_out=args.json)
    print(job_id)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve import Client

    print(json.dumps(Client(args.host, args.port).status(args.job),
                     indent=2))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.serve import Client

    response = Client(args.host, args.port).fetch(args.job,
                                                  wait=args.wait)
    return _print_response(args.job, response, json_out=args.json)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "fetch":
        return _cmd_fetch(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _configure_obs(args: argparse.Namespace
                   ) -> tuple[str | None, bool, bool]:
    """Set up structured event logging from the shared obs flags.

    Returns ``(events_path, temporary, configured)``: the JSONL path
    that will feed a later ``--trace-export`` (``--trace-export``
    without ``--log-file`` logs to a temporary file we own and delete),
    and whether this process configured logging (and so should reset it
    on the way out — env-adopted logging is left alone).
    """
    log_file = getattr(args, "log_file", None)
    log_stderr = bool(getattr(args, "log_stderr", False))
    trace_export = getattr(args, "trace_export", None)
    temporary = False
    if trace_export and not log_file:
        import tempfile

        fd, log_file = tempfile.mkstemp(prefix="repro-events-",
                                        suffix=".jsonl")
        import os

        os.close(fd)
        temporary = True
    if log_file or log_stderr:
        obs_events.configure_logging(file=log_file, stderr=log_stderr)
        return log_file, temporary, True
    return log_file, temporary, False


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        events_path, temporary, configured = _configure_obs(args)
        try:
            code = _dispatch(args)
            trace_export = getattr(args, "trace_export", None)
            if trace_export and events_path:
                count = export_chrome_trace(events_path, trace_export)
                print(f"wrote {trace_export} ({count} trace events)",
                      file=sys.stderr)
            return code
        finally:
            if configured:
                obs_events.reset_logging()
            if temporary:
                import os

                try:
                    os.remove(events_path)
                except OSError:
                    pass
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
