"""Markdown report generation: every experiment in one document.

Used by ``python -m repro report`` and by maintainers to refresh the
measured sections of EXPERIMENTS.md after a model change.
"""

from __future__ import annotations

from repro.harness.runner import Runner

__all__ = ["generate_report"]

_HEADER = """\
# Reproduction report — Fetch Directed Instruction Prefetching (MICRO-32 1999)

Generated by `python -m repro report`.  Each section regenerates one
table/figure of the reconstructed evaluation (experiment index in
DESIGN.md).  Trace length: {length} instructions per workload,
seed {seed}.
"""


def generate_report(runner: Runner | None = None,
                    experiment_ids: list[str] | None = None,
                    processes: int | None = None) -> str:
    """Run experiments and render one markdown document.

    ``experiment_ids`` defaults to every registered experiment, in
    numeric order.  With ``processes`` given, and when a requested
    experiment reads the shared main-comparison grid (see
    :data:`~repro.harness.experiments.MAIN_GRID_EXPERIMENTS`), the grid
    is prewarmed through the fault-tolerant parallel sweep first; any
    point that fails there is transparently re-simulated inline by the
    experiment that needs it.
    """
    from repro.harness.experiments import (
        EXPERIMENTS,
        MAIN_GRID_EXPERIMENTS,
        prewarm_main_grid,
    )

    if runner is None:
        runner = Runner()
    if experiment_ids is None:
        experiment_ids = sorted(EXPERIMENTS, key=lambda e: int(e[1:]))

    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {', '.join(unknown)}")

    if processes is not None \
            and MAIN_GRID_EXPERIMENTS.intersection(experiment_ids):
        prewarm_main_grid(runner, processes)

    sections = [_HEADER.format(length=runner.trace_length,
                               seed=runner.seed)]
    for experiment_id in experiment_ids:
        table = EXPERIMENTS[experiment_id](runner)
        sections.append(f"## {experiment_id}: {table.title}\n")
        sections.append("```text")
        sections.append(table.formatted())
        chart = _chart_for(table)
        if chart:
            sections.append("")
            sections.append(chart)
        sections.append("```\n")
    sections.append(f"_Total simulation points: {runner.runs_performed}_\n")
    sweep_counters = getattr(runner, "sweep_counters", None)
    if sweep_counters:
        from repro.stats.sweep import summary_line
        sections.append(f"_Sweep execution: {summary_line(sweep_counters)}_\n")
    appendix = _telemetry_appendix(runner)
    if appendix:
        sections.append(appendix)
    return "\n".join(sections)


def _telemetry_appendix(runner: Runner) -> str | None:
    """Suite-wide totals from the merged telemetry trees.

    Merges the per-run snapshots of the whole-suite baseline and FDIP
    grids (all runs are memoized at this point, so no new simulation
    happens) and reports machine-wide totals straight off the merged
    tree — a cross-check that the per-experiment tables and the
    hierarchical telemetry agree.
    """
    from repro.harness.techniques import technique_config
    from repro.stats.sweep import merge_snapshots
    from repro.workloads import ALL_WORKLOADS

    lines = ["## Appendix: merged telemetry\n"]
    rows = []
    for technique in ("none", "fdip_enqueue"):
        config = technique_config(technique)
        # Peeking (rather than run()) keeps subset reports from paying
        # for grid points their experiments never simulated.
        results = [runner.memoized(workload, config)
                   for workload in ALL_WORKLOADS]
        snapshots = [result.telemetry for result in results
                     if result is not None
                     and result.telemetry is not None]
        if not snapshots:
            return None
        merged = merge_snapshots(snapshots)
        flat = merged.flat_counters()
        cycles = int(merged.meta.get("cycles", 0))
        instructions = int(merged.meta.get("instructions", 0))
        rows.append([
            technique, cycles, instructions,
            flat.get("mem.demand_misses", 0),
            flat.get("mem.prefetches_issued", 0),
            flat.get("pbuf.useful_hits", 0),
        ])
    from repro.stats import format_table
    lines.append("```text")
    lines.append(format_table(
        ["technique", "cycles", "instructions", "demand misses",
         "prefetches", "useful"], rows,
        title=f"suite totals over {len(ALL_WORKLOADS)} workloads "
              f"(merged telemetry trees)"))
    lines.append("```\n")
    return "\n".join(lines)


def _chart_for(table) -> str | None:
    """An ASCII chart for experiments whose shape benefits from one."""
    from repro.analysis import bar_chart

    if table.experiment_id == "E3" and table.rows:
        # Chart the geomean rows (last two) across techniques.
        geomeans = [row for row in table.rows
                    if str(row[0]).startswith("geomean")]
        if not geomeans:
            return None
        parts = []
        for row in geomeans:
            parts.append(bar_chart(
                list(table.headers[1:]), [float(v) for v in row[1:]],
                width=30, title=str(row[0])))
        return "\n\n".join(parts)
    if table.experiment_id == "E6" and table.rows:
        labels = [str(row[0]) for row in table.rows]
        values = [float(row[1]) for row in table.rows]
        return bar_chart(labels, values, width=30,
                         title=f"speedup vs FTQ depth "
                               f"({table.headers[1]})")
    return None
