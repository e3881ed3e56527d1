"""Sweep-execution counters and the human-readable summary line.

The fault-tolerant sweep executor reports how a batch actually ran —
completed / retried / failed points, plus the failure-mode breakdown
(timeouts, worker crashes, pool rebuilds) and how many points were
resumed, i.e. served from the result store.  This module owns the
counter vocabulary and its rendering so the harness, report generator,
and CLI all agree.
"""

from __future__ import annotations

from repro.stats.counters import StatGroup
from repro.stats.telemetry import (
    IntervalSeries,
    TelemetrySnapshot,
    merge_nodes,
)

__all__ = ["COUNTER_NAMES", "merge_counters", "merge_snapshots",
           "sweep_stat_group", "summary_line"]

# Canonical counter vocabulary, in display order.  The last three come
# from in-run machine checkpointing (repro.sim.checkpoint): snapshots
# written, points resumed from a mid-run snapshot, and deadline
# extensions granted to slow-but-progressing workers ("stalls").
COUNTER_NAMES: tuple[str, ...] = (
    "points", "completed", "resumed", "retried", "failed",
    "timeouts", "crashes", "rebuilds",
    "snapshots", "ckpt_resumes", "stalls",
)


def merge_counters(*sources: dict[str, int]) -> dict[str, int]:
    """Sum counter dicts into one (missing names count as zero)."""
    merged: dict[str, int] = {}
    for source in sources:
        for name, value in source.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def merge_snapshots(snapshots: "list[TelemetrySnapshot]",
                    ) -> TelemetrySnapshot:
    """Aggregate telemetry snapshots of several runs into one.

    The report's merged-telemetry appendix sums the per-workload
    snapshots of a technique this way: counter trees add node-by-node
    (see :func:`repro.stats.telemetry.merge_nodes`),
    ``cycles``/``instructions`` metadata sums, and interval series
    concatenate in input order when every run used the same window
    (they are dropped otherwise — splicing differently-windowed series
    would fabricate data).
    """
    if not snapshots:
        raise ValueError("merge_snapshots needs at least one snapshot")
    root = merge_nodes([snap.root for snap in snapshots])
    meta: dict[str, object] = {
        "merged_from": [snap.meta.get("name") for snap in snapshots],
        "cycles": sum(int(snap.meta.get("cycles", 0))
                      for snap in snapshots),
        "instructions": sum(int(snap.meta.get("instructions", 0))
                            for snap in snapshots),
    }
    prefetchers = {snap.meta.get("prefetcher") for snap in snapshots}
    if len(prefetchers) == 1:
        meta["prefetcher"] = prefetchers.pop()
    intervals = None
    series = [snap.intervals for snap in snapshots
              if snap.intervals is not None]
    if series and len({s.window for s in series}) == 1:
        samples = tuple(sample for s in series for sample in s.samples)
        intervals = IntervalSeries(window=series[0].window,
                                   samples=samples)
    return TelemetrySnapshot(root=root, meta=meta, intervals=intervals)


def sweep_stat_group(counters: dict[str, int]) -> StatGroup:
    """The counters as a ``StatGroup('sweep')`` for stats merging."""
    group = StatGroup("sweep")
    for name in COUNTER_NAMES:
        group.set(name, counters.get(name, 0))
    return group


def summary_line(counters: dict[str, int]) -> str:
    """One-line completed/retried/failed report, e.g.::

        sweep: 10/12 points completed (2 resumed), 3 retried, 2 failed
        (1 timeout, 1 crash, 2 pool rebuilds)
    """
    completed = counters.get("completed", 0) + counters.get("resumed", 0)
    points = counters.get("points",
                          completed + counters.get("failed", 0))
    text = (f"sweep: {completed}/{points} points completed")
    if counters.get("resumed", 0):
        text += f" ({counters['resumed']} resumed)"
    text += (f", {counters.get('retried', 0)} retried, "
             f"{counters.get('failed', 0)} failed")
    breakdown = []
    if counters.get("timeouts", 0):
        breakdown.append(f"{counters['timeouts']} timeouts")
    if counters.get("crashes", 0):
        breakdown.append(f"{counters['crashes']} crashes")
    if counters.get("rebuilds", 0):
        breakdown.append(f"{counters['rebuilds']} pool rebuilds")
    if breakdown:
        text += f" ({', '.join(breakdown)})"
    checkpointing = []
    if counters.get("snapshots", 0):
        checkpointing.append(f"{counters['snapshots']} snapshots")
    if counters.get("ckpt_resumes", 0):
        checkpointing.append(
            f"{counters['ckpt_resumes']} checkpoint resumes")
    if counters.get("stalls", 0):
        checkpointing.append(f"{counters['stalls']} stalls tolerated")
    if checkpointing:
        text += f" [{', '.join(checkpointing)}]"
    return text
