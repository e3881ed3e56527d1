#!/usr/bin/env python3
"""Compare a base revision with the checkout over alternating perfbench pairs.

From the root of a checkout::

    python3 scripts/perf_pairs.py HEAD~1 --workload fdip_server
    python3 scripts/perf_pairs.py main --workload serve_mixed --pairs 4

``BASE_REV`` is exported with ``git archive`` into a temporary
directory.  Pair ``i`` runs ``perfbench/run.py --workload W --seed s
--seconds S --trace 0`` (``s = i + 1``, ``S`` the ``run_seconds`` of
``BENCHMARK.json``) once in that tree and once in the checkout, base
first on odd seeds and the checkout first on even ones, so a drift in
host speed lands on both sides equally.

The run fails (exit 1) when any perfbench run exits non-zero or when
the two runs of a pair print a different ``results sha256``: a change
that moves results has no speed to compare.  Otherwise it prints, for
each end-to-end metric ``BENCHMARK.json`` declares, each side's median
and quartiles (``statistics.quantiles``, exclusive method), the change
of the median in percent, in how many pairs the checkout was better in
the metric's declared direction, and a verdict:

- ``gain``: the checkout won at least nine tenths of the pairs (ties
  count for neither side) and its median is better than the base's by
  more than the base's q1-q3 spread;
- ``worse``: its median is worse than the base's by more than the
  metric's ``bound``, a fraction of the base median;
- ``unresolved``: the base's own q1-q3 spread, as a fraction of its
  median, exceeds that bound, so the runs cannot tell;
- ``held``: otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "results sha256 "


@dataclass(frozen=True)
class Run:
    """What one perfbench run printed."""

    digest: str
    metrics: dict[str, float]


@dataclass(frozen=True)
class Row:
    """One end-to-end metric summarized over all pairs."""

    name: str
    unit: str
    better: str
    base: tuple[float, float, float]      # (q1, median, q3)
    change: tuple[float, float, float]
    delta_pct: float | None               # median change; None from 0
    wins: int
    pairs: int
    verdict: str


def parse_run(stdout: str) -> Run:
    """The digest line and final JSON line of one perfbench run."""
    lines = stdout.strip().splitlines()
    digests = [line[len(DIGEST_PREFIX):].strip() for line in lines
               if line.startswith(DIGEST_PREFIX)]
    if len(digests) != 1:
        raise ValueError("perfbench output has no single results digest")
    document = json.loads(lines[-1])
    metrics = {name: float(entry["value"])
               for name, entry in document["metrics"].items()}
    return Run(digest=digests[0], metrics=metrics)


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(better: str, bound: float | None,
            base: tuple[float, float, float],
            change: tuple[float, float, float], wins: int,
            pairs: int) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``held`` (module docstring).

    A metric without a ``bound`` is never ``worse`` or ``unresolved``.
    """
    q1, base_median, q3 = base
    gain = change[1] - base_median
    if better != "higher":
        gain = -gain
    if wins * 10 >= 9 * pairs and gain > q3 - q1:
        return "gain"
    if bound is not None and base_median:
        if -gain / abs(base_median) > bound:
            return "worse"
        if (q3 - q1) / abs(base_median) > bound:
            return "unresolved"
    return "held"


def summarize(pairs: list[tuple[Run, Run]],
              metrics: list[dict]) -> list[Row]:
    """One row per metric over ``(base, change)`` run pairs."""
    rows = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        present = [(base.metrics[name], change.metrics[name])
                   for base, change in pairs
                   if name in base.metrics and name in change.metrics]
        if not present:
            continue
        base_values = [base for base, _ in present]
        change_values = [change for _, change in present]
        if better == "higher":
            wins = sum(change > base for base, change in present)
        else:
            wins = sum(change < base for base, change in present)
        base_spread = _spread(base_values)
        change_spread = _spread(change_values)
        delta = (100.0 * (change_spread[1] - base_spread[1])
                 / base_spread[1] if base_spread[1] else None)
        rows.append(Row(name=name, unit=metric.get("unit", ""),
                        better=better, base=base_spread,
                        change=change_spread, delta_pct=delta, wins=wins,
                        pairs=len(present),
                        verdict=verdict(better, metric.get("bound"),
                                        base_spread, change_spread, wins,
                                        len(present))))
    return rows


def format_summary(rows: list[Row]) -> str:
    """The rows as an aligned table, medians with quartiles."""
    def cell(spread: tuple[float, float, float]) -> str:
        q1, median, q3 = spread
        return f"{median:.6g} ({q1:.6g}-{q3:.6g})"

    table = [("metric", "better", "base median (q1-q3)",
              "change median (q1-q3)", "change", "won", "verdict")]
    for row in rows:
        delta = "n/a" if row.delta_pct is None else f"{row.delta_pct:+.1f}%"
        table.append((f"{row.name} [{row.unit}]", row.better,
                      cell(row.base), cell(row.change), delta,
                      f"{row.wins}/{row.pairs}", row.verdict))
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    return "\n".join("  ".join(text.ljust(width)
                               for text, width in zip(line, widths))
                     .rstrip() for line in table)


def export_tree(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into`` (``git archive``)."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: int) -> tuple[int, str]:
    """One ``--trace 0`` perfbench run in ``tree``: (exit, stdout)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return done.returncode, done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    pairs: list[tuple[Run, Run]] = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        base_tree = Path(scratch) / "base"
        base_tree.mkdir()
        export_tree(args.base_rev, base_tree)
        for seed in range(1, args.pairs + 1):
            order = [("base", base_tree), ("change", ROOT)]
            if seed % 2 == 0:
                order.reverse()
            runs = {}
            for side, tree in order:
                code, stdout = run_perfbench(tree, args.workload, seed,
                                             seconds)
                if code != 0:
                    print(f"FAIL seed {seed}: {side} run exited {code}")
                    return 1
                runs[side] = parse_run(stdout)
            base, change = runs["base"], runs["change"]
            if base.digest != change.digest:
                print(f"FAIL seed {seed}: results sha256 differ (base "
                      f"{base.digest[:16]}, change {change.digest[:16]})")
                return 1
            pairs.append((base, change))
            print(f"pair {seed}: results sha256 {base.digest[:16]}",
                  flush=True)

    print(f"{args.workload}: {args.base_rev} vs checkout, "
          f"{len(pairs)} pairs, --seconds {seconds}")
    print(format_summary(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
