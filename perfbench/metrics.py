"""Metric definitions and the small statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions the
benchmark prints; ``BENCHMARK.json`` at the repository root must list
exactly the same (a test checks it).  Each per-layer metric names the
end-to-end metric it should move in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["END_TO_END", "PER_LAYER", "TAIL_PERCENTILES", "median",
           "percentile", "tail", "quartiles"]

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "sim_ips": ("instr/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ipc": ("ratio", "higher"),
    "success_rate": ("ratio", "higher"),
    "req_per_s": ("1/s", "higher"),
    "hit_p50_ms": ("ms", "lower"),
    "hit_tail_ms": ("ms", "lower"),
    "cold_p50_ms": ("ms", "lower"),
}

_LAYER_TIMES = ("sim.run_s", "sim.self_s", "sim.stall_proof.self_s",
                "frontend.fetch.self_s", "frontend.predict.self_s",
                "ftb.self_s", "bpred.self_s", "cpu.self_s",
                "prefetch.self_s", "memory.self_s", "stats.self_s",
                "cfg.generate_s", "trace.walk_s", "trace.write_s",
                "trace.read_s", "spec.resolve_s", "cachekey.self_s",
                "persist.read_s", "serialize.from_dict_s", "serve.submit_s",
                "results.collect_s", "persist.write_s",
                "serialize.to_dict_s")
_LAYER_CALLS = ("sim.stall_proof.calls", "frontend.fetch.calls",
                "frontend.predict.calls", "ftb.calls", "bpred.calls",
                "cpu.calls", "prefetch.calls", "memory.calls",
                "stats.bump.calls", "cachekey.calls")

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{name: ("s", "lower") for name in _LAYER_TIMES},
    **{name: ("count", "lower") for name in _LAYER_CALLS},
    "sim.jumped_ratio": ("ratio", "higher"),
    "memory.l1i_mpki": ("1/kinstr", "lower"),
    "memory.bus_util": ("ratio", "lower"),
    "prefetch.accuracy": ("ratio", "higher"),
    "prefetch.coverage": ("ratio", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.cache_hits": ("count", "higher"),
    "serve.simulations": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.jobs_retained": ("count", "lower"),
    "host.ref_ms": ("ms", "lower"),
    "host.sim_ips_raw": ("instr/s", "higher"),
    "host.req_per_s_raw": ("1/s", "higher"),
    "host.trace_overhead": ("ratio", "lower"),
}

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    """Median of a non-empty sequence (0.0 for an empty one)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond it)``; with fewer than
    twenty samples it falls back to the median.
    """
    count = len(values)
    for p in TAIL_PERCENTILES:
        beyond = count - max(1, math.ceil(p / 100.0 * count))
        if beyond >= 10:
            return percentile(values, p), p, beyond
    p = TAIL_PERCENTILES[-1]
    return percentile(values, p), p, count - math.ceil(p / 100.0 * count)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
