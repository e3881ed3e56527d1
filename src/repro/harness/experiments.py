"""The reconstructed evaluation: experiments E1..E22.

Each experiment regenerates one table/figure of the MICRO-1999 paper's
evaluation structure (see DESIGN.md for the mapping and the mismatch
notice).  An experiment is a function taking a :class:`Runner` and
returning an :class:`ExperimentTable` — plain headers/rows that the
benchmark harness prints and EXPERIMENTS.md records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.config import CacheGeometry, SimConfig
from repro.harness.runner import Runner, geomean
from repro.harness.techniques import TECHNIQUE_ORDER, technique_config
from repro.stats import format_table
from repro.trace import characterize
from repro.workloads import (
    ALL_WORKLOADS,
    CLIENT_WORKLOADS,
    SERVER_WORKLOADS,
    get_profile,
)

__all__ = ["ExperimentTable", "EXPERIMENTS", "run_experiment",
           "MAIN_GRID_EXPERIMENTS", "main_grid_points",
           "prewarm_main_grid"]

# Subsets used by parameter sweeps to keep run counts manageable.
SERVER_SUBSET = ("perl_like", "vortex_like")
MIXED_SUBSET = ("m88ksim_like", "go_like", "perl_like", "vortex_like")

_PREFETCH_TECHNIQUES = tuple(t for t in TECHNIQUE_ORDER if t != "none")


@dataclass
class ExperimentTable:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def formatted(self, precision: int = 3) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"{self.experiment_id}: {self.title}",
                            precision=precision)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


# ----------------------------------------------------------------------
# E1 / E2: configuration and workload characterization tables
# ----------------------------------------------------------------------

def experiment_e1(runner: Runner) -> ExperimentTable:
    """The simulated machine configuration (paper's config table)."""
    config = SimConfig()
    memory = config.memory
    rows = [
        ["fetch width", f"{config.core.fetch_width} instrs/cycle"],
        ["issue width", f"{config.core.issue_width} instrs/cycle"],
        ["instruction window", f"{config.core.window_size} entries"],
        ["branch resolve latency",
         f"{config.core.pipeline_depth}+"
         f"{config.core.branch_resolve_latency} cycles after fetch"],
        ["direction predictor",
         "hybrid (bimodal 4K + gshare 4K/12-bit history + meta 4K)"],
        ["FTB", f"{config.frontend.predictor.ftb_sets} sets x "
                f"{config.frontend.predictor.ftb_ways} ways"],
        ["return address stack",
         f"{config.frontend.predictor.ras_depth} entries"],
        ["FTQ", f"{config.frontend.ftq_depth} fetch blocks"],
        ["max fetch block", f"{config.frontend.max_fetch_block} instrs"],
        ["L1-I", f"{memory.icache.size_bytes // 1024}KB, "
                 f"{memory.icache.assoc}-way, "
                 f"{memory.icache.block_bytes}B blocks, "
                 f"{memory.icache_tag_ports} tag ports"],
        ["L2 (unified)", f"{memory.l2.size_bytes // 1024}KB, "
                         f"{memory.l2.assoc}-way, "
                         f"{memory.l2_hit_latency}-cycle hit"],
        ["memory latency", f"{memory.memory_latency} cycles"],
        ["L2 bus", f"1 block / {memory.bus_transfer_cycles} cycles, "
                   f"demand priority"],
        ["MSHRs", f"{memory.mshr_entries}"],
        ["prefetch buffer",
         f"{config.prefetch.buffer_entries} blocks, fully associative"],
        ["PIQ", f"{config.prefetch.piq_depth} entries"],
    ]
    return ExperimentTable(
        "E1", "Simulated machine configuration",
        ["parameter", "value"], rows,
        notes="defaults of SimConfig(); sweeps vary one axis at a time")


def experiment_e2(runner: Runner) -> ExperimentTable:
    """Workload characterization (paper's benchmark table)."""
    base = technique_config("none")
    rows = []
    for name in ALL_WORKLOADS:
        profile = get_profile(name)
        trace = runner.trace(name)
        stats = characterize(trace)
        result = runner.run(name, base)
        rows.append([
            name,
            profile.category,
            stats.footprint_kb,
            stats.distinct_blocks * stats.block_bytes / 1024.0,
            stats.control_fraction,
            stats.taken_fraction,
            result.ipc,
            result.l1i_mpki,
            result.bpred_accuracy,
        ])
    return ExperimentTable(
        "E2", "Workload characterization (no-prefetch baseline)",
        ["workload", "category", "footprint KB", "dyn block KB",
         "ctrl frac", "taken frac", "base IPC", "L1-I MPKI", "bpred acc"],
        rows,
        notes="server workloads sweep working sets larger than the "
              "16KB L1-I; clients mostly fit")


# ----------------------------------------------------------------------
# E3 / E4 / E5: the main comparison
# ----------------------------------------------------------------------

def _main_comparison_rows(
        runner: Runner,
        cell: Callable[[str, str], object]) -> list[list[object]]:
    rows = []
    for name in ALL_WORKLOADS:
        rows.append([name] + [cell(name, t) for t in _PREFETCH_TECHNIQUES])
    return rows


def experiment_e3(runner: Runner) -> ExperimentTable:
    """Main result: IPC speedup over no-prefetch, per technique."""
    base = technique_config("none")

    def cell(workload: str, technique: str) -> float:
        return runner.speedup(workload, technique_config(technique), base)

    rows = _main_comparison_rows(runner, cell)
    for label, group in (("geomean-client", CLIENT_WORKLOADS),
                         ("geomean-server", SERVER_WORKLOADS)):
        rows.append([label] + [
            geomean([runner.speedup(w, technique_config(t), base)
                     for w in group])
            for t in _PREFETCH_TECHNIQUES])
    return ExperimentTable(
        "E3", "IPC speedup over no-prefetch baseline",
        ["workload", *_PREFETCH_TECHNIQUES], rows,
        notes="expected shape: fdip_* > stream > nlp on server "
              "workloads; ideal >= remove >= enqueue >= nofilter")


def experiment_e4(runner: Runner) -> ExperimentTable:
    """L2 bus utilization per technique (filtering saves bandwidth)."""
    def cell(workload: str, technique: str) -> float:
        return runner.run(workload,
                          technique_config(technique)).bus_utilization

    rows = _main_comparison_rows(runner, cell)
    base = technique_config("none")
    rows.append(["(no-prefetch)"] + [
        geomean([max(runner.run(w, base).bus_utilization, 1e-9)
                 for w in ALL_WORKLOADS])] * len(_PREFETCH_TECHNIQUES))
    return ExperimentTable(
        "E4", "L2 bus utilization by technique",
        ["workload", *_PREFETCH_TECHNIQUES], rows,
        notes="expected shape: fdip_nofilter spends the most bandwidth; "
              "each filtering level cuts it; ideal approaches the "
              "baseline plus useful prefetches only")


def experiment_e5(runner: Runner) -> ExperimentTable:
    """Prefetch accuracy, coverage, and lateness per technique."""
    rows = []
    for name in ALL_WORKLOADS:
        for technique in _PREFETCH_TECHNIQUES:
            result = runner.run(name, technique_config(technique))
            rows.append([
                name, technique,
                result.prefetches_issued,
                result.prefetches_useful,
                result.prefetches_late,
                result.prefetch_accuracy,
                result.prefetch_coverage,
            ])
    return ExperimentTable(
        "E5", "Prefetch accuracy and coverage",
        ["workload", "technique", "issued", "useful", "late",
         "accuracy", "coverage"], rows,
        notes="filtering raises accuracy (fewer redundant prefetches) "
              "without sacrificing coverage")


# ----------------------------------------------------------------------
# E6 / E7 / E8 / E9: sensitivity sweeps
# ----------------------------------------------------------------------

def experiment_e6(runner: Runner) -> ExperimentTable:
    """Speedup vs FTQ depth (run-ahead distance)."""
    rows = []
    for depth in (1, 2, 4, 8, 16, 32):
        row: list[object] = [depth]
        for name in SERVER_SUBSET:
            base = technique_config("none")
            base = base.replace(frontend=dataclasses.replace(
                base.frontend, ftq_depth=depth))
            fdip = technique_config("fdip_enqueue", base)
            row.append(runner.speedup(name, fdip, base))
        rows.append(row)
    return ExperimentTable(
        "E6", "FDIP speedup vs FTQ depth",
        ["ftq_depth", *SERVER_SUBSET], rows,
        notes="a 1-entry FTQ cannot run ahead (no prefetch candidates); "
              "speedup grows with depth and saturates")


def experiment_e7(runner: Runner) -> ExperimentTable:
    """Speedup vs prefetch buffer size, and direct-to-L1 fills."""
    base = technique_config("none")
    rows = []
    for entries in (8, 16, 32, 64):
        row: list[object] = [f"{entries} entries"]
        for name in SERVER_SUBSET:
            fdip = technique_config("fdip_enqueue")
            fdip = fdip.replace(prefetch=dataclasses.replace(
                fdip.prefetch, buffer_entries=entries))
            row.append(runner.speedup(name, fdip, base))
        rows.append(row)
    direct = technique_config("fdip_enqueue")
    direct = direct.replace(prefetch=dataclasses.replace(
        direct.prefetch, fill_l1_directly=True))
    rows.append(["direct-to-L1 (no buffer)"] + [
        runner.speedup(name, direct, base) for name in SERVER_SUBSET])
    return ExperimentTable(
        "E7", "FDIP speedup vs prefetch buffer size",
        ["buffer", *SERVER_SUBSET], rows,
        notes="too small a buffer drops prefetches before use; returns "
              "diminish past the paper's 32 entries; the direct-to-L1 "
              "row shows what the buffer's pollution-avoidance is worth")


def experiment_e8(runner: Runner) -> ExperimentTable:
    """Speedup vs memory latency (prefetching matters more when "
    "memory is slower)."""
    base_none = technique_config("none")
    rows = []
    for scale, l2_hit, mem_lat in ((0.5, 6, 35), (1.0, 12, 70),
                                   (2.0, 24, 140), (4.0, 48, 280)):
        row: list[object] = [f"{scale:g}x"]
        for name in SERVER_SUBSET:
            def with_latency(config: SimConfig) -> SimConfig:
                memory = dataclasses.replace(
                    config.memory, l2_hit_latency=l2_hit,
                    memory_latency=mem_lat)
                return config.replace(memory=memory)
            row.append(runner.speedup(name,
                                      with_latency(
                                          technique_config("fdip_enqueue")),
                                      with_latency(base_none)))
        rows.append(row)
    return ExperimentTable(
        "E8", "FDIP speedup vs L2/memory latency",
        ["latency", *SERVER_SUBSET], rows,
        notes="expected shape: monotonically increasing benefit with "
              "latency (each covered miss saves more cycles)")


def experiment_e9(runner: Runner) -> ExperimentTable:
    """16KB vs 32KB L1-I: bigger caches shrink the opportunity."""
    rows = []
    for name in MIXED_SUBSET:
        row: list[object] = [name]
        for kb in (16, 32):
            geometry = CacheGeometry(size_bytes=kb * 1024, assoc=2)

            def with_cache(config: SimConfig) -> SimConfig:
                memory = dataclasses.replace(config.memory, icache=geometry)
                return config.replace(memory=memory)

            base = with_cache(technique_config("none"))
            fdip = with_cache(technique_config("fdip_enqueue"))
            row.append(runner.speedup(name, fdip, base))
            row.append(runner.run(name, base).l1i_mpki)
        rows.append(row)
    return ExperimentTable(
        "E9", "FDIP speedup at 16KB vs 32KB L1-I",
        ["workload", "speedup@16KB", "mpki@16KB",
         "speedup@32KB", "mpki@32KB"], rows,
        notes="expected shape: the 32KB cache absorbs more of the "
              "working set, reducing both MPKI and FDIP's gain")


# ----------------------------------------------------------------------
# E10 / E11: equal-storage and filtering ablations
# ----------------------------------------------------------------------

def experiment_e10(runner: Runner) -> ExperimentTable:
    """FDIP vs stream buffers at matched prefetch storage."""
    base = technique_config("none")
    rows = []
    for blocks in (8, 16, 32, 64):
        fdip = technique_config("fdip_enqueue")
        fdip = fdip.replace(prefetch=dataclasses.replace(
            fdip.prefetch, buffer_entries=blocks))
        stream = technique_config("stream")
        stream = stream.replace(prefetch=dataclasses.replace(
            stream.prefetch, stream_buffers=max(1, blocks // 4),
            stream_depth=4))
        fdip_gain = geomean([runner.speedup(w, fdip, base)
                             for w in MIXED_SUBSET])
        stream_gain = geomean([runner.speedup(w, stream, base)
                               for w in MIXED_SUBSET])
        rows.append([f"{blocks} blocks", fdip_gain, stream_gain,
                     fdip_gain / stream_gain])
    return ExperimentTable(
        "E10", "Equal-storage comparison: FDIP vs stream buffers",
        ["storage", "fdip geomean speedup", "stream geomean speedup",
         "fdip/stream"], rows,
        notes="expected shape: FDIP wins at every storage point because "
              "it follows predicted control flow, not straight lines")


def experiment_e11(runner: Runner) -> ExperimentTable:
    """Ablations: tag ports available to CPF, and wrong-path modeling."""
    workload = SERVER_SUBSET[0]
    base = technique_config("none")
    rows = []
    for ports in (1, 2, 4):
        for mode in ("enqueue", "remove"):
            config = technique_config(f"fdip_{mode}")
            config = config.replace(memory=dataclasses.replace(
                config.memory, icache_tag_ports=ports))
            result = runner.run(workload, config)
            filtered = (result.get("fdip.filtered_enqueue")
                        + result.get("fdip.filtered_remove"))
            rows.append([f"{ports} ports / {mode}",
                         result.speedup_over(runner.run(workload, base)),
                         result.bus_utilization, filtered])
    for wrong_path in (True, False):
        config = technique_config("fdip_enqueue")
        config = config.replace(frontend=dataclasses.replace(
            config.frontend, model_wrong_path=wrong_path))
        matched_base = base.replace(frontend=dataclasses.replace(
            base.frontend, model_wrong_path=wrong_path))
        result = runner.run(workload, config)
        label = "wrong-path on" if wrong_path else "wrong-path off"
        rows.append([label,
                     result.speedup_over(runner.run(workload,
                                                    matched_base)),
                     result.bus_utilization,
                     result.get("fdip.issued_wrong_path")])
    return ExperimentTable(
        "E11", f"Cache-probe-filter port and wrong-path ablations "
               f"({workload})",
        ["configuration", "speedup", "bus util", "filtered/wrong-path"],
        rows,
        notes="more idle tag ports filter more; wrong-path rows use a "
              "baseline with the same wrong-path setting — stall mode "
              "(off) loses both wrong-path warming and the prefetching "
              "that would otherwise continue through mispredict shadows")


# ----------------------------------------------------------------------
# E12: front-end characterization
# ----------------------------------------------------------------------

def experiment_e12(runner: Runner) -> ExperimentTable:
    """FTQ occupancy and fetch-block size distributions."""
    config = technique_config("fdip_enqueue")
    rows = []
    for name in ALL_WORKLOADS:
        result = runner.run(name, config)
        occupancy = result.ftq_occupancy_hist
        total = sum(occupancy.values()) or 1
        empty = occupancy.get(0, 0) / total
        blocks = result.fetch_block_hist
        block_total = sum(blocks.values()) or 1
        mean_block = sum(k * v for k, v in blocks.items()) / block_total
        rows.append([
            name,
            result.ftq_mean_occupancy,
            empty,
            sum(v for k, v in blocks.items() if k <= 2) / block_total,
            sum(v for k, v in blocks.items() if 3 <= k <= 8) / block_total,
            sum(v for k, v in blocks.items() if k > 8) / block_total,
            mean_block,
        ])
    return ExperimentTable(
        "E12", "Front-end characterization under FDIP",
        ["workload", "mean FTQ occ", "FTQ empty frac",
         "blocks<=2", "blocks 3-8", "blocks>8", "mean block instrs"],
        rows,
        notes="non-empty FTQ occupancy is what gives the prefetch "
              "engine its lookahead")


def experiment_e13(runner: Runner) -> ExperimentTable:
    """Idealized front-end limit study.

    How much of the remaining stall time is the *predictor's* fault
    (perfect conditional direction) versus the *filter's* fault (ideal
    cache probe filtering)?  The paper frames FDIP's headroom the same
    way: better prediction extends useful run-ahead, better filtering
    frees bus bandwidth.
    """
    base = technique_config("none")
    variants: list[tuple[str, SimConfig]] = []
    realistic = technique_config("fdip_enqueue")
    variants.append(("fdip (realistic)", realistic))
    perfect = realistic.replace(frontend=dataclasses.replace(
        realistic.frontend, perfect_direction=True))
    variants.append(("+ perfect direction", perfect))
    ideal_filter = technique_config("fdip_ideal")
    variants.append(("+ ideal filtering", ideal_filter))
    both = ideal_filter.replace(frontend=dataclasses.replace(
        ideal_filter.frontend, perfect_direction=True))
    variants.append(("+ both", both))

    rows = []
    for label, config in variants:
        row: list[object] = [label]
        for name in SERVER_SUBSET:
            result = runner.run(name, config)
            row.append(result.speedup_over(runner.run(name, base)))
            row.append(result.mispredicts_per_ki)
        rows.append(row)
    headers = ["configuration"]
    for name in SERVER_SUBSET:
        headers.extend([f"{name} speedup", f"{name} mpred/ki"])
    return ExperimentTable(
        "E13", "Idealized front-end limit study",
        headers, rows,
        notes="perfect direction removes conditional mispredicts only "
              "(FTB misses and indirect/return mispredicts remain); "
              "ideal filtering removes redundant prefetch traffic")


def experiment_e14(runner: Runner) -> ExperimentTable:
    """Fetch-cycle accounting: where the cycles go, per technique."""
    from repro.analysis import stall_breakdown

    rows = []
    for name in SERVER_SUBSET:
        for technique in ("none", "nlp", "stream", "fdip_enqueue"):
            result = runner.run(name, technique_config(technique))
            breakdown = stall_breakdown(result)
            rows.append(breakdown.as_row())
    from repro.analysis import StallBreakdown
    return ExperimentTable(
        "E14", "Fetch-cycle breakdown by technique",
        StallBreakdown.headers(), rows,
        notes="prefetching converts icache-miss stall cycles into "
              "active or window-bound cycles; the residual ftq-empty "
              "share is mispredict recovery")


def experiment_e15(runner: Runner) -> ExperimentTable:
    """Direction predictor ablation under FDIP."""
    rows = []
    base_none = technique_config("none")
    for direction in ("always_taken", "bimodal", "gshare", "local",
                      "hybrid"):
        row: list[object] = [direction]
        for name in SERVER_SUBSET:
            def with_predictor(config: SimConfig) -> SimConfig:
                predictor = dataclasses.replace(
                    config.frontend.predictor, direction=direction)
                frontend = dataclasses.replace(config.frontend,
                                               predictor=predictor)
                return config.replace(frontend=frontend)
            fdip = with_predictor(technique_config("fdip_enqueue"))
            result = runner.run(name, fdip)
            row.append(result.speedup_over(
                runner.run(name, with_predictor(base_none))))
            row.append(result.mispredicts_per_ki)
        rows.append(row)
    headers = ["predictor"]
    for name in SERVER_SUBSET:
        headers.extend([f"{name} speedup", f"{name} mpred/ki"])
    return ExperimentTable(
        "E15", "Direction predictor ablation (FDIP vs matched baseline)",
        headers, rows,
        notes="better direction prediction lengthens useful run-ahead; "
              "FDIP speedup and absolute IPC both grow with predictor "
              "quality")


def experiment_e16(runner: Runner) -> ExperimentTable:
    """FTB size sweep: FDIP's reach tracks the branch working set.

    The decoupled front end can only run ahead through branches the FTB
    captures; evicted fetch blocks turn into FTB-miss mispredictions
    that squash the run-ahead (the observation that later motivated the
    FDIP-X line of work on BTB compression).
    """
    rows = []
    for sets in (16, 64, 256, 1024, 4096):
        row: list[object] = [f"{sets}x4 ({sets * 4} entries)"]
        for name in SERVER_SUBSET:
            def with_ftb(config: SimConfig) -> SimConfig:
                predictor = dataclasses.replace(
                    config.frontend.predictor, ftb_sets=sets)
                frontend = dataclasses.replace(config.frontend,
                                               predictor=predictor)
                return config.replace(frontend=frontend)
            fdip = with_ftb(technique_config("fdip_enqueue"))
            base = with_ftb(technique_config("none"))
            result = runner.run(name, fdip)
            row.append(result.speedup_over(runner.run(name, base)))
            row.append(result.get("predict.mispredict_ftb_miss")
                       / max(1, result.instructions) * 1000)
        rows.append(row)
    headers = ["FTB geometry"]
    for name in SERVER_SUBSET:
        headers.extend([f"{name} speedup", f"{name} ftbmiss/ki"])
    return ExperimentTable(
        "E16", "FDIP speedup vs FTB capacity",
        headers, rows,
        notes="small FTBs cannot hold the server branch working set; "
              "FTB-miss mispredictions cap run-ahead and thus prefetch "
              "coverage")


def experiment_e17(runner: Runner) -> ExperimentTable:
    """Combined FDIP + next-line prefetching vs its components."""
    base = technique_config("none")
    rows = []
    for name in ALL_WORKLOADS:
        row: list[object] = [name]
        for technique in ("nlp", "fdip_enqueue", "fdip_nlp"):
            row.append(runner.speedup(name, technique_config(technique),
                                      base))
        rows.append(row)
    rows.append(["geomean"] + [
        geomean([runner.speedup(w, technique_config(t), base)
                 for w in ALL_WORKLOADS])
        for t in ("nlp", "fdip_enqueue", "fdip_nlp")])
    return ExperimentTable(
        "E17", "Combined FDIP+NLP vs its components",
        ["workload", "nlp", "fdip_enqueue", "fdip_nlp"], rows,
        notes="next-line catches the straight-line misses FDIP drops "
              "right after squashes; the combination is never worse "
              "than FDIP alone")


def experiment_e18(runner: Runner) -> ExperimentTable:
    """Two-level FTB (scalable front end) vs monolithic FTBs.

    The companion ISCA-1999 front-end architecture backs a small
    single-cycle L1 FTB with a large, slower L2 FTB.  The question the
    paper's front end answers: how much of a big FTB's benefit survives
    when only a small structure fits in the single-cycle path?
    """
    def with_ftb(config: SimConfig, sets: int, l2_sets: int = 0,
                 l2_latency: int = 3) -> SimConfig:
        predictor = dataclasses.replace(
            config.frontend.predictor, ftb_sets=sets, ftb_ways=4,
            ftb_l2_sets=l2_sets, ftb_l2_latency=l2_latency)
        return config.replace(frontend=dataclasses.replace(
            config.frontend, predictor=predictor))

    variants = [
        ("small monolithic (256e)", dict(sets=64)),
        ("two-level 256e + 4Ke lat3", dict(sets=64, l2_sets=512)),
        ("two-level 256e + 4Ke lat6", dict(sets=64, l2_sets=512,
                                           l2_latency=6)),
        ("big monolithic (4Ke)", dict(sets=1024)),
    ]
    rows = []
    for label, kwargs in variants:
        row: list[object] = [label]
        for name in SERVER_SUBSET:
            fdip = with_ftb(technique_config("fdip_enqueue"), **kwargs)
            base = with_ftb(technique_config("none"), **kwargs)
            row.append(runner.speedup(name, fdip, base))
        rows.append(row)
    return ExperimentTable(
        "E18", "Two-level FTB vs monolithic FTBs (FDIP speedup)",
        ["FTB organization", *SERVER_SUBSET], rows,
        notes="a small L1 FTB backed by a large L2 FTB recovers most of "
              "the big single-cycle FTB's benefit; higher L2 latency "
              "erodes it")


def experiment_e19(runner: Runner) -> ExperimentTable:
    """Secondary sensitivity sweeps (one axis at a time).

    The smaller design-space axes the paper's configuration fixes:
    L1-I associativity and block size, PIQ depth, MSHR count, and bus
    speed.  Each row perturbs exactly one axis from the default machine
    and reports FDIP speedup over a matched no-prefetch baseline on the
    first server workload.
    """
    workload = SERVER_SUBSET[0]

    def sweep(label: str, transform) -> list[object]:
        fdip = transform(technique_config("fdip_enqueue"))
        base = transform(technique_config("none"))
        result = runner.run(workload, fdip)
        return [label, result.speedup_over(runner.run(workload, base)),
                result.l1i_mpki, result.bus_utilization]

    def with_assoc(assoc: int):
        def transform(config: SimConfig) -> SimConfig:
            icache = dataclasses.replace(config.memory.icache, assoc=assoc)
            return config.replace(memory=dataclasses.replace(
                config.memory, icache=icache))
        return transform

    def with_block(block: int):
        def transform(config: SimConfig) -> SimConfig:
            icache = dataclasses.replace(config.memory.icache,
                                         block_bytes=block)
            l2 = dataclasses.replace(config.memory.l2, block_bytes=block)
            return config.replace(memory=dataclasses.replace(
                config.memory, icache=icache, l2=l2))
        return transform

    def with_piq(depth: int):
        def transform(config: SimConfig) -> SimConfig:
            return config.replace(prefetch=dataclasses.replace(
                config.prefetch, piq_depth=depth))
        return transform

    def with_mshrs(count: int):
        def transform(config: SimConfig) -> SimConfig:
            return config.replace(memory=dataclasses.replace(
                config.memory, mshr_entries=count))
        return transform

    def with_bus(cycles: int):
        def transform(config: SimConfig) -> SimConfig:
            return config.replace(memory=dataclasses.replace(
                config.memory, bus_transfer_cycles=cycles))
        return transform

    rows = [sweep("default (2-way/32B/piq32/mshr16/bus4)", lambda c: c)]
    for assoc in (1, 4):
        rows.append(sweep(f"L1-I {assoc}-way", with_assoc(assoc)))
    for block in (16, 64):
        rows.append(sweep(f"{block}B blocks", with_block(block)))
    for depth in (4, 128):
        rows.append(sweep(f"PIQ depth {depth}", with_piq(depth)))
    for count in (4, 64):
        rows.append(sweep(f"{count} MSHRs", with_mshrs(count)))
    for cycles in (2, 8):
        rows.append(sweep(f"bus {cycles} cyc/block", with_bus(cycles)))
    return ExperimentTable(
        "E19", f"Secondary sensitivity sweeps ({workload})",
        ["axis", "fdip speedup", "fdip mpki", "fdip bus util"], rows,
        notes="each row perturbs one machine axis; FDIP's benefit is "
              "robust across most of them — MSHR capacity (outstanding "
              "fills) is the strongest secondary lever, since FDIP "
              "needs many prefetches in flight")


def experiment_e20(runner: Runner) -> ExperimentTable:
    """Seed sensitivity: are the conclusions robust to workload seeds?

    Synthetic-workload methodology check: the headline FDIP speedup is
    re-measured with three different trace seeds per workload.  The
    spread must be small relative to the effect for any ordering claim
    in E3 to be meaningful.
    """
    import statistics

    seeds = (runner.seed, runner.seed + 100, runner.seed + 200)
    rows = []
    for name in MIXED_SUBSET:
        speedups = []
        for seed in seeds:
            sub = runner if seed == runner.seed else runner.with_seed(seed)
            speedups.append(sub.speedup(
                name, technique_config("fdip_enqueue"),
                technique_config("none")))
        mean = statistics.fmean(speedups)
        spread = max(speedups) - min(speedups)
        rows.append([name, mean, min(speedups), max(speedups),
                     spread / mean])
    return ExperimentTable(
        "E20", f"FDIP speedup across trace seeds {list(seeds)}",
        ["workload", "mean speedup", "min", "max", "rel spread"], rows,
        notes="the relative spread stays well below the FDIP-vs-baseline "
              "effect size, so the orderings reported in E3 are "
              "seed-robust")


def experiment_e21(runner: Runner) -> ExperimentTable:
    """FDIP lookahead window tuning.

    How far behind the fetch point should the prefetch engine scan?
    Blocks at position 1 are fetched almost immediately (prefetching
    them saves little); blocks very deep in the FTQ are more likely to
    be squashed.  The paper's design scans everything behind the head.
    """
    base = technique_config("none")
    rows = []
    variants = [
        ("positions 1..2", 1, 2),
        ("positions 1..4", 1, 4),
        ("positions 1..8", 1, 8),
        ("positions 1..16", 1, 16),
        ("positions 1..tail (paper)", 1, None),
        ("positions 2..tail", 2, None),
        ("positions 4..tail", 4, None),
    ]
    for label, lo, hi in variants:
        row: list[object] = [label]
        for name in SERVER_SUBSET:
            fdip = technique_config("fdip_enqueue")
            fdip = fdip.replace(prefetch=dataclasses.replace(
                fdip.prefetch, min_lookahead=lo, max_lookahead=hi))
            result = runner.run(name, fdip)
            row.append(result.speedup_over(runner.run(name, base)))
            row.append(result.prefetch_accuracy)
        rows.append(row)
    headers = ["scan window"]
    for name in SERVER_SUBSET:
        headers.extend([f"{name} speedup", f"{name} accuracy"])
    return ExperimentTable(
        "E21", "FDIP lookahead window tuning",
        headers, rows,
        notes="a shallow window sacrifices timeliness; skipping the "
              "first positions sacrifices a little coverage for "
              "slightly better accuracy — scanning everything behind "
              "the head (the paper's choice) is near-optimal")


def experiment_e22(runner: Runner) -> ExperimentTable:
    """Fetch bandwidth sensitivity: accesses/cycle and fetch width.

    FDIP removes miss stalls; what is left is raw fetch bandwidth.  A
    banked cache fetching across block/fetch-block boundaries (2
    accesses per cycle) and a wider fetch both raise the ceiling —
    and prefetching matters *more* when fetch is faster, because miss
    stalls then dominate a larger share of the remaining time.
    """
    rows = []
    for accesses, width in ((1, 8), (2, 8), (1, 16), (2, 16)):
        row: list[object] = [f"{accesses} access x {width}-wide"]
        for name in SERVER_SUBSET:
            def with_fetch(config: SimConfig) -> SimConfig:
                core = dataclasses.replace(
                    config.core, fetch_width=width,
                    fetch_accesses_per_cycle=accesses,
                    issue_width=max(config.core.issue_width, width))
                return config.replace(core=core)
            fdip = with_fetch(technique_config("fdip_enqueue"))
            base = with_fetch(technique_config("none"))
            result = runner.run(name, fdip)
            row.append(result.speedup_over(runner.run(name, base)))
            row.append(result.ipc)
        rows.append(row)
    headers = ["fetch organization"]
    for name in SERVER_SUBSET:
        headers.extend([f"{name} speedup", f"{name} fdip IPC"])
    return ExperimentTable(
        "E22", "Fetch bandwidth sensitivity",
        headers, rows,
        notes="wider/banked fetch raises FDIP's absolute IPC and its "
              "relative benefit: once bandwidth stops being the "
              "bottleneck, covering misses is all that is left")


#: The experiments that read the main grid: each runs the whole
#: suite under grid techniques, so only they gain from prewarming it.
MAIN_GRID_EXPERIMENTS = frozenset({"E2", "E3", "E4", "E5", "E12", "E17"})


def main_grid_points() -> "list[Point]":
    """Every (workload, technique) point of the main comparison.

    This is the grid the :data:`MAIN_GRID_EXPERIMENTS` share;
    prewarming it covers the bulk of a default report's simulation
    time.  Each point is labeled ``workload/technique`` for reports.
    """
    from repro.spec import Point

    return [Point(workload, technique_config(technique),
                  label=f"{workload}/{technique}")
            for workload in ALL_WORKLOADS
            for technique in TECHNIQUE_ORDER]


def prewarm_main_grid(runner: Runner, processes: int | None = None,
                      **sweep_kwargs):
    """Populate ``runner``'s memo for the main grid via a supervised sweep.

    Runs the (workload, technique) grid fault-tolerantly in parallel;
    results land in the runner's in-memory memo (and persistent store,
    when configured, which also serves the points it already holds), so
    the serial experiment functions replay them for free.  Points that
    fail after retries degrade gracefully: the
    experiment that needs them simply re-simulates inline.  Returns the
    :class:`~repro.harness.parallel.SweepOutcome`.
    """
    return runner.sweep(main_grid_points(), processes, **sweep_kwargs)


EXPERIMENTS: dict[str, Callable[[Runner], ExperimentTable]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "E13": experiment_e13,
    "E14": experiment_e14,
    "E15": experiment_e15,
    "E16": experiment_e16,
    "E17": experiment_e17,
    "E18": experiment_e18,
    "E19": experiment_e19,
    "E20": experiment_e20,
    "E21": experiment_e21,
    "E22": experiment_e22,
}


def run_experiment(experiment_id: str,
                   runner: Runner | None = None) -> ExperimentTable:
    """Run one experiment by id (creating a default Runner if needed)."""
    if runner is None:
        runner = Runner()
    return EXPERIMENTS[experiment_id](runner)
