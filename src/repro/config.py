"""Configuration dataclasses for the FDIP simulator.

All configuration is expressed as frozen dataclasses so that a configuration
can be hashed, compared, and safely shared between experiment sweeps.  Each
dataclass validates itself on construction; invalid values raise
:class:`~repro.errors.ConfigError` immediately rather than failing deep inside
the simulator.

The default values follow the machine the MICRO-1999 paper simulates: an
8-wide out-of-order core with a small (16KB, 2-way) instruction cache backed
by a unified L2 over a shared bus, a 32-entry fetch target queue, and a
32-entry fully-associative prefetch buffer.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "CoreConfig",
    "PredictorConfig",
    "FrontEndConfig",
    "CacheGeometry",
    "MemoryConfig",
    "FilterMode",
    "PrefetcherKind",
    "PrefetchConfig",
    "ENGINES",
    "DEFAULT_ENGINE",
    "SimConfig",
    "config_to_dict",
    "config_from_dict",
    "is_power_of_two",
]


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the simplified out-of-order backend.

    The backend is intentionally simple: instructions delivered by the fetch
    engine enter an in-order window bounded by ``window_size``; up to
    ``issue_width`` instructions retire per cycle once their completion time
    has passed.  Branches resolve ``branch_resolve_latency`` cycles after
    dispatch, which sets the misprediction penalty together with the
    front-end refill time.
    """

    fetch_width: int = 8
    # Demand I-cache accesses per cycle (a banked/dual-ported cache can
    # fetch across a block boundary in one cycle).
    fetch_accesses_per_cycle: int = 1
    issue_width: int = 8
    window_size: int = 128
    pipeline_depth: int = 5
    branch_resolve_latency: int = 6
    load_latency: int = 2
    # Fidelity option: wrong-path instructions occupy backend window
    # slots until the squash flushes them (default off: discarded at
    # fetch, which is the cheaper and common trace-driven simplification).
    wrong_path_in_window: bool = False

    def __post_init__(self) -> None:
        _require(self.fetch_width >= 1, "fetch_width must be >= 1")
        _require(self.fetch_accesses_per_cycle >= 1,
                 "fetch_accesses_per_cycle must be >= 1")
        _require(self.issue_width >= 1, "issue_width must be >= 1")
        _require(self.window_size >= self.issue_width,
                 "window_size must be >= issue_width")
        _require(self.pipeline_depth >= 1, "pipeline_depth must be >= 1")
        _require(self.branch_resolve_latency >= 1,
                 "branch_resolve_latency must be >= 1")
        _require(self.load_latency >= 1, "load_latency must be >= 1")


@dataclass(frozen=True)
class PredictorConfig:
    """Direction predictor, FTB, and return-address-stack geometry.

    The direction predictor is a McFarling-style hybrid: a bimodal table and
    a gshare table arbitrated by a meta chooser.  The fetch target buffer
    (FTB) is the fetch-block-oriented BTB of Reinman et al. (ISCA 1999) that
    the FDIP paper builds on.
    """

    direction: str = "hybrid"
    bimodal_entries: int = 4096
    gshare_entries: int = 4096
    history_bits: int = 12
    meta_entries: int = 4096
    ras_depth: int = 32
    ftb_sets: int = 512
    ftb_ways: int = 4
    # Optional second-level FTB (scalable front-end, ISCA 1999); 0 sets
    # disables it and the FTB is monolithic.
    ftb_l2_sets: int = 0
    ftb_l2_ways: int = 8
    ftb_l2_latency: int = 3

    DIRECTION_KINDS = ("hybrid", "gshare", "bimodal", "local",
                       "always_taken", "always_not_taken")

    def __post_init__(self) -> None:
        _require(self.direction in self.DIRECTION_KINDS,
                 f"unknown direction predictor {self.direction!r}")
        for name in ("bimodal_entries", "gshare_entries", "meta_entries",
                     "ftb_sets"):
            _require(is_power_of_two(getattr(self, name)),
                     f"{name} must be a power of two")
        _require(1 <= self.history_bits <= 30,
                 "history_bits must be between 1 and 30")
        _require((1 << self.history_bits) <= self.gshare_entries * 65536,
                 "history_bits is too large for the gshare table")
        _require(self.ras_depth >= 1, "ras_depth must be >= 1")
        _require(self.ftb_ways >= 1, "ftb_ways must be >= 1")
        if self.ftb_l2_sets:
            _require(is_power_of_two(self.ftb_l2_sets),
                     "ftb_l2_sets must be a power of two (or 0)")
            _require(self.ftb_l2_ways >= 1, "ftb_l2_ways must be >= 1")
            _require(self.ftb_l2_latency >= 1,
                     "ftb_l2_latency must be >= 1")


@dataclass(frozen=True)
class FrontEndConfig:
    """The decoupled front end: FTQ geometry and prediction behaviour."""

    ftq_depth: int = 32
    max_fetch_block: int = 16
    model_wrong_path: bool = True
    # Oracle conditional-direction prediction (idealized-front-end
    # studies); FTB misses, indirect targets, and RAS behaviour are
    # unchanged, so mispredictions do not vanish entirely.
    perfect_direction: bool = False
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    def __post_init__(self) -> None:
        _require(self.ftq_depth >= 1, "ftq_depth must be >= 1")
        _require(self.max_fetch_block >= 1, "max_fetch_block must be >= 1")


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache."""

    size_bytes: int
    assoc: int
    block_bytes: int = 32

    def __post_init__(self) -> None:
        _require(is_power_of_two(self.block_bytes),
                 "block_bytes must be a power of two")
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.size_bytes % (self.assoc * self.block_bytes) == 0,
                 "size_bytes must be a multiple of assoc * block_bytes")
        _require(is_power_of_two(self.num_sets),
                 "the number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.block_bytes)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes


@dataclass(frozen=True)
class MemoryConfig:
    """The memory hierarchy below the fetch engine.

    The L1 instruction cache has ``icache_tag_ports`` tag ports per cycle;
    ports left idle by demand fetch are what cache probe filtering uses.
    The L2 is reached over a shared bus that transfers one cache block in
    ``bus_transfer_cycles``; demand misses always have priority over
    prefetches for the bus.
    """

    icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=16 * 1024, assoc=2))
    icache_hit_latency: int = 1
    icache_tag_ports: int = 2
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=1024 * 1024, assoc=4, block_bytes=32))
    l2_hit_latency: int = 12
    memory_latency: int = 70
    bus_transfer_cycles: int = 4
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        _require(self.icache_hit_latency >= 1,
                 "icache_hit_latency must be >= 1")
        _require(self.icache_tag_ports >= 1, "icache_tag_ports must be >= 1")
        _require(self.l2_hit_latency >= 1, "l2_hit_latency must be >= 1")
        _require(self.memory_latency >= self.l2_hit_latency,
                 "memory_latency must be >= l2_hit_latency")
        _require(self.bus_transfer_cycles >= 1,
                 "bus_transfer_cycles must be >= 1")
        _require(self.mshr_entries >= 1, "mshr_entries must be >= 1")
        _require(self.icache.block_bytes == self.l2.block_bytes,
                 "L1-I and L2 must use the same block size")


class FilterMode:
    """Cache probe filtering variants (string constants).

    - ``NONE``: every prefetch candidate is enqueued unfiltered.
    - ``ENQUEUE``: probe the I-cache tags when a candidate enters the PIQ,
      but only if an idle tag port is available this cycle.
    - ``REMOVE``: ``ENQUEUE`` plus idle ports are used to re-probe entries
      already waiting in the PIQ and drop those that hit.
    - ``IDEAL``: oracle filtering; every redundant prefetch is dropped with
      no port constraint.
    """

    NONE = "none"
    ENQUEUE = "enqueue"
    REMOVE = "remove"
    IDEAL = "ideal"

    ALL = (NONE, ENQUEUE, REMOVE, IDEAL)


class PrefetcherKind:
    """Instruction prefetching techniques evaluated by the paper."""

    NONE = "none"
    NLP = "nlp"
    STREAM = "stream"
    FDIP = "fdip"
    COMBINED = "fdip_nlp"

    ALL = (NONE, NLP, STREAM, FDIP, COMBINED)


@dataclass(frozen=True)
class PrefetchConfig:
    """Configuration of the instruction prefetcher.

    ``kind`` selects the technique.  FDIP-specific knobs: ``piq_depth`` (the
    prefetch instruction queue between the FTQ scanner and the bus),
    ``filter_mode`` (cache probe filtering variant) and ``buffer_entries``
    (the fully-associative prefetch buffer probed in parallel with the
    L1-I).  Stream-buffer knobs: ``stream_buffers`` x ``stream_depth`` with
    an optional two-miss allocation filter.
    """

    kind: str = PrefetcherKind.FDIP
    buffer_entries: int = 32
    fill_l1_directly: bool = False
    # FDIP
    piq_depth: int = 32
    filter_mode: str = FilterMode.ENQUEUE
    max_prefetches_per_cycle: int = 1
    # FTQ lookahead window scanned for candidates: queue positions
    # [min_lookahead, max_lookahead); None = to the FTQ tail.
    min_lookahead: int = 1
    max_lookahead: int | None = None
    # Stream buffers
    stream_buffers: int = 8
    stream_depth: int = 4
    allocation_filter: bool = True
    # How many leading slots of each buffer a demand access compares
    # against (1 = classic Jouppi head-only compare).
    stream_probe_depth: int = 1
    # Next-line
    nlp_tagged: bool = True
    nlp_degree: int = 1

    def __post_init__(self) -> None:
        _require(self.kind in PrefetcherKind.ALL,
                 f"unknown prefetcher kind {self.kind!r}")
        _require(self.filter_mode in FilterMode.ALL,
                 f"unknown filter mode {self.filter_mode!r}")
        _require(self.buffer_entries >= 1, "buffer_entries must be >= 1")
        _require(self.piq_depth >= 1, "piq_depth must be >= 1")
        _require(self.max_prefetches_per_cycle >= 1,
                 "max_prefetches_per_cycle must be >= 1")
        _require(self.min_lookahead >= 1, "min_lookahead must be >= 1")
        if self.max_lookahead is not None:
            _require(self.max_lookahead > self.min_lookahead,
                     "max_lookahead must exceed min_lookahead")
        _require(self.stream_buffers >= 1, "stream_buffers must be >= 1")
        _require(self.stream_depth >= 1, "stream_depth must be >= 1")
        _require(self.stream_probe_depth >= 1,
                 "stream_probe_depth must be >= 1")
        _require(self.nlp_degree >= 1, "nlp_degree must be >= 1")


#: Cycle-engine names a run accepts (the ``engine`` keyword of
#: :func:`repro.api.simulate` and the other run entry points, and the
#: CLI ``--engine`` flag).  Both are bit-identical; see
#: ``docs/performance.md``, "Engine selection".
ENGINES = ("naive", "event")

#: The engine every run entry point and ``--engine`` default to.
DEFAULT_ENGINE = "event"


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulator configuration: the modelled machine.

    Every field describes the machine or the measured part of the
    trace, so cache keys and snapshot identity digest the whole config.
    The trace's length is not a field: a
    :class:`~repro.spec.RunRequest` states it once, as
    ``trace_length``, and a caller holding a trace simulates a prefix
    by passing ``trace.slice(0, n)``.  How a run executes — cycle engine, profiling, checkpoint cadence,
    watchdog — is chosen where the run starts (see
    :class:`~repro.sim.simulator.Simulator`), and where its events go
    by :func:`repro.obs.configure_logging`.

    Besides :meth:`replace` (shallow, field-by-field), a config can be
    round-tripped through plain dicts — :meth:`to_dict` /
    :meth:`from_dict` — and rewritten with nested-aware
    :meth:`with_overrides`.  That round trip is the canonical
    serialization: serve requests and cache keys carry configs as
    dicts rather than pickles, so a config written by one process
    always validates on the way back in.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    frontend: FrontEndConfig = field(default_factory=FrontEndConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    warmup_instructions: int = 0
    # Functional fast-forward: warm caches/FTB/predictor over this many
    # leading trace records without timing them, then simulate the rest
    # cycle-accurately.  Much cheaper than timed warm-up for long traces.
    fast_forward_instructions: int = 0
    max_cycles: int | None = None
    # Interval telemetry: record a per-window time series (cycles,
    # retired instructions, demand misses, FTQ occupancy mass) every
    # this-many cycles.  0 disables the series; the counter tree is
    # always collected.  Sampling is jump-aware and bit-identical
    # between the event engine and the naive loop (see
    # docs/telemetry.md).
    telemetry_window: int = 0

    def __post_init__(self) -> None:
        _require(self.warmup_instructions >= 0,
                 "warmup_instructions must be >= 0")
        _require(self.fast_forward_instructions >= 0,
                 "fast_forward_instructions must be >= 0")
        _require(self.telemetry_window >= 0,
                 "telemetry_window must be >= 0")
        if self.max_cycles is not None:
            _require(self.max_cycles >= 1, "max_cycles must be >= 1")

    def replace(self, **changes: object) -> "SimConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible nested-dict form (see :func:`config_to_dict`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Reconstruct a validated config from :meth:`to_dict` output.

        Unknown keys (at any nesting level) raise
        :class:`~repro.errors.ConfigError` naming the offending key and
        the valid alternatives; every constructed dataclass re-runs its
        own ``__post_init__`` validation.
        """
        return config_from_dict(cls, data)

    def with_overrides(self, **overrides: object) -> "SimConfig":
        """A copy with nested-aware ``overrides`` applied and validated.

        Overrides may be dotted paths or partial nested dicts — these
        are equivalent::

            config.with_overrides(**{"prefetch.kind": "none"})
            config.with_overrides(prefetch={"kind": "none"})

        Unlike :meth:`replace`, nested dicts merge into the existing
        sub-config instead of replacing it wholesale.  Unknown keys are
        rejected with :class:`~repro.errors.ConfigError`.
        """
        data = self.to_dict()
        for key, value in overrides.items():
            _deep_set(data, key, value)
        return type(self).from_dict(data)


# ----------------------------------------------------------------------
# Canonical dict round-trip
# ----------------------------------------------------------------------

# Nested dataclass-valued fields of each config class.  Everything not
# listed here is a scalar (int / float / bool / str / None).
_NESTED_FIELDS: dict[type, dict[str, type]] = {}


def _nested_fields(cls: type) -> dict[str, type]:
    if not _NESTED_FIELDS:
        _NESTED_FIELDS.update({
            SimConfig: {"core": CoreConfig, "frontend": FrontEndConfig,
                        "memory": MemoryConfig, "prefetch": PrefetchConfig},
            FrontEndConfig: {"predictor": PredictorConfig},
            MemoryConfig: {"icache": CacheGeometry, "l2": CacheGeometry},
        })
    return _NESTED_FIELDS.get(cls, {})


def config_to_dict(config: object) -> dict:
    """Nested plain-dict form of any config dataclass (JSON compatible)."""
    nested = _nested_fields(type(config))
    out: dict = {}
    for field_info in dataclasses.fields(config):  # type: ignore[arg-type]
        value = getattr(config, field_info.name)
        out[field_info.name] = (config_to_dict(value)
                                if field_info.name in nested else value)
    return out


def config_from_dict(cls: type, data: dict, _path: str = "") -> object:
    """Inverse of :func:`config_to_dict` for ``cls``; validates keys.

    Missing keys fall back to the dataclass defaults (so partial dicts
    work for overrides); unknown keys raise
    :class:`~repro.errors.ConfigError` with their full dotted path.
    """
    if not isinstance(data, dict):
        where = _path or cls.__name__
        raise ConfigError(
            f"{where}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        prefix = f"{_path}." if _path else ""
        close = difflib.get_close_matches(unknown[0], sorted(known), n=1,
                                          cutoff=0.6)
        hint = (f" (did you mean '{prefix}{close[0]}'?)" if close else "")
        raise ConfigError(
            f"unknown config key '{prefix}{unknown[0]}'{hint}; "
            f"valid keys: {', '.join(sorted(known))}")
    nested = _nested_fields(cls)
    kwargs: dict = {}
    for name, value in data.items():
        if name in nested:
            child_path = f"{_path}.{name}" if _path else name
            kwargs[name] = config_from_dict(nested[name], value, child_path)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        where = _path or cls.__name__
        raise ConfigError(f"{where}: {exc}") from exc


def _deep_set(data: dict, key: str, value: object) -> None:
    """Apply one override into the nested dict form.

    Dotted keys descend; dict values merge key-by-key into the existing
    sub-dict (validation of the key names happens in
    :func:`config_from_dict`).
    """
    head, _, rest = key.partition(".")
    if rest:
        node = data.setdefault(head, {})
        if not isinstance(node, dict):
            raise ConfigError(
                f"cannot descend into scalar config field {head!r} "
                f"(override {key!r})")
        _deep_set(node, rest, value)
    elif isinstance(value, dict) and isinstance(data.get(head), dict):
        for sub_key, sub_value in value.items():
            _deep_set(data[head], sub_key, sub_value)
    else:
        data[head] = value
