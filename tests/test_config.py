"""Configuration dataclass validation."""

import dataclasses

import pytest

from repro.config import (
    CacheGeometry,
    CoreConfig,
    FilterMode,
    FrontEndConfig,
    MemoryConfig,
    PredictorConfig,
    PrefetchConfig,
    PrefetcherKind,
    SimConfig,
    is_power_of_two,
)
from repro.errors import ConfigError


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024, 1 << 20])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -1, -2, 3, 6, 12, 1023])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)


class TestCoreConfig:
    def test_defaults_valid(self):
        core = CoreConfig()
        assert core.fetch_width == 8
        assert core.window_size >= core.issue_width

    @pytest.mark.parametrize("field,value", [
        ("fetch_width", 0),
        ("issue_width", 0),
        ("pipeline_depth", 0),
        ("branch_resolve_latency", 0),
        ("load_latency", 0),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ConfigError):
            CoreConfig(**{field: value})

    def test_window_smaller_than_issue_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=8, window_size=4)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CoreConfig().fetch_width = 4


class TestPredictorConfig:
    def test_defaults_valid(self):
        PredictorConfig()

    @pytest.mark.parametrize("field", [
        "bimodal_entries", "gshare_entries", "meta_entries", "ftb_sets"])
    def test_table_sizes_must_be_pow2(self, field):
        with pytest.raises(ConfigError):
            PredictorConfig(**{field: 1000})

    def test_history_bits_bounds(self):
        with pytest.raises(ConfigError):
            PredictorConfig(history_bits=0)
        with pytest.raises(ConfigError):
            PredictorConfig(history_bits=31)

    def test_ras_depth_positive(self):
        with pytest.raises(ConfigError):
            PredictorConfig(ras_depth=0)


class TestCacheGeometry:
    def test_basic_properties(self):
        geometry = CacheGeometry(size_bytes=16 * 1024, assoc=2,
                                 block_bytes=32)
        assert geometry.num_sets == 256
        assert geometry.num_blocks == 512

    def test_block_bytes_pow2(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=16 * 1024, assoc=2, block_bytes=48)

    def test_size_divisibility(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1000, assoc=2, block_bytes=32)

    def test_sets_must_be_pow2(self):
        # 3 * 32 * 2 divides evenly but leaves a non-pow2 set count.
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=3 * 32 * 2, assoc=2, block_bytes=32)

    def test_fully_associative_one_set(self):
        geometry = CacheGeometry(size_bytes=32 * 32, assoc=32,
                                 block_bytes=32)
        assert geometry.num_sets == 1


class TestMemoryConfig:
    def test_defaults_valid(self):
        memory = MemoryConfig()
        assert memory.icache.size_bytes == 16 * 1024

    def test_memory_latency_floor(self):
        with pytest.raises(ConfigError):
            MemoryConfig(l2_hit_latency=20, memory_latency=10)

    def test_block_size_agreement(self):
        with pytest.raises(ConfigError):
            MemoryConfig(
                icache=CacheGeometry(size_bytes=16 * 1024, assoc=2,
                                     block_bytes=32),
                l2=CacheGeometry(size_bytes=1024 * 1024, assoc=4,
                                 block_bytes=64))

    def test_tag_ports_positive(self):
        with pytest.raises(ConfigError):
            MemoryConfig(icache_tag_ports=0)


class TestPrefetchConfig:
    def test_defaults_valid(self):
        config = PrefetchConfig()
        assert config.kind == PrefetcherKind.FDIP

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            PrefetchConfig(kind="teleport")

    def test_unknown_filter_rejected(self):
        with pytest.raises(ConfigError):
            PrefetchConfig(filter_mode="psychic")

    @pytest.mark.parametrize("kind", PrefetcherKind.ALL)
    def test_all_kinds_accepted(self, kind):
        assert PrefetchConfig(kind=kind).kind == kind

    @pytest.mark.parametrize("mode", FilterMode.ALL)
    def test_all_filter_modes_accepted(self, mode):
        assert PrefetchConfig(filter_mode=mode).filter_mode == mode

    @pytest.mark.parametrize("field", [
        "buffer_entries", "piq_depth", "max_prefetches_per_cycle",
        "stream_buffers", "stream_depth", "nlp_degree"])
    def test_positive_fields(self, field):
        with pytest.raises(ConfigError):
            PrefetchConfig(**{field: 0})


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig()

    def test_replace_returns_new(self):
        config = SimConfig()
        changed = config.replace(warmup_instructions=100)
        assert changed.warmup_instructions == 100
        assert config.warmup_instructions == 0

    def test_hashable_for_memoization(self):
        a = SimConfig()
        b = SimConfig()
        assert hash(a) == hash(b)
        assert a == b

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(warmup_instructions=-1)

    def test_max_instructions_is_not_a_field(self):
        """A point's trace length is stated once, by the request."""
        with pytest.raises(TypeError):
            SimConfig(max_instructions=1_000)
        with pytest.raises(ConfigError, match="unknown config key "
                                              "'max_instructions'"):
            SimConfig.from_dict({"max_instructions": 1_000})

    def test_max_cycles_validated(self):
        with pytest.raises(ConfigError):
            SimConfig(max_cycles=0)


class TestFrontEndConfig:
    def test_defaults(self):
        frontend = FrontEndConfig()
        assert frontend.ftq_depth == 32

    def test_ftq_depth_positive(self):
        with pytest.raises(ConfigError):
            FrontEndConfig(ftq_depth=0)

    def test_max_fetch_block_positive(self):
        with pytest.raises(ConfigError):
            FrontEndConfig(max_fetch_block=0)


def _exotic_config() -> SimConfig:
    """A config with every top-level field off its default."""
    return SimConfig(
        core=CoreConfig(fetch_width=4, issue_width=2),
        frontend=FrontEndConfig(
            ftq_depth=16,
            predictor=PredictorConfig(bimodal_entries=512)),
        memory=MemoryConfig(
            icache=CacheGeometry(size_bytes=8 * 1024, assoc=2,
                                 block_bytes=32),
            memory_latency=200),
        prefetch=PrefetchConfig(kind="nlp", nlp_degree=2),
        warmup_instructions=100,
        fast_forward_instructions=50,
        max_cycles=1_000_000,
        telemetry_window=250)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("config", [
        SimConfig(),
        _exotic_config(),
    ], ids=["defaults", "exotic"])
    def test_to_dict_from_dict_round_trips(self, config):
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_every_field_survives(self):
        # Field-by-field, so a future field added without to_dict
        # support fails with its name rather than a bare inequality.
        config = _exotic_config()
        rebuilt = SimConfig.from_dict(config.to_dict())
        for field in dataclasses.fields(SimConfig):
            assert getattr(rebuilt, field.name) == \
                getattr(config, field.name), field.name

    def test_dict_form_is_json_compatible(self):
        import json

        data = _exotic_config().to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_partial_dict_fills_defaults(self):
        config = SimConfig.from_dict({"warmup_instructions": 42})
        assert config.warmup_instructions == 42
        assert config.core == CoreConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="warmup_instrs"):
            SimConfig.from_dict({"warmup_instrs": 42})

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="memory.icache.sets"):
            SimConfig.from_dict(
                {"memory": {"icache": {"sets": 4}}})

    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=name) for name, value in (
            ("engine", "naive"), ("profile", True),
            ("event_log", "events.jsonl"), ("checkpoint_interval", 500),
            ("watchdog_interval", 1000))])
    def test_run_option_is_not_a_field(self, name, value):
        """How a run executes is chosen where it starts, never in the
        config that describes the machine."""
        with pytest.raises(TypeError):
            SimConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"unknown config key "
                                              f"'{name}'"):
            SimConfig.from_dict({name: value})

    def test_from_dict_revalidates(self):
        data = SimConfig().to_dict()
        data["warmup_instructions"] = -1
        with pytest.raises(ConfigError):
            SimConfig.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            SimConfig.from_dict({"prefetch": "fdip"})


class TestWithOverrides:
    def test_dotted_key(self):
        config = SimConfig().with_overrides(**{"prefetch.kind": "none"})
        assert config.prefetch.kind == "none"

    def test_nested_dict_merges(self):
        base = SimConfig(
            prefetch=PrefetchConfig(kind="fdip", filter_mode="enqueue"))
        changed = base.with_overrides(prefetch={"kind": "none"})
        assert changed.prefetch.kind == "none"
        # Merge, not wholesale replacement: the sibling field survives.
        assert changed.prefetch.filter_mode == "enqueue"

    def test_deep_dotted_key(self):
        config = SimConfig().with_overrides(
            **{"frontend.predictor.bimodal_entries": 512})
        assert config.frontend.predictor.bimodal_entries == 512
        assert config.frontend.ftq_depth == SimConfig().frontend.ftq_depth

    def test_scalar_override(self):
        assert SimConfig().with_overrides(
            warmup_instructions=9).warmup_instructions == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig().with_overrides(**{"prefetch.degree": 2})

    def test_original_untouched(self):
        base = SimConfig()
        base.with_overrides(**{"prefetch.kind": "none"})
        assert base.prefetch.kind == PrefetcherKind.FDIP
