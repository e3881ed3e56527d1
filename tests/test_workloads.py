"""Workload suite definitions and trace building."""

import pytest

from repro.errors import ConfigError
from repro.trace import TraceCache, characterize
from repro.workloads import (
    ALL_WORKLOADS,
    CLIENT_WORKLOADS,
    PROFILES,
    SERVER_WORKLOADS,
    build_program,
    build_trace,
    get_profile,
)


class TestCatalog:
    def test_ten_profiles(self):
        assert len(ALL_WORKLOADS) == 10

    def test_categories_partition(self):
        assert set(CLIENT_WORKLOADS) | set(SERVER_WORKLOADS) == \
            set(ALL_WORKLOADS)
        assert not set(CLIENT_WORKLOADS) & set(SERVER_WORKLOADS)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            get_profile("nonexistent")

    def test_profiles_have_descriptions(self):
        for profile in PROFILES.values():
            assert profile.description

    def test_invalid_category_rejected(self):
        import dataclasses
        profile = get_profile("gcc_like")
        with pytest.raises(ConfigError):
            dataclasses.replace(profile, category="embedded")


class TestPrograms:
    def test_program_deterministic(self):
        a = build_program("m88ksim_like")
        b = build_program("m88ksim_like")
        assert a.n_instrs == b.n_instrs
        assert a.entry == b.entry

    def test_server_footprints_exceed_client(self):
        client = build_program("compress_like").footprint_bytes
        server = build_program("vortex_like").footprint_bytes
        assert server > 4 * client


class TestTraces:
    def test_build_trace_uses_cache(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = build_trace("compress_like", 2000, cache=cache)
        assert len(list(tmp_path.glob("*.trace.gz"))) == 1
        second = build_trace("compress_like", 2000, cache=cache)
        assert first.records == second.records

    def test_lengths_respected(self, tmp_path):
        trace = build_trace("compress_like", 1234,
                            cache=TraceCache(tmp_path))
        assert len(trace) == 1234

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_walks_are_prefix_stable(self, tmp_path, seed):
        """A shorter walk is a prefix of a longer one, so a request's
        trace_length alone says which instructions a point simulates."""
        cache = TraceCache(tmp_path)
        long = build_trace("gcc_like", 20_000, seed=seed, cache=cache)
        short = build_trace("gcc_like", 7_000, seed=seed, cache=cache)
        assert long.records[:7_000] == short.records

    def test_server_dynamic_footprint_exceeds_l1(self, tmp_path):
        trace = build_trace("vortex_like", 60_000,
                            cache=TraceCache(tmp_path))
        stats = characterize(trace)
        assert stats.distinct_blocks * 32 > 16 * 1024

    def test_client_dynamic_footprint_small(self, tmp_path):
        trace = build_trace("compress_like", 20_000,
                            cache=TraceCache(tmp_path))
        stats = characterize(trace)
        assert stats.distinct_blocks * 32 < 16 * 1024
