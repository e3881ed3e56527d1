"""Opt-in fidelity knobs: wrong-path window occupancy, stream probe depth."""

import dataclasses

import pytest

from repro import PrefetchConfig, PrefetcherKind, SimConfig, simulate
from repro.config import CoreConfig
from repro.cpu import Backend
from repro.sim import check_invariants


class TestWrongPathWindowBackend:
    def make_backend(self, window=16):
        core = CoreConfig(window_size=window, issue_width=4,
                          wrong_path_in_window=True)
        return Backend(core)

    def test_wrong_path_consumes_slots(self):
        backend = self.make_backend(window=16)
        backend.deliver_wrong_path(10)
        assert backend.free_slots == 6
        assert backend.occupancy == 10

    def test_wrong_path_never_retires(self):
        backend = self.make_backend()
        backend.deliver_wrong_path(4)
        assert backend.retire(1000) == 0
        assert backend.retired == 0

    def test_flush_frees_slots(self):
        backend = self.make_backend(window=16)
        backend.deliver_wrong_path(10)
        assert backend.flush_wrong_path() == 10
        assert backend.free_slots == 16

    def test_overdelivery_rejected(self):
        backend = self.make_backend(window=4)
        with pytest.raises(OverflowError):
            backend.deliver_wrong_path(5)


class TestWrongPathWindowEndToEnd:
    def config(self, wrong_path_in_window):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP))
        return config.replace(core=dataclasses.replace(
            config.core, wrong_path_in_window=wrong_path_in_window))

    def test_completes_and_consistent(self, small_trace):
        result = simulate(small_trace.slice(0, 8000), self.config(True))
        assert result.instructions == 8000
        assert check_invariants(result) == []
        assert result.get("backend.wrong_path_delivered") > 0
        assert result.get("backend.wrong_path_flushed") == \
            result.get("backend.wrong_path_delivered")

    def test_occupancy_pressure_never_speeds_up(self, small_trace):
        off = simulate(small_trace.slice(0, 8000), self.config(False))
        on = simulate(small_trace.slice(0, 8000), self.config(True))
        # Wrong-path occupancy can only add pressure.
        assert on.ipc <= off.ipc * 1.01

    def test_default_off_matches_legacy(self, small_trace):
        legacy = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.FDIP))
        result = simulate(small_trace.slice(0, 8000), legacy)
        assert result.get("backend.wrong_path_delivered") == 0


class TestStreamProbeDepth:
    def config(self, probe_depth):
        return SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.STREAM, stream_probe_depth=probe_depth))

    def test_deeper_probe_completes_and_consistent(self, small_trace):
        result = simulate(small_trace.slice(0, 8000), self.config(4))
        assert result.instructions == 8000
        assert check_invariants(result) == []

    def test_deeper_probe_not_worse(self, small_trace):
        head_only = simulate(small_trace.slice(0, 8000), self.config(1))
        deep = simulate(small_trace.slice(0, 8000), self.config(4))
        # Lookup-variant stream buffers tolerate small skips; they
        # should never lose to head-only compare.
        assert deep.ipc >= head_only.ipc * 0.99

    def test_non_head_hits_counted(self, small_trace):
        deep = simulate(small_trace.slice(0, 8000), self.config(4))
        head_only = simulate(small_trace.slice(0, 8000), self.config(1))
        assert head_only.get("stream.non_head_hits") == 0
        assert deep.get("stream.non_head_hits") >= 0
