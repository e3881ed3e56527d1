"""Pipeline tracer."""

import pytest

from repro import PrefetchConfig, PrefetcherKind, SimConfig, Simulator
from repro.analysis import PipeTracer


@pytest.fixture
def traced(small_trace):
    tracer = PipeTracer(start=1, length=150)
    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP))
    simulator = Simulator(small_trace.slice(0, 2000), config, tracer=tracer)
    simulator.run()
    return tracer


class TestPipeTracer:
    def test_window_respected(self, traced):
        assert traced.snapshots
        assert all(1 <= s.cycle < 151 for s in traced.snapshots)
        assert len(traced.snapshots) <= 150

    def test_cycles_monotone(self, traced):
        cycles = [s.cycle for s in traced.snapshots]
        assert cycles == sorted(cycles)

    def test_retired_monotone(self, traced):
        retired = [s.retired_total for s in traced.snapshots]
        assert retired == sorted(retired)

    def test_render_has_one_line_per_cycle(self, traced):
        text = traced.render()
        assert len(text.splitlines()) == len(traced.snapshots) + 2

    def test_render_every(self, traced):
        text = traced.render(every=10)
        assert len(text.splitlines()) <= len(traced.snapshots) / 10 + 3

    def test_retire_rate_positive(self, traced):
        assert traced.retire_rate() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PipeTracer(start=0)
        with pytest.raises(ValueError):
            PipeTracer(length=0)
        with pytest.raises(ValueError):
            PipeTracer().render(every=0)

    def test_no_tracer_unaffected(self, small_trace):
        config = SimConfig(prefetch=PrefetchConfig(
            kind=PrefetcherKind.NONE))
        result = Simulator(small_trace.slice(0, 1000), config).run()
        assert result.instructions == 1000
