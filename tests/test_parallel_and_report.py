"""Parallel sweep runner and the markdown report generator."""

import pytest

from repro.api import simulate
from repro.harness import (
    Point,
    Runner,
    generate_report,
    parallel_sweep,
    technique_config,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


class TestParallelSweep:
    def test_inline_mode(self):
        points = [("compress_like", technique_config("none")),
                  ("compress_like", technique_config("nlp"))]
        results = parallel_sweep(points, trace_length=3000, processes=1)
        assert set(results) == set(points)
        for result in results.values():
            assert result.instructions > 0

    def test_duplicates_deduplicated(self):
        point = ("compress_like", technique_config("none"))
        results = parallel_sweep([point, point], trace_length=3000,
                                 processes=1)
        assert len(results) == 1

    def test_points_sharing_a_store_key_both_mapped(self, monkeypatch):
        # The second point spells out the default warm-up the first one
        # gets, so both run the same simulation: it runs once, and both
        # points map to its result.
        calls = []

        def counting(trace, config, name=None):
            calls.append(name)
            return simulate(trace, config, name=name)

        monkeypatch.setattr("repro.harness.parallel.simulate", counting)
        config = technique_config("none")
        points = [("compress_like", config),
                  ("compress_like",
                   config.replace(warmup_instructions=2000 // 5))]
        outcome = parallel_sweep(points, trace_length=2000, processes=1)
        assert len(calls) == 1
        assert set(outcome) == set(points)
        assert outcome[points[0]] is outcome[points[1]]
        assert outcome.summary().startswith(
            "sweep: 1/1 points completed")

    def test_runner_sweep_maps_points_sharing_a_store_key(self):
        runner = Runner(trace_length=2000)
        config = technique_config("none")
        points = [Point("compress_like", config),
                  Point("compress_like",
                        config.replace(warmup_instructions=2000 // 5))]
        outcome = runner.sweep(points, processes=1)
        assert outcome.ok
        assert all(point.key in outcome for point in points)

    def test_multiprocess_matches_inline(self):
        points = [("compress_like", technique_config("none")),
                  ("compress_like", technique_config("fdip_enqueue")),
                  ("m88ksim_like", technique_config("none"))]
        inline = parallel_sweep(points, trace_length=3000, processes=1)
        fanned = parallel_sweep(points, trace_length=3000, processes=2)
        for point in points:
            assert inline[point].cycles == fanned[point].cycles
            assert inline[point].counters == fanned[point].counters

    def test_warmup_default_applied(self):
        point = ("compress_like", technique_config("none"))
        results = parallel_sweep([point], trace_length=3000, processes=1)
        result = results[point]
        assert result.instructions < 3000


class TestReport:
    def test_subset_report(self):
        runner = Runner(trace_length=2000)
        text = generate_report(runner, experiment_ids=["E1"])
        assert "# Reproduction report" in text
        assert "## E1" in text
        assert "```text" in text

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            generate_report(Runner(trace_length=2000),
                            experiment_ids=["E99"])

    def test_reports_run_count(self):
        runner = Runner(trace_length=2000)
        text = generate_report(runner, experiment_ids=["E1"])
        assert "Total simulation points" in text

    def test_no_prewarm_when_no_experiment_reads_the_grid(self):
        # E1 is the config table: a pool must not simulate the grid.
        runner = Runner(trace_length=500)
        text = generate_report(runner, experiment_ids=["E1"], processes=2)
        assert "Total simulation points: 0" in text
        assert "Sweep execution:" not in text

    def test_grid_experiment_is_prewarmed(self):
        runner = Runner(trace_length=500)
        text = generate_report(runner, experiment_ids=["E3"], processes=2)
        assert "Sweep execution:" in text
