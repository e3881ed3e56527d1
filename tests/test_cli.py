"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-w", "nonexistent"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])

    @pytest.mark.parametrize("argv", [
        ["shard", "-w", "compress_like"],
        ["stats", "-w", "compress_like", "--shards", "2"],
        ["stats", "-w", "compress_like", "--processes", "2"],
        ["submit", "-w", "compress_like", "--shards", "2"],
        ["perf", "--processes", "2"],
    ])
    def test_removed_command_and_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vortex_like" in out
        assert "fdip" in out
        assert "E15" in out


class TestCharacterize:
    def test_prints_metrics(self, capsys):
        code = main(["characterize", "-w", "compress_like",
                     "--length", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "footprint KB" in out
        assert "3000" in out


class TestRun:
    def test_table_output(self, capsys):
        code = main(["run", "-w", "compress_like", "--length", "3000",
                     "-p", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_json_output(self, capsys):
        code = main(["run", "-w", "compress_like", "--length", "3000",
                     "-p", "fdip", "-f", "ideal", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "compress_like"
        assert payload["prefetcher"] == "fdip"
        assert payload["ipc"] > 0

    def test_warmup_accepted(self, capsys):
        code = main(["run", "-w", "compress_like", "--length", "3000",
                     "--warmup", "500", "-p", "nlp"])
        assert code == 0


class TestEngineFlag:
    def _run_json(self, capsys, *extra):
        code = main(["run", "-w", "compress_like", "--length", "3000",
                     "-p", "none", "--json", *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("engine", ["naive", "event"])
    def test_engine_choices_accepted_and_identical(self, capsys, engine):
        default = self._run_json(capsys)
        explicit = self._run_json(capsys, "--engine", engine)
        assert explicit == default

    def test_unknown_engine_rejected_by_parser(self):
        for engine in ("turbo", "fast"):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(
                    ["run", "-w", "compress_like", "--engine", engine])
            assert info.value.code == 2

    def test_profile_accepts_engine(self, capsys):
        code = main(["profile", "-w", "compress_like", "--length",
                     "3000", "--engine", "event", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.profile/v1"


class TestExperimentCommand:
    def test_e1(self, capsys):
        assert main(["experiment", "E1", "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "E1: Simulated machine configuration" in out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        code = main(["report", "--length", "2000",
                     "--experiments", "E1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "## E1" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["report", "--length", "2000",
                     "--experiments", "E1", "-o", str(target)])
        assert code == 0
        assert "## E1" in target.read_text()


class TestCalibrateCommand:
    def test_single_workload_ok(self, capsys):
        code = main(["calibrate", "-w", "compress_like",
                     "--length", "8000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compress_like" in out
        assert "ok" in out


class TestReportCharts:
    def test_e6_report_includes_chart(self, capsys):
        code = main(["report", "--length", "2000",
                     "--experiments", "E6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup vs FTQ depth" in out
        assert "#" in out


class TestCombinedPrefetcherCli:
    def test_fdip_nlp_choice(self, capsys):
        code = main(["run", "-w", "compress_like", "--length", "3000",
                     "-p", "fdip_nlp"])
        assert code == 0
        assert "fdip_nlp" in capsys.readouterr().out


class TestStatsCommand:
    ARGS = ["stats", "-w", "compress_like", "--length", "4000"]

    def test_table_output_walks_tree(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sim/mem/l1i" in out
        assert "sim/predict" in out

    def test_json_emits_versioned_schema(self, capsys):
        from repro.stats import SCHEMA

        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SCHEMA
        assert payload["root"]["name"] == "sim"
        assert payload["meta"]["prefetcher"] == "fdip"

    def test_csv_counters(self, capsys):
        assert main(self.ARGS + ["--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "component,counter,value"
        assert any(line.startswith("sim/mem,") for line in lines)

    def test_interval_series_with_window(self, capsys):
        assert main(self.ARGS + ["--window", "500"]) == 0
        out = capsys.readouterr().out
        assert "interval series (window 500 cycles)" in out

    def test_csv_intervals(self, capsys):
        assert main(self.ARGS + ["--window", "500", "--csv",
                                 "--intervals"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("interval,end_cycle,")
        assert len(lines) > 2

    def test_csv_intervals_without_window_fails(self, capsys):
        assert main(self.ARGS + ["--csv", "--intervals"]) == 2
        assert "--window" in capsys.readouterr().err

    def test_json_and_csv_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.ARGS + ["--json", "--csv"])


class TestSharedFlags:
    """The trace parent parser behaves uniformly across commands; the
    pool flags belong to sweep, the one command that runs a pool."""

    @pytest.mark.parametrize("command", [["sweep"]])
    def test_trace_and_pool_flags_accepted(self, command):
        args = build_parser().parse_args(
            command + ["--length", "5000", "--seed", "3",
                       "--processes", "2", "--max-retries", "1",
                       "--point-timeout", "30"])
        assert args.length == 5000
        assert args.seed == 3
        assert args.processes == 2
        assert args.max_retries == 1
        assert args.point_timeout == 30.0

    def test_trace_length_alias(self):
        args = build_parser().parse_args(
            ["stats", "-w", "compress_like", "--trace-length", "4000"])
        assert args.length == 4000

    def test_length_defaults_to_none_for_per_command_fallback(self):
        # perf distinguishes "no --length" (quick/default semantics)
        # from an explicit value, so the shared flag must not eagerly
        # substitute the generic default.
        assert build_parser().parse_args(["perf"]).length is None

    @pytest.mark.parametrize("argv", [
        ["run", "-w", "compress_like", "--checkpoint-interval", "-5"],
        ["stats", "-w", "compress_like", "--watchdog-interval", "-1"],
        ["sweep", "--checkpoint-interval", "-3"]])
    def test_negative_cycle_count_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["run", "-w", "compress_like", "--length", "3000"],
         "--machine-checkpoint-dir"),
        (["stats", "-w", "compress_like", "--length", "3000"],
         "--machine-checkpoint-dir"),
        (["sweep", "-w", "compress_like", "-t", "none", "--length",
          "3000", "--processes", "1"], "--machine-checkpoints")],
        ids=["run", "stats", "sweep"])
    def test_checkpoint_interval_needs_snapshot_dir(self, argv, flag,
                                                    capsys):
        assert main(argv + ["--checkpoint-interval", "500"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag in err

    @pytest.mark.parametrize("argv, seed", [(["--seed", "1"], 1), ([], 3)],
                             ids=["seed-1", "default"])
    def test_perf_builds_its_trace_with_the_resolved_seed(
            self, argv, seed, tmp_path, monkeypatch, capsys):
        from repro import perf

        seeds = []
        from_program = perf.Trace.from_program

        def spy(program, length, seed=0):
            seeds.append(seed)
            return from_program(program, length, seed=seed)

        monkeypatch.setattr(perf.Trace, "from_program", spy)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"points": {}}')
        output = tmp_path / "perf.json"
        assert main(["perf", "--length", "300", "--reps", "1",
                     "--output", str(output), "--baseline", str(baseline)]
                    + argv) == 0
        assert seeds == [seed]
        assert json.loads(output.read_text())["seed"] == seed


class TestServeParsers:
    """The serving subcommands share --host/--port via one parent."""

    def test_serve_defaults(self):
        from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT

        args = build_parser().parse_args(["serve"])
        assert args.host == DEFAULT_HOST
        assert args.port == DEFAULT_PORT
        assert args.workers == 1
        assert args.max_queue_depth == 16
        assert args.cache_dir is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4",
             "--max-queue-depth", "2", "--cache-dir", "/tmp/c"])
        assert args.port == 0
        assert args.workers == 4
        assert args.max_queue_depth == 2
        assert args.cache_dir == "/tmp/c"

    @pytest.mark.parametrize("command", [
        ["submit", "-w", "compress_like"],
        ["status", "job-000001"],
        ["fetch", "job-000001"],
    ])
    def test_endpoint_flags_shared(self, command):
        args = build_parser().parse_args(
            command + ["--host", "10.0.0.2", "--port", "9999"])
        assert args.host == "10.0.0.2"
        assert args.port == 9999

    def test_submit_request_flags(self):
        args = build_parser().parse_args(
            ["submit", "-w", "compress_like", "--length", "6000",
             "--seed", "2", "--priority", "3",
             "--wait", "30", "--json"])
        assert args.workload == "compress_like"
        assert args.length == 6000
        assert args.seed == 2
        assert args.priority == 3
        assert args.wait == 30.0
        assert args.json is True

    def test_submit_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "-w", "nonexistent"])

    def test_fetch_requires_job(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fetch"])


class TestServeCommandsAgainstLiveDaemon:
    def test_submit_status_fetch_roundtrip(self, capsys):
        from repro.serve import ServiceDaemon

        daemon = ServiceDaemon(port=0)
        daemon.start_background()
        host, port = daemon.address
        endpoint = ["--host", host, "--port", str(port)]
        try:
            assert main(["submit", "-w", "compress_like",
                         "--length", "6000", *endpoint]) == 0
            job = capsys.readouterr().out.strip()
            assert job.startswith("job-")

            assert main(["fetch", job, "--wait", "300", "--json",
                         *endpoint]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["job"] == job
            assert payload["source"] == "computed"
            assert payload["cycles"] > 0

            assert main(["status", job, *endpoint]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "done"
        finally:
            daemon.stop()

    def test_unreachable_daemon_reports_error(self, capsys):
        assert main(["status", "job-000001",
                     "--host", "127.0.0.1", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err
