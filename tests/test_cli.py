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

    def test_sharded_stats(self, capsys):
        code = main(["stats", "-w", "compress_like", "--length", "6000",
                     "--shards", "2", "--shard-overlap", "500",
                     "--processes", "1"])
        assert code == 0
        assert "sim/mem/l1i" in capsys.readouterr().out


class TestShardCommand:
    BASE = ["shard", "-w", "compress_like", "--length", "6000",
            "--shards", "2", "--shard-overlap", "500",
            "--processes", "1"]

    def test_table_output(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "shard" in out  # provenance table

    def test_json_output(self, capsys):
        assert main(self.BASE + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharding"]["shards"] == 2
        assert payload["sharding"]["overlap"] == 500
        assert len(payload["sharding"]["windows"]) == 2
        assert payload["ipc"] > 0

    def test_compare_reports_deltas(self, capsys):
        assert main(self.BASE + ["--compare"]) == 0
        out = capsys.readouterr().out
        assert "monolithic" in out

    def test_calibrate_prints_accuracy_table(self, capsys):
        code = main(["shard", "-w", "compress_like", "--length", "6000",
                     "--processes", "1", "--calibrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ipc err" in out

    def test_warm_mode_validated_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.BASE + ["--warm", "cold"])


class TestSharedFlags:
    """The trace/pool parent parsers behave uniformly across commands."""

    @pytest.mark.parametrize("command", [
        ["sweep"], ["stats", "-w", "compress_like"],
        ["shard", "-w", "compress_like"], ["perf"],
    ])
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
             "--seed", "2", "--shards", "4", "--priority", "3",
             "--wait", "30", "--json"])
        assert args.workload == "compress_like"
        assert args.length == 6000
        assert args.seed == 2
        assert args.shards == 4
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
