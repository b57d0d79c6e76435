"""CLI smoke tests (the cheap targets; table1 is covered by benches)."""

import hashlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("table1", "fig1", "fig6", "fig7", "fig8a", "fig8b",
                    "verify", "breakdown", "scaling", "serve", "backends",
                    "hedepth", "check"):
            args = parser.parse_args([cmd] if cmd != "verify" else [cmd, "--trials", "1"])
            assert args.command == cmd
        args = parser.parse_args(["trace", "t.json"])
        assert args.command == "trace"

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--scenario", "kyber", "--rate", "50", "--duration",
             "0.2", "--pool-size", "3", "--max-wait-ms", "1.5",
             "--arrivals", "bursty", "--backend", "sram", "--max-batch", "4"]
        )
        assert args.scenario == "kyber"
        assert args.rate == 50.0
        assert args.duration == 0.2
        assert args.pool_size == 3
        assert args.max_wait_ms == 1.5
        assert args.arrivals == "bursty"
        assert args.backend == "sram"
        assert args.max_batch == 4

    def test_serve_mode_flag_removed(self):
        # The --mode spelling finished its deprecation window.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--mode", "sram"])

    def test_serve_cluster_flags(self):
        args = build_parser().parse_args(
            ["serve", "--chips", "4", "--router", "round-robin"])
        assert args.chips == 4
        assert args.router == "round-robin"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.chips == 1
        assert defaults.router == "affinity"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--router", "no-such"])

    def test_serve_scenario_choices_track_registry(self):
        from repro.serve import available_scenarios

        for name in available_scenarios():
            args = build_parser().parse_args(["serve", "--scenario", name])
            assert args.scenario == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scenario", "no-such"])

    def test_serve_scheduler_flags(self):
        args = build_parser().parse_args(
            ["serve", "--scheduler", "slo", "--slo-ms", "5.0",
             "--queue-limit", "32"]
        )
        assert args.scheduler == "slo"
        assert args.slo_ms == 5.0
        assert args.queue_limit == 32

    def test_serve_scheduler_choices_track_registry(self):
        from repro.sched import available_schedulers

        for name in available_schedulers():
            args = build_parser().parse_args(["serve", "--scheduler", name])
            assert args.scheduler == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheduler", "no-such"])

    def test_serve_backend_choices_track_registry(self):
        from repro.backends import available_backends

        for name in available_backends():
            args = build_parser().parse_args(["serve", "--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "hardware"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "mixed"
        assert args.rate == 200.0
        assert args.duration == 1.0
        assert args.backend == "model"
        assert args.max_batch is None
        assert args.scheduler == "fifo"
        assert args.slo_ms is None
        assert args.queue_limit is None

    def test_hedepth_flags(self):
        args = build_parser().parse_args(
            ["hedepth", "--set", "he-16bit", "--set", "he-29bit",
             "--levels", "2", "--plaintext-modulus", "4", "--seed", "7"]
        )
        assert args.sets == ["he-16bit", "he-29bit"]
        assert args.levels == 2
        assert args.plaintext_modulus == 4
        assert args.seed == 7

    def test_hedepth_defaults_cover_all_sets(self):
        args = build_parser().parse_args(["hedepth"])
        assert args.sets is None  # resolved to all three at run time
        assert args.plaintext_modulus == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hedepth", "--set", "kyber-v1"])

    def test_serve_he_mul_scenario_parses(self):
        args = build_parser().parse_args(["serve", "--scenario", "he-mul"])
        assert args.scenario == "he-mul"

    def test_verify_backend_flag(self):
        args = build_parser().parse_args(["verify", "--backend", "sram"])
        assert args.backend == "sram"

    def test_verify_numpy_backend_flag(self, capsys):
        # numpy is not a backend: the model backend batches on its own.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--backend", "numpy"])
        assert "invalid choice: 'numpy'" in capsys.readouterr().err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCheapCommands:
    def test_fig6(self, capsys):
        main(["fig6"])
        out = capsys.readouterr().out
        assert "A=4, B=3, M=7" in out and "-> 5" in out

    def test_fig7(self, capsys):
        main(["fig7"])
        out = capsys.readouterr().out
        assert "4,288" in out and "RM-NTT" in out

    def test_fig1(self, capsys):
        main(["fig1"])
        out = capsys.readouterr().out
        assert "NTT" in out and "bound by" in out

    def test_verify_small(self, capsys):
        main(["verify", "--trials", "2"])
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_serve_ntt_scenario(self, capsys):
        main(["serve", "--scenario", "ntt", "--rate", "400", "--duration",
              "0.05", "--pool-size", "1", "--seed", "5"])
        out = capsys.readouterr().out
        assert "p50(ms)" in out and "p99(ms)" in out
        assert "engine utilization" in out
        assert "scenario=ntt" in out
        assert "backend=model" in out

    def test_serve_numpy_backend(self, capsys):
        # Rejected by the parser, before any replay runs.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--scenario", "ntt", "--backend", "numpy"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'numpy'" in captured.err
        assert captured.out == ""

    def test_serve_slo_scheduler_with_uniform_deadline(self, capsys):
        # A tight uniform SLO on a bursty ntt trace: the slo scheduler
        # must surface drop/attainment accounting in the report.
        main(["serve", "--scenario", "ntt", "--rate", "800", "--duration",
              "0.05", "--pool-size", "1", "--seed", "5", "--scheduler", "slo",
              "--slo-ms", "2.0", "--queue-limit", "4"])
        out = capsys.readouterr().out
        assert "scheduler=slo" in out
        assert "SLO attainment" in out
        assert "Tenant" in out

    def test_serve_adaptive_scheduler(self, capsys):
        main(["serve", "--scenario", "ntt", "--rate", "400", "--duration",
              "0.05", "--pool-size", "1", "--seed", "5",
              "--scheduler", "adaptive"])
        out = capsys.readouterr().out
        assert "scheduler=adaptive" in out
        assert "p99(ms)" in out

    def test_non_positive_slo_ms_rejected(self, capsys):
        # A sign/units typo must not silently shed 100% of the load.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scenario", "ntt", "--rate", "400",
                  "--duration", "0.05", "--pool-size", "1", "--seed", "5",
                  "--scheduler", "slo", "--slo-ms", "-5"])
        assert excinfo.value.code == 2
        assert "slo_ms must be > 0" in capsys.readouterr().err

    def test_queue_limit_rejected_by_non_slo_scheduler(self, capsys):
        # --queue-limit must not be a silent no-op: a scheduler that
        # never drops rejects it, and the CLI exits with the error.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scenario", "ntt", "--rate", "400",
                  "--duration", "0.05", "--pool-size", "1", "--seed", "5",
                  "--scheduler", "adaptive", "--queue-limit", "8"])
        assert excinfo.value.code == 2
        assert "unknown options" in capsys.readouterr().err

    def test_hedepth_single_level(self, capsys):
        main(["hedepth", "--set", "he-16bit", "--levels", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert "he-16bit" in out and "Budget" in out
        assert "1 multiplicative level(s) within budget" in out

    def test_backends_listing(self, capsys):
        from repro.backends import available_backends

        main(["backends"])
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "model" in out and "sram" in out
        assert "description" in out


class TestObservabilityCli:
    """serve --trace-out/--metrics-out and the trace subcommand."""

    SERVE = ["serve", "--scenario", "ntt", "--rate", "400", "--duration",
             "0.05", "--pool-size", "1", "--seed", "5"]

    def test_trace_command_registered(self):
        args = build_parser().parse_args(["trace", "t.json"])
        assert args.command == "trace"
        assert args.path == "t.json"
        assert args.quantiles is None

    def test_trace_quantile_flag_repeats(self):
        args = build_parser().parse_args(
            ["trace", "t.json", "--quantile", "25", "--quantile", "75"])
        assert args.quantiles == [25.0, 75.0]

    def test_serve_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "--trace-out", "t.json", "--metrics-out", "m.prom"])
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.prom"
        assert build_parser().parse_args(["serve"]).trace_out is None

    def test_serve_help_lists_registry_names(self):
        # The --backend/--scheduler help text must track the registries,
        # not a hand-maintained list.  Promoted into a reusable rule
        # (`repro.cli check registry`, REG001/REG002); this asserts the
        # rule itself finds today's registries clean.
        from repro.check import check_registries

        assert check_registries() == []

    def test_serve_writes_chrome_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        main(self.SERVE + ["--trace-out", str(trace),
                           "--metrics-out", str(prom)])
        out = capsys.readouterr().out
        assert f"trace events to {trace}" in out
        assert f"metric series to {prom}" in out
        doc = json.loads(trace.read_text())
        phases = {e.get("name") for e in doc["traceEvents"]}
        assert "request" in phases  # async request spans present
        text = prom.read_text()
        assert "# TYPE serve_latency_ms histogram" in text

    def test_serve_writes_jsonl_when_asked(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        main(self.SERVE + ["--trace-out", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["phase"] for line in lines)

    def test_trace_summary_end_to_end(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(self.SERVE + ["--trace-out", str(trace)])
        capsys.readouterr()
        main(["trace", str(trace)])
        out = capsys.readouterr().out
        assert "per-stage latency breakdown" in out
        assert "critical path" in out
        for stage in ("admission", "batching", "lane-wait", "service"):
            assert stage in out

    def test_trace_custom_quantiles(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(self.SERVE + ["--trace-out", str(trace)])
        capsys.readouterr()
        main(["trace", str(trace), "--quantile", "10", "--quantile", "90"])
        out = capsys.readouterr().out
        assert "p10" in out and "p90" in out

    def test_trace_rejects_non_trace_file(self, capsys, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text('{"served": 3}')
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(bad)])
        assert excinfo.value.code == 2
        assert "traceEvents" in capsys.readouterr().err

    def test_trace_rejects_missing_file(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2


class TestStreamingCli:
    """serve --slo-policy and the bench compare regression gate."""

    POLICY = ('{"objective": 0.9, "rules": [{"short_s": 0.005, '
              '"long_s": 0.02, "threshold": 2.0, "severity": "page"}]}')

    def test_serve_slo_policy_flag(self):
        args = build_parser().parse_args(["serve", "--slo-policy", "p.json"])
        assert args.slo_policy == "p.json"
        assert build_parser().parse_args(["serve"]).slo_policy is None

    def test_serve_with_slo_policy_reports_alerts(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text(self.POLICY)
        main(["serve", "--scenario", "mixed-slo", "--arrivals", "poisson",
              "--rate", "25000", "--duration", "0.015", "--pool-size", "1",
              "--scheduler", "slo", "--queue-limit", "16", "--seed", "11",
              "--slo-policy", str(policy)])
        out = capsys.readouterr().out
        # The overload must page: the alert section renders with the
        # fired rule and at least one watched tenant.
        assert "SLO alerts:" in out
        assert "5ms/20ms x2" in out

    def test_serve_rejects_bad_policy(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"objective": 2}')
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--duration", "0.01", "--slo-policy", str(bad)])
        assert excinfo.value.code == 2
        assert "objective" in capsys.readouterr().err

    @staticmethod
    def _artifact(path, name, metrics):
        import json

        path.write_text(json.dumps({"schema": 1, "name": name,
                                    "scenario": "s", "git_rev": "x",
                                    "metrics": metrics}))

    def test_bench_compare_ok_exits_zero(self, capsys, tmp_path):
        base, fresh = tmp_path / "b.json", tmp_path / "f.json"
        self._artifact(base, "obs", {"p99_ms": 1.0})
        self._artifact(fresh, "obs", {"p99_ms": 1.01})
        main(["bench", "compare", str(base), str(fresh)])
        assert "1 metric(s) compared" in capsys.readouterr().out

    def test_bench_compare_regression_exits_one(self, capsys, tmp_path):
        base, fresh = tmp_path / "b.json", tmp_path / "f.json"
        self._artifact(base, "obs", {"p99_ms": 1.0})
        self._artifact(fresh, "obs", {"p99_ms": 2.0})
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", str(base), str(fresh)])
        assert excinfo.value.code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_compare_ignore_skips_metric(self, capsys, tmp_path):
        base, fresh = tmp_path / "b.json", tmp_path / "f.json"
        self._artifact(base, "obs", {"wall_s": 1.0})
        self._artifact(fresh, "obs", {"wall_s": 9.0})
        main(["bench", "compare", str(base), str(fresh),
              "--ignore", "wall_s"])
        assert "1 ignored" in capsys.readouterr().out

    def test_bench_compare_missing_path_exits_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", str(tmp_path / "a.json"),
                  str(tmp_path / "b.json")])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err


#: sha256 of the stdout of the commands that print priced programs (Table
#: I, Fig 8a/8b, the phase breakdown).  Their numbers come from
#: ``profile_program``'s cycles and energy bits, so a change that moves
#: a simulated number changes a digest.
PRICED_OUTPUT_SHA256 = {
    "table1": "8b902c725135c9ddd9820e4abea676aec54ecd9401c3500423ea64278253df45",
    "fig8a": "918b29e53679387601c90533ec62ef1897886566cb30b0e075054b91a185ff14",
    "fig8b": "eba4c72f493ca494ce4ee71fef089d8094fae9eb981de45bab1732c3cd0bb31b",
    "breakdown": "70563db5c01389ef41bf320c81f7568ef08b4e5a7a5da2e5866a170b0d9f58be",
}


@pytest.mark.parametrize("command", sorted(PRICED_OUTPUT_SHA256))
def test_priced_output_is_byte_identical(capsys, command):
    main([command])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == PRICED_OUTPUT_SHA256[command]
