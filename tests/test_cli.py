"""Unit tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "cos"])
        args_dict = vars(args)
        assert args_dict["bits"] == 10
        assert args_dict["architecture"] == "bto-normal-nd"
        assert args_dict["algorithm"] == "bs-sa"

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "fft"])

    def test_jobs_defaults_to_none_for_cpu_count(self):
        args = build_parser().parse_args(
            ["run", "table2", "--dir", "/tmp/c"]
        )
        assert args.jobs is None

    def test_jobs_zero_rejected_with_clear_error(self, capsys):
        for argv in (
            ["run", "table2", "--dir", "/tmp/c", "--jobs", "0"],
            ["resume", "/tmp/c", "--jobs", "-2"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "must be >= 1" in capsys.readouterr().err

    def test_backend_flag_rejected_by_run_and_resume(self, capsys):
        """Campaigns and the daemon share one transport, the warm pool;
        no command takes --backend (``serve`` included)."""
        for argv in (
            ["run", "table2", "--dir", "/tmp/c", "--backend", "pool"],
            ["resume", "/tmp/c", "--backend", "spawn"],
            ["serve", "--backend", "inline"],
            ["serve", "--backend", "pool"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "brent-kung" in out
        assert "Table I" in out

    def test_compile_save_info_roundtrip(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        rtl_path = tmp_path / "design.v"
        assert (
            main(
                [
                    "compile",
                    "cos",
                    "--bits",
                    "8",
                    "--budget",
                    "fast",
                    "--save",
                    str(config_path),
                    "--verilog",
                    str(rtl_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MED:" in out
        payload = json.loads(config_path.read_text())
        assert payload["format"] == "repro-approx-lut"
        assert "module" in rtl_path.read_text()

        assert main(["info", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "repro-approx-lut" in out
        assert "modes:" in out

    def test_compile_dalta_algorithm(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "multiplier",
                    "--bits",
                    "6",
                    "--budget",
                    "fast",
                    "--algorithm",
                    "dalta",
                    "--architecture",
                    "dalta",
                ]
            )
            == 0
        )
        assert "modes: {'normal'" in capsys.readouterr().out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "smoke"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_table2_smoke(self, capsys):
        assert main(["experiment", "table2", "--scale", "smoke"]) == 0
        assert "GEOMEAN" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_trace_writes_jsonl_and_manifest(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "experiment",
                    "table2",
                    "--scale",
                    "smoke",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Phase timings" in out
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        kinds = {r["type"] for r in records}
        assert {"span", "event", "counters", "manifest"} <= kinds
        manifest = [r for r in records if r["type"] == "manifest"][0]
        assert manifest["seeds"], "spawned seeds must be recorded"
        assert "bssa.run" in manifest["phase_timings"]

    def test_summarize_command(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "compile",
                    "cos",
                    "--bits",
                    "8",
                    "--budget",
                    "fast",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "opt.for_part" in out

    def test_verbose_flag_parses(self, capsys):
        assert main(["list", "--verbose"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestExperimentCommands:
    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_experiment_shared_bits(self, capsys):
        assert main(["experiment", "shared-bits", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Shared-bits study" in out


class TestCampaignCommands:
    """`repro run` / `resume` / `status` — the checkpointed engine CLI."""

    def test_run_status_resume_roundtrip(self, capsys, tmp_path):
        campaign = str(tmp_path / "campaign")
        assert main(
            ["run", "table2", "--dir", campaign, "--scale", "smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "0 quarantined" in out

        assert main(["status", campaign]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "pending" in out

        assert main(["resume", campaign]) == 0
        out = capsys.readouterr().out
        assert "8 resumed" in out and "0 executed" in out

    def test_resume_accepts_a_manifest_recording_a_backend(
        self, capsys, tmp_path
    ):
        """Campaign dirs written while ``--backend`` (and the engine's
        ``backoff_base``/``poll_interval`` fields) existed still resume."""
        campaign = tmp_path / "campaign"
        assert main(
            ["run", "table2", "--dir", str(campaign), "--scale", "smoke"]
        ) == 0
        manifest_path = campaign / "campaign.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["engine"].update(
            backend="spawn", backoff_base=0.0, poll_interval=0.02
        )
        manifest_path.write_text(json.dumps(manifest))
        (campaign / "jobs" / "job-00000.json").unlink()
        capsys.readouterr()

        assert main(["resume", str(campaign)]) == 0
        assert "7 resumed" in capsys.readouterr().out

    def test_status_on_missing_campaign(self, capsys, tmp_path):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "no campaign found" in capsys.readouterr().err

    def test_resume_on_missing_campaign(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path / "nope")]) == 2
        assert "no campaign found" in capsys.readouterr().err

    def test_run_exit_3_on_quarantine(self, capsys, tmp_path, monkeypatch):
        from repro.faults import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "crash@0#*")
        campaign = str(tmp_path / "campaign")
        assert main(
            [
                "run", "table2", "--dir", campaign,
                "--scale", "smoke", "--retries", "0",
            ]
        ) == 3
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "worker-exit" in captured.err

        # the poison job heals once the fault plan is lifted
        monkeypatch.delenv(ENV_VAR)
        assert main(["resume", campaign]) == 0
        assert "0 quarantined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "plan, message",
        [
            ("kill-shard@1", "error: unknown fault kind 'kill-shard'"),
            ("stale-lease@0", "error: unknown fault kind 'stale-lease'"),
            ("bogus@1", "error: unknown fault kind 'bogus'"),
            ("crash@x", "error: bad fault spec 'crash@x'"),
        ],
    )
    def test_bad_fault_plan_is_a_config_error(
        self, capsys, tmp_path, monkeypatch, plan, message
    ):
        from repro.faults import ENV_VAR

        campaign = tmp_path / "campaign"
        assert main(
            ["run", "table2", "--dir", str(campaign), "--scale", "smoke"]
        ) == 0
        (campaign / "jobs" / "job-00000.json").unlink()
        capsys.readouterr()

        monkeypatch.setenv(ENV_VAR, plan)
        fresh = tmp_path / "fresh"
        assert main(
            ["run", "table2", "--dir", str(fresh), "--scale", "smoke"]
        ) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not fresh.exists()  # rejected before any work started
        assert main(["resume", str(campaign)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (campaign / "jobs" / "job-00000.json").exists()

    def test_sharding_options_are_gone(self, capsys):
        for argv in (
            ["run", "table2", "--dir", "/tmp/c", "--shard", "0/2"],
            ["run", "table2", "--dir", "/tmp/c", "--store", "shared"],
            ["resume", "/tmp/c", "--lease-ttl", "5"],
            ["merge-campaign", "/tmp/a", "--into", "/tmp/b"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        help_text = capsys.readouterr().out
        assert "--jobs" in help_text
        for flag in ("--shard", "--store", "--lease-ttl"):
            assert flag not in help_text


class TestMetricsCli:
    """`--metrics-port`, `repro top`, and `repro summarize` on a non-trace."""

    def test_metrics_port_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "table2", "--dir", "/tmp/c", "--metrics-port", "9640"]
        )
        assert args.metrics_port == 9640
        assert build_parser().parse_args(
            ["run", "table2", "--dir", "/tmp/c"]
        ).metrics_port is None

    def test_run_with_metrics_port_announces_endpoint(
        self, capsys, tmp_path
    ):
        assert main(
            [
                "run", "table2", "--dir", str(tmp_path / "camp"),
                "--scale", "smoke",
                "--jobs", "1", "--metrics-port", "0",
            ]
        ) == 0
        assert "live metrics: http://127.0.0.1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps({"protocol": "table2", "meds": []}, indent=2).encode(),
            b"[1, 2]\n",
            b"[" * 100_000 + b"\n",
            b"\xff\xfe\x00binary\n",
        ],
        ids=["whole-file-document", "non-object-line", "deeply-nested", "binary"],
    )
    def test_summarize_rejects_a_file_that_is_not_a_trace(
        self, capsys, tmp_path, content
    ):
        path = tmp_path / "expected.json"
        path.write_bytes(content)
        assert main(["summarize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} is not a JSONL telemetry trace\n"
        assert captured.out == ""

    def test_top_once_renders_a_frame(self, capsys):
        from repro.obs import exposition

        hub = exposition.MetricsHub()
        hub.campaign_update(state="running", total=8, done=2, running=1)
        with exposition.MetricsServer(hub, port=0) as server:
            assert main(
                ["top", f"{server.host}:{server.port}", "--once"]
            ) == 0
        out = capsys.readouterr().out
        assert "2/8 done" in out

    def test_top_unreachable_endpoint_is_an_error(self, capsys):
        assert main(["top", "127.0.0.1:1", "--once"]) == 2
        assert "cannot reach" in capsys.readouterr().err
