"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--benchmark", "403.gcc"])
        assert args.policy == "pdp"


class TestCommands:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "436.cactusADM" in out
        assert "pc-misleading" in out  # h264ref/xalancbmk flagged

    def test_list_policies(self, capsys):
        assert main(["list-policies"]) == 0
        out = capsys.readouterr().out
        for name in ("lru", "dip", "drrip", "pdp"):
            assert name in out

    def test_run_pdp(self, capsys):
        code = main(
            ["run", "--benchmark", "473.astar", "--policy", "pdp", "--length", "4000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "final PD" in out

    def test_run_registered_policy(self, capsys):
        code = main(
            ["run", "--benchmark", "473.astar", "--policy", "lru", "--length", "4000"]
        )
        assert code == 0
        assert "MPKI" in capsys.readouterr().out

    def test_run_belady(self, capsys):
        code = main(
            ["run", "--benchmark", "473.astar", "--policy", "belady", "--length", "3000"]
        )
        assert code == 0

    def test_rdd(self, capsys):
        assert main(["rdd", "--benchmark", "450.soplex", "--length", "5000"]) == 0
        out = capsys.readouterr().out
        assert "RDD of 450.soplex" in out

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--benchmark",
                "473.astar",
                "--length",
                "4000",
                "--step",
                "120",
            ]
        )
        assert code == 0
        assert "best" in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "PDP-3" in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig99"])
        assert exc.value.code == 2
        assert "'fig99'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            # A driver, then a flag that driver does not read.
            ["fig1", "--manifest-dir", "manifests"],
            ["fig1", "--progress"],
            ["fig1", "--workers", "2"],
            ["fig10", "--engine", "reference"],
            ["fig4", "--mixes", "9"],
            ["fig1", "--trace-file", "/nonexistent.trz"],
            ["fig2", "--accesses", "1000"],
            ["fig12", "--capacity-mb", "1"],
            ["fig5", "--ttl-ms", "10"],
            ["fig6", "--policies", "lru"],
            ["fig9", "--seed", "3"],
            ["prefetch", "--window-size", "64"],
            ["fig12", "--fast"],
        ],
    )
    def test_experiment_rejects_flags_its_driver_ignores(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        monkeypatch.chdir(tmp_path)
        driver, *rejected = flags
        with pytest.raises(SystemExit) as exc:
            main(["experiment", driver, *rejected])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(rejected)}" in err
        assert not (tmp_path / "manifests").exists()

    def test_experiment_manifest_dir_env_stays_a_silent_default(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        assert main(["experiment", "fig1", "--fast"]) == 0

    @pytest.mark.parametrize(
        "argv, known",
        [
            (["run", "--benchmark", "nope"], "benchmark 'nope'; known: 403.gcc,"),
            (["sweep", "--benchmark", "nope"], "benchmark 'nope'; known: 403.gcc,"),
            (["rdd", "--benchmark", "nope"], "benchmark 'nope'; known: 403.gcc,"),
            (["explore", "--benchmark", "nope"], "benchmark 'nope'; known: 403.gcc,"),
            (["run", "--benchmark", "473.astar", "--policy", "nope"],
             "policy 'nope'; known: belady, bip,"),
        ],
    )
    def test_unknown_name_is_a_usage_error(self, capsys, argv, known):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--length", "1000"])
        assert exc.value.code == 2
        assert f"unknown {known}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "--benchmark", "473.astar", "--sets", "16,x"],
            ["explore", "--benchmark", "473.astar", "--ways", "4,x"],
            ["submit", "--kind", "predict", "--benchmark", "473.astar",
             "--explore-sets", "16,x"],
            ["submit", "--kind", "predict", "--benchmark", "473.astar",
             "--explore-ways", "4,x"],
        ],
    )
    def test_malformed_int_list_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--length", "1000"])
        assert exc.value.code == 2
        assert f"not a comma-separated list of integers: '{argv[-1]}'" in (
            capsys.readouterr().err
        )

    def test_malformed_policy_kwargs_is_an_invalid_spec(self, capsys, tmp_path):
        code = main(["submit", "--root", str(tmp_path), "--benchmark",
                     "473.astar", "--policy", "p=pdp:{bad"])
        assert code == 2
        assert "invalid spec: --policy 'p=pdp:{bad': bad kwargs JSON" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{bad", "--spec-file {}: Expecting property name"),
            ("5", "a spec is a JSON object, got int"),
        ],
    )
    def test_malformed_spec_file_is_an_invalid_spec(
        self, capsys, tmp_path, content, message
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(content)
        code = main(["submit", "--root", str(tmp_path), "--spec-file",
                     str(spec_file)])
        assert code == 2
        assert f"invalid spec: {message.format(spec_file)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["sweep"],
            ["explore"],
            ["experiment", "objectstore"],
        ],
    )
    def test_missing_trace_file_is_a_usage_error(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.trz"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trace-file", str(missing)])
        assert exc.value.code == 2
        assert f"trace file not found: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "explore"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--benchmark", "473.astar", "--trace-file", "x.trz"],
             "argument --trace-file: not allowed with argument --benchmark"),
            ([], "one of the arguments --benchmark --trace-file is required"),
        ],
    )
    def test_workload_source_is_exactly_one_flag(
        self, capsys, command, flags, message
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestObservability:
    def test_sweep_progress_and_manifests(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--benchmark",
                "473.astar",
                "--length",
                "4000",
                "--step",
                "120",
                "--progress",
                "--manifest-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "best" in captured.out
        assert "[sweep]" in captured.err  # progress lines on stderr
        assert "finished" in captured.err
        assert list(tmp_path.glob("*.json"))
        assert (tmp_path / "spans.jsonl").exists()
        assert not (tmp_path / "events.jsonl").exists()

    def test_obs_summarize_round_trip(self, capsys, tmp_path):
        assert (
            main(
                [
                    "run",
                    "--benchmark",
                    "473.astar",
                    "--policy",
                    "lru",
                    "--length",
                    "4000",
                    "--manifest-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summarize", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "473.astar" in out
        assert "lru" in out

    def test_obs_summarize_empty_dir(self, capsys, tmp_path):
        assert main(["obs", "summarize", str(tmp_path)]) == 1
        assert "no manifests" in capsys.readouterr().err

    def test_manifest_dir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        code = main(
            ["run", "--benchmark", "473.astar", "--policy", "lru", "--length", "4000"]
        )
        assert code == 0
        assert list(tmp_path.glob("*.json"))

    def test_obs_trace_renders_span_tree(self, capsys, tmp_path):
        from repro.obs.spans import SpanTracer

        with SpanTracer.for_dir(tmp_path) as tracer:
            with tracer.span("job"):
                with tracer.span("run-grid"):
                    pass
        assert main(["obs", "trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "job" in out and "run-grid" in out
        assert "critical path" in out

    def test_obs_trace_missing_log(self, capsys, tmp_path):
        assert main(["obs", "trace", str(tmp_path)]) == 1
        assert "no span log" in capsys.readouterr().err

    def test_top_and_scrape_need_a_daemon(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_ROOT", raising=False)
        # no --root and no env → usage error before any socket I/O
        with pytest.raises(SystemExit, match="--root"):
            main(["top", "--once"])
        # a root without a live daemon → clean failure, not a traceback
        assert main(["top", "--root", str(tmp_path), "--once"]) == 1
        assert "top failed" in capsys.readouterr().err
        assert main(["obs", "scrape", "--root", str(tmp_path), "--prom"]) == 1
        assert "scrape failed" in capsys.readouterr().err
