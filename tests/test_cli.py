"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--benchmark", "403.gcc"])
        args.policy == "pdp"


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
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--manifest-dir", "manifests"], ["--progress"], ["--workers", "2"]],
    )
    def test_experiment_rejects_flags_its_driver_ignores(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fig1", "--fast", *flags]) == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} is taken only by fig4, fig10, fig12" in err
        assert not (tmp_path / "manifests").exists()

    def test_experiment_manifest_dir_env_stays_a_silent_default(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        assert main(["experiment", "fig1", "--fast"]) == 0


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
