"""Observability layer: manifests, metrics recording, progress, event log."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.obs.manifest import (
    ENV_MANIFEST_DIR,
    Manifest,
    TaskFailure,
    load_manifests,
    resolve_manifest_dir,
    summarize_manifests,
    trace_fingerprint,
)
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressReporter
from repro.policies.lru import LRUPolicy
from repro.sim.multi_core import run_shared_llc
from repro.sim.parallel import run_matrix
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces

REPO_ROOT = Path(__file__).parent.parent
GEOMETRY = CacheGeometry(num_sets=16, ways=4)


class ExplodingPolicy(LRUPolicy):
    """Raises from inside the simulation — a stand-in for a policy bug."""

    def on_fill(self, set_index, way, access):
        raise RuntimeError("policy exploded")


def _trace(seed: int = 9, n: int = 2000) -> Trace:
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 500, size=n)
    return Trace(addresses, name=f"obs-test-{seed}")


class TestManifest:
    def _rich_manifest(self) -> Manifest:
        return Manifest(
            kind="llc",
            workload="obs-test",
            policy="LRUPolicy",
            label="lru",
            seed=7,
            config={"num_sets": 16, "ways": 4, "line_size": 64},
            trace_fingerprint="abc123",
            git_sha="deadbeef",
            wall_time_s=0.5,
            accesses=2000,
            accesses_per_sec=4000.0,
            stats={"hits": 1200, "misses": 800},
            metrics={"hit_rate": 0.6},
            tasks=[{"key": "lru", "status": "finished"}],
            failures=[
                TaskFailure(
                    key="boom",
                    policy="ExplodingPolicy",
                    workload="obs-test",
                    error_type="RuntimeError",
                    message="policy exploded",
                    traceback_summary="RuntimeError: policy exploded",
                )
            ],
            extra={"note": "round-trip me"},
        )

    def test_save_load_round_trip(self, tmp_path):
        manifest = self._rich_manifest()
        path = manifest.save(tmp_path)
        assert path == tmp_path / f"{manifest.run_id}.json"
        assert Manifest.load(path) == manifest

    def test_saved_file_is_plain_json(self, tmp_path):
        manifest = self._rich_manifest()
        path = manifest.save(tmp_path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == manifest.schema_version
        assert data["failures"][0]["error_type"] == "RuntimeError"
        # no stray temp files left behind by the atomic write
        assert list(tmp_path.glob("*.tmp")) == []

    def test_unknown_fields_survive_in_extra(self, tmp_path):
        manifest = self._rich_manifest()
        data = manifest.to_dict()
        data["from_the_future"] = 42
        rebuilt = Manifest.from_dict(data)
        assert rebuilt.extra["_unknown"] == {"from_the_future": 42}

    def test_load_manifests_sorted_and_tolerant(self, tmp_path):
        first = Manifest(kind="llc", workload="a", policy="p", run_id="00-a")
        second = Manifest(kind="llc", workload="b", policy="p", run_id="00-b")
        second.save(tmp_path)
        first.save(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="junk.json"):
            loaded = load_manifests(tmp_path)
        assert [m.run_id for m in loaded] == ["00-a", "00-b"]

    def test_scan_manifests_reports_skipped_paths(self, tmp_path):
        from repro.obs.manifest import scan_manifests

        good = Manifest(kind="llc", workload="a", policy="p", run_id="00-a")
        good.save(tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "wrong-shape.json").write_text('["a", "list"]')
        report = scan_manifests(tmp_path)
        assert [m.run_id for m in report.manifests] == ["00-a"]
        skipped = {Path(s.path).name: s.error for s in report.skipped}
        assert set(skipped) == {"corrupt.json", "wrong-shape.json"}
        assert all(error for error in skipped.values())

    def test_scan_manifests_missing_dir_is_empty(self, tmp_path):
        from repro.obs.manifest import scan_manifests

        report = scan_manifests(tmp_path / "nope")
        assert report.manifests == [] and report.skipped == []

    def test_summarize_surfaces_skipped_files(self, tmp_path):
        from repro.obs.manifest import scan_manifests

        Manifest(kind="llc", workload="a", policy="p", run_id="00-a").save(tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        report = scan_manifests(tmp_path)
        text = summarize_manifests(report.manifests, skipped=report.skipped)
        assert "WARNING" in text
        assert "corrupt.json" in text
        # without skipped files the warning section is absent
        assert "WARNING" not in summarize_manifests(report.manifests)

    def test_trace_fingerprint_tracks_content(self):
        a, b = _trace(seed=1), _trace(seed=2)
        assert trace_fingerprint(a) == trace_fingerprint(a)
        assert trace_fingerprint(a) != trace_fingerprint(b)

    def test_fingerprint_source_stream_matches_trace(self):
        from repro.obs.manifest import fingerprint_source
        from repro.traces.stream import as_stream

        trace = _trace(seed=3)
        # identical digest for the in-memory trace and any chunking of it
        assert fingerprint_source(trace) == trace_fingerprint(trace)
        for chunk_size in (64, 1000, 5000):
            stream = as_stream(trace, chunk_size=chunk_size)
            assert fingerprint_source(stream) == trace_fingerprint(trace)

    def test_resolve_manifest_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_MANIFEST_DIR, raising=False)
        assert resolve_manifest_dir(None) is None
        assert resolve_manifest_dir(tmp_path) == tmp_path
        monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path / "env"))
        assert resolve_manifest_dir(None) == tmp_path / "env"
        assert resolve_manifest_dir(tmp_path) == tmp_path  # argument wins

    def test_summarize_renders_runs_and_failures(self):
        run = self._rich_manifest()
        run.tasks = []
        sweep = self._rich_manifest()
        sweep.kind = "matrix"
        text = summarize_manifests([run, sweep])
        assert "obs-test" in text
        assert "lru" in text
        assert "FAILED boom" in text
        assert "policy exploded" in text
        assert summarize_manifests([]) == "no manifests found"

    def test_summarize_reports_evictions_and_window_counts(self):
        run = self._rich_manifest()
        run.tasks = []
        run.stats = dict(run.stats, evictions=4321)
        run.timeseries = {"windows_closed": 7, "windows": []}
        text = summarize_manifests([run])
        assert "evics" in text and "windows" in text
        assert "4321" in text
        row = next(line for line in text.splitlines() if "obs-test" in line)
        assert " 7 " in row or row.rstrip().endswith(" 7")

    def test_summarize_shows_the_tier_only_when_it_differs(self):
        run = self._rich_manifest()
        run.tasks = []
        run.engine = "vector"
        rows = {}
        for ran in (None, "vector", "fast"):
            run.engine_ran = ran
            text = summarize_manifests([run])
            rows[ran] = next(line for line in text.splitlines() if "obs-test" in line)
        assert rows[None] == rows["vector"]
        assert "(ran" not in rows[None]
        assert "vector (ran fast)" in rows["fast"]

    def test_summarize_degrades_gracefully_on_old_schema(self):
        """A v1 manifest (no timeseries field) must render with blank
        columns and a version-skew note, not crash."""
        old = self._rich_manifest()
        old.tasks = []
        old.schema_version = 1
        old.timeseries = {}
        old.stats = {}
        text = summarize_manifests([old])
        assert "obs-test" in text
        assert "different schema version" in text

    def test_v1_manifest_file_loads_with_empty_timeseries(self, tmp_path):
        """Round-trip a hand-built v1 document through the loader."""
        manifest = self._rich_manifest()
        manifest.tasks = []
        path = manifest.save(tmp_path)
        data = json.loads(path.read_text())
        data["schema_version"] = 1
        del data["timeseries"]
        path.write_text(json.dumps(data))
        loaded = Manifest.load(path)
        assert loaded.timeseries == {}
        assert loaded.schema_version == 1
        assert "different schema version" in summarize_manifests([loaded])


class TestRunManifests:
    def test_run_llc_emits_manifest(self, tmp_path):
        trace = _trace()
        result = run_llc(
            trace,
            LRUPolicy(),
            GEOMETRY,
            manifest_dir=tmp_path,
            run_label="lru",
            run_meta={"seed": 9, "note": "hello"},
        )
        manifests = load_manifests(tmp_path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.kind == "llc"
        assert manifest.workload == trace.name
        assert manifest.policy == "LRUPolicy"
        assert manifest.label == "lru"
        assert manifest.seed == 9
        assert manifest.extra == {"note": "hello"}
        assert manifest.trace_fingerprint == trace_fingerprint(trace)
        assert manifest.accesses == result.accesses
        assert manifest.stats["misses"] == result.misses
        assert manifest.metrics["hit_rate"] == pytest.approx(result.hit_rate)
        assert manifest.wall_time_s > 0
        assert manifest.accesses_per_sec > 0

    def test_run_llc_without_manifest_dir_writes_nothing(self, tmp_path, monkeypatch):
        # The env default applies only at the CLI layer — the library
        # must not pick it up implicitly.
        monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path))
        run_llc(_trace(), LRUPolicy(), GEOMETRY)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_run_matrix_records_failures_in_sweep_manifest(
        self, tmp_path, max_workers
    ):
        trace = _trace()
        factories = {"boom": ExplodingPolicy, "lru": LRUPolicy}
        with pytest.raises(RuntimeError, match="policy exploded"):
            run_matrix(
                trace,
                factories,
                GEOMETRY,
                max_workers=max_workers,
                manifest_dir=tmp_path,
            )
        sweeps = [m for m in load_manifests(tmp_path) if m.kind == "matrix"]
        assert len(sweeps) == 1
        sweep = sweeps[0]
        statuses = {t["key"]: t["status"] for t in sweep.tasks}
        # the healthy task still ran to completion after the failure
        assert statuses == {"boom": "failed", "lru": "finished"}
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.key == "boom"
        assert failure.policy == "boom"
        assert failure.workload == trace.name
        assert failure.error_type == "RuntimeError"
        assert "policy exploded" in failure.traceback_summary
        # and the healthy cell wrote its per-run manifest
        cells = [m for m in load_manifests(tmp_path) if m.kind == "llc"]
        assert [m.label for m in cells] == ["lru"]


class TestTelemetry:
    """Kernel and driver events land once in the metrics registry that
    ``$REPRO_TELEMETRY`` gates (:data:`repro.obs.metrics.METRICS`)."""

    @pytest.fixture(autouse=True)
    def _clean_metrics(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        yield
        METRICS.enabled = was_enabled
        METRICS.reset()

    def test_fastpath_records_when_enabled(self):
        run_llc(_trace(), LRUPolicy(), GEOMETRY, engine="fast")
        run_llc(_trace(), LRUPolicy(), GEOMETRY)  # default: vector
        snapshot = METRICS.snapshot()
        assert snapshot["counters"]["fastpath.accesses"] == 2000
        assert snapshot["histograms"]["fastpath.run_trace_s"]["count"] == 1
        assert snapshot["counters"]["columnar.accesses"] == 2000
        assert snapshot["histograms"]["columnar.run_trace_s"]["count"] == 1

    def test_shared_fastpath_records_when_enabled(self):
        threads = [_trace(seed=1, n=700), _trace(seed=2, n=500)]
        mixed, _ = interleave_traces(threads)
        run_shared_llc(
            threads, LRUPolicy(), GEOMETRY, singles=[1.0, 1.0], engine="fast"
        )
        snapshot = METRICS.snapshot()
        assert snapshot["histograms"]["fastpath.run_shared_trace_s"]["count"] == 1
        assert snapshot["counters"]["fastpath.accesses"] == len(mixed)
        assert "fastpath.run_trace_s" not in snapshot["histograms"]

    def test_shared_vector_records_when_enabled(self):
        threads = [_trace(seed=1, n=700), _trace(seed=2, n=500)]
        mixed, _ = interleave_traces(threads)
        run_shared_llc(threads, LRUPolicy(), GEOMETRY, singles=[1.0, 1.0])
        snapshot = METRICS.snapshot()
        assert snapshot["histograms"]["columnar.run_shared_trace_s"]["count"] == 1
        assert snapshot["counters"]["columnar.accesses"] == len(mixed)
        assert "fastpath.accesses" not in snapshot["counters"]

    def test_manifest_embeds_telemetry_snapshot(self, tmp_path):
        """The sweep manifest embeds the registry snapshot; per-run
        manifests carry no separate telemetry block."""
        run_matrix(
            _trace(), {"lru": LRUPolicy}, GEOMETRY, max_workers=1,
            manifest_dir=tmp_path,
        )
        manifests = load_manifests(tmp_path)
        sweep = [m for m in manifests if m.kind == "matrix"][0]
        assert sweep.metrics["counters"]["columnar.accesses"] == 2000
        for path in tmp_path.glob("*.json"):
            assert "telemetry" not in json.loads(path.read_text())


class TestProgress:
    def test_event_ordering_and_eta(self):
        events = []
        reporter = ProgressReporter(total=2, on_event=events.append)
        reporter.started("a")
        reporter.finished("a")
        reporter.started("b")
        reporter.failed("b", RuntimeError("nope"))
        assert [(e.kind, e.key) for e in events] == [
            ("started", "a"),
            ("finished", "a"),
            ("started", "b"),
            ("failed", "b"),
        ]
        assert events[0].eta_s is None  # nothing completed yet
        assert events[2].eta_s is not None  # one of two done: extrapolate
        assert events[-1].done == 2
        assert events[-1].error == "RuntimeError: nope"
        assert reporter.finished_count == 1
        assert reporter.failed_count == 1

    def test_reporter_without_callback_keeps_counts(self):
        reporter = ProgressReporter(total=1)
        event = reporter.finished("only")
        assert event.done == 1
        assert reporter.done == 1


class TestDocstringGate:
    def test_gated_packages_meet_threshold(self):
        """The CI docstring gate must hold on the observability and sim
        layers (tools/check_docstrings.py, >= 90%)."""
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_docstrings.py"),
                "--fail-under",
                "90",
                str(REPO_ROOT / "src" / "repro" / "obs"),
                str(REPO_ROOT / "src" / "repro" / "sim"),
                str(REPO_ROOT / "tools" / "bench_regress.py"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "PASSED" in result.stdout

    def test_obs_package_fully_documented(self):
        """``repro.obs`` is held to 100% — it is the documented API
        surface of the observability layer."""
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_docstrings.py"),
                "--fail-under",
                "100",
                str(REPO_ROOT / "src" / "repro" / "obs"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
