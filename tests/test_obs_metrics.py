"""Live metrics registry and span tracer: the PR's observability core.

Pins the two load-bearing registry properties — the zero-cost disabled
path and lossless sharded merging (the hypothesis property test drives
random operation streams through sharded and unsharded registries and
requires identical state) — plus the Prometheus renderer, quantile
estimation, span-tree round-trip with critical-path marking, and the
torn-final-line tolerance of every JSONL log reader.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.fastpath import run_trace
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    ENV_TELEMETRY,
    METRICS,
    NUM_BUCKETS,
    MetricsRegistry,
    bucket_index,
    histogram_percentiles,
    histogram_quantile,
    render_prometheus,
)
from repro.obs.spans import (
    NULL_ACTIVE_SPAN,
    SPANS_FILENAME,
    SpanTracer,
    current_span_ids,
    read_jsonl,
    read_spans,
    render_span_tree,
)
from repro.policies.base import make_policy
from repro.traces.trace import Trace

REPO_ROOT = Path(__file__).parent.parent


class TestBuckets:
    def test_edges_land_in_expected_buckets(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0  # clock warts clamp low
        assert bucket_index(BUCKET_BOUNDS[0]) == 0
        # an exact power of two sits at the top of its own bucket
        assert bucket_index(1.0) == BUCKET_BOUNDS.index(1.0)
        assert bucket_index(1.0000001) == BUCKET_BOUNDS.index(1.0) + 1
        assert bucket_index(float(BUCKET_BOUNDS[-1])) == NUM_BUCKETS - 2
        assert bucket_index(1e9) == NUM_BUCKETS - 1  # +Inf overflow

    def test_every_bound_is_its_buckets_top(self):
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i
            assert bucket_index(bound * 1.01) == min(i + 1, NUM_BUCKETS - 1)


class TestRegistryBasics:
    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 0.5)
        assert reg.counters == {} and reg.gauges == {} and reg.histograms == {}
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_accumulates_and_snapshots(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("cells", 3)
        reg.inc("cells")
        reg.gauge("depth", 2.0)
        reg.gauge("depth", 5.0)
        reg.observe("lat", 0.25)
        reg.observe("lat", 0.75)
        snap = reg.snapshot()
        assert snap["counters"] == {"cells": 4}
        assert snap["gauges"] == {"depth": 5.0}
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(1.0)
        assert hist["min"] == 0.25 and hist["max"] == 0.75
        assert sum(hist["buckets"].values()) == 2

    def test_reset_drops_state_but_keeps_enabled(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("c")
        reg.observe("h", 0.1)
        reg.reset()
        assert reg.enabled
        assert reg.counters == {} and reg.histograms == {}

    def test_merge_into_disabled_registry_still_works(self):
        # merging is aggregation, not recording: the parent may have its
        # registry disabled while pool workers had theirs enabled
        source = MetricsRegistry(enabled=True)
        source.inc("c", 2)
        source.observe("h", 0.5)
        parent = MetricsRegistry(enabled=False)
        parent.merge_snapshot(source.snapshot())
        assert parent.counters == {"c": 2}
        assert parent.histograms["h"][0] == 1


class TestEnvGate:
    """``$REPRO_TELEMETRY`` is the one switch for the default registry:
    any non-blank value enables :data:`METRICS` at import."""

    @staticmethod
    def _enabled_at_import(value: str | None) -> bool:
        env = {k: v for k, v in os.environ.items() if k != ENV_TELEMETRY}
        if value is not None:
            env[ENV_TELEMETRY] = value
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs.metrics import METRICS; print(METRICS.enabled)"],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() == "True"

    def test_set_enables(self):
        assert ENV_TELEMETRY == "REPRO_TELEMETRY"
        assert self._enabled_at_import("1")

    @pytest.mark.parametrize("value", [None, "", "   "])
    def test_unset_or_blank_disables(self, value):
        assert not self._enabled_at_import(value)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "gauge", "observe"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(
            min_value=1e-7, max_value=500.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=0,
    max_size=60,
)


def _apply(registry: MetricsRegistry, ops) -> None:
    for kind, name, value in ops:
        if kind == "inc":
            registry.inc(name, int(value) + 1)
        elif kind == "gauge":
            registry.gauge(name, value)
        else:
            registry.observe(name, value)


class TestShardedMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, num_shards=st.integers(min_value=1, max_value=5))
    def test_sharded_merge_equals_unsharded(self, ops, num_shards):
        """Splitting an op stream into contiguous shards and merging the
        shard snapshots in order must reproduce the unsharded registry:
        counters and histogram buckets sum exactly, gauges keep the
        globally-last write, min/max survive the merge."""
        whole = MetricsRegistry(enabled=True)
        _apply(whole, ops)

        merged = MetricsRegistry(enabled=True)
        per_shard = max(1, math.ceil(len(ops) / num_shards)) if ops else 1
        for start in range(0, len(ops), per_shard):
            shard = MetricsRegistry(enabled=True)
            _apply(shard, ops[start:start + per_shard])
            merged.merge_snapshot(shard.snapshot())

        want, got = whole.snapshot(), merged.snapshot()
        assert got["counters"] == want["counters"]
        assert got["gauges"] == want["gauges"]
        assert got["histograms"].keys() == want["histograms"].keys()
        for name, hist in want["histograms"].items():
            other = got["histograms"][name]
            assert other["count"] == hist["count"]
            assert other["buckets"] == hist["buckets"]
            assert other["min"] == hist["min"]
            assert other["max"] == hist["max"]
            # totals are float sums: association differs across shards
            assert other["total"] == pytest.approx(hist["total"])


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        empty = {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                 "buckets": {}}
        assert histogram_quantile(empty, 0.5) is None
        summary = histogram_percentiles(empty)
        assert summary == {"count": 0, "mean": None, "p50": None,
                           "p90": None, "p99": None}

    def test_single_observation_reports_itself(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("h", 0.125)
        hist = reg.snapshot()["histograms"]["h"]
        for q in (0.01, 0.5, 0.99):
            assert histogram_quantile(hist, q) == pytest.approx(0.125)

    def test_quantiles_are_ordered_and_clamped(self):
        reg = MetricsRegistry(enabled=True)
        rng = np.random.default_rng(7)
        values = rng.uniform(0.001, 0.2, size=500)
        for value in values.tolist():
            reg.observe("h", value)
        hist = reg.snapshot()["histograms"]["h"]
        summary = histogram_percentiles(hist)
        assert summary["count"] == 500
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert hist["min"] <= summary["p50"] <= hist["max"]
        assert summary["p99"] <= hist["max"]
        # the log2-bucket estimate of the median lands within the
        # containing bucket of the true median (factor-of-two bound)
        true_median = float(np.median(values))
        assert summary["p50"] <= true_median * 2.0
        assert summary["p50"] >= true_median / 2.0


class TestPrometheusRender:
    def test_renders_valid_text_exposition(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("grid.cells_done", 5)
        reg.gauge("service.queue_depth", 2.0)
        reg.observe("grid.cell_runtime_s", 0.03)
        reg.observe("grid.cell_runtime_s", 0.07)
        text = render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_grid_cells_done counter" in lines
        assert "repro_grid_cells_done 5" in lines
        assert "# TYPE repro_service_queue_depth gauge" in lines
        assert "# TYPE repro_grid_cell_runtime_s histogram" in lines
        assert 'repro_grid_cell_runtime_s_bucket{le="+Inf"} 2' in lines
        assert "repro_grid_cell_runtime_s_count 2" in lines
        # cumulative bucket counts are monotonically non-decreasing
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_grid_cell_runtime_s_bucket")
        ]
        assert counts == sorted(counts) and counts[-1] == 2

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == ""


class TestDisabledOverhead:
    def test_disabled_calls_touch_no_state_and_stay_cheap(self):
        reg = MetricsRegistry(enabled=False)
        start = perf_counter()
        for _ in range(10_000):
            reg.observe("h", 0.001)
            reg.inc("c")
        elapsed = perf_counter() - start
        assert reg.histograms == {} and reg.counters == {}
        # one attribute test + return; 5 us/call is an absurdly generous
        # ceiling that still catches an accidentally-enabled hot path
        assert elapsed < 0.1

    def test_engine_ab_disabled_not_slower_than_enabled(self):
        """Interleaved A/B on the fastpath engine: with the metrics
        registry disabled the run must not be materially slower than with
        it enabled (the gating check is the only extra work). Disabled
        and enabled runs alternate, so host speed drift lands on both
        sides equally; each side keeps its fastest run."""
        rng = np.random.default_rng(3)
        trace = Trace(rng.integers(0, 4096, size=20_000), name="ab")
        geometry = CacheGeometry(num_sets=32, ways=4)

        def once() -> float:
            cache = SetAssociativeCache(geometry, make_policy("lru"))
            start = perf_counter()
            run_trace(cache, trace)
            return perf_counter() - start

        was_enabled = METRICS.enabled
        disabled, enabled = [], []
        try:
            METRICS.disable()
            once()  # warm caches
            for _ in range(7):
                METRICS.disable()
                disabled.append(once())
                METRICS.enable()
                enabled.append(once())
        finally:
            METRICS.enabled = was_enabled
        # loose 25% margin: the point is catching gross gating mistakes,
        # not micro-benchmarking in a shared CI runner
        assert min(disabled) <= min(enabled) * 1.25


class TestSpans:
    def test_disabled_tracer_is_inert_singleton(self, tmp_path):
        tracer = SpanTracer.for_dir(None)
        assert not tracer.enabled
        span = tracer.span("nothing", key="value")
        assert span is NULL_ACTIVE_SPAN
        with span as active:
            active.set("still", "no-op")
            assert current_span_ids() is None
        assert tracer.start("cell:a", 0.0) is None
        tracer.finish(None, 1.0, {"status": "finished"})
        tracer.close()
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_emit_parse_render(self, tmp_path):
        with SpanTracer.for_dir(tmp_path) as tracer:
            with tracer.span("job", kind="matrix") as job:
                assert current_span_ids() is not None
                with tracer.span("resume-scan") as scan:
                    scan.set("skipped", 3)
                with tracer.span("run-grid"):
                    tracer.emit("cell:lru", 0.0, 0.5,
                                {"status": "ok", "runtime_s": 0.5})
                    tracer.emit("cell:pdp", 0.0, 0.1,
                                {"status": "ok", "runtime_s": 0.1})
                job.set("state", "done")
            assert current_span_ids() is None

        spans = read_spans(tmp_path / SPANS_FILENAME)
        assert [s["name"] for s in spans] == [
            "resume-scan", "cell:lru", "cell:pdp", "run-grid", "job",
        ]
        by_name = {s["name"]: s for s in spans}
        assert len({s["trace_id"] for s in spans}) == 1
        assert by_name["job"]["parent_id"] is None
        assert by_name["resume-scan"]["parent_id"] == by_name["job"]["span_id"]
        assert by_name["cell:lru"]["parent_id"] == by_name["run-grid"]["span_id"]
        assert by_name["job"]["attributes"]["state"] == "done"
        assert by_name["resume-scan"]["attributes"]["skipped"] == 3

        text = render_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("job")
        # the critical path runs job -> run-grid -> cell:lru (the
        # longest-duration child at each level)
        assert any("job" in ln and ln.endswith("*") for ln in lines)
        assert any("run-grid" in ln and ln.endswith("*") for ln in lines)
        assert any("cell:lru" in ln and ln.endswith("*") for ln in lines)
        assert not any("cell:pdp" in ln and ln.endswith("*") for ln in lines)
        assert any("[ok]" in ln for ln in lines)
        assert "5 spans, 1 root(s); * = critical path" in text

    def test_exception_in_span_records_error_attribute(self, tmp_path):
        tracer = SpanTracer.for_dir(tmp_path)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        tracer.close()
        (span,) = read_spans(tmp_path / SPANS_FILENAME)
        assert span["attributes"]["error"] == "ValueError"

    def test_render_empty(self):
        assert render_span_tree([]) == "(no spans recorded)\n"

    def test_open_record_until_finished(self, tmp_path):
        """A started span is on disk before it ends; its close record
        replaces the open one, and one never finished stays open."""
        path = tmp_path / SPANS_FILENAME
        with SpanTracer(path) as tracer:
            with tracer.span("grid"):
                done = tracer.start("cell:a", 0.0)
                running = tracer.start("cell:b", 0.1)
                assert running["span_id"] != done["span_id"]
                (grid, a, b) = read_spans(path)
                assert [grid["name"], a["name"], b["name"]] == [
                    "grid", "cell:a", "cell:b",
                ]
                assert grid["duration_s"] is a["duration_s"] is None
                tracer.finish(done, 0.4, {"status": "finished"})
        assert len(path.read_text().splitlines()) == 5
        by_name = {s["name"]: s for s in read_spans(path)}
        assert sorted(by_name) == ["cell:a", "cell:b", "grid"]
        assert by_name["cell:a"]["span_id"] == done["span_id"]
        assert by_name["cell:a"]["duration_s"] == 0.4
        assert by_name["cell:b"]["duration_s"] is None
        lines = render_span_tree(list(by_name.values())).splitlines()
        assert any("cell:b  [open]" in ln for ln in lines)
        # an open span counts as 0 s: the finished sibling is critical
        assert any("cell:a" in ln and ln.endswith("*") for ln in lines)
        assert not any("cell:b" in ln and ln.endswith("*") for ln in lines)


class TestTornLineTolerance:
    def _lines(self, n: int) -> list[str]:
        return [
            json.dumps({"name": f"cell:k{i}", "span_id": f"s{i}",
                        "duration_s": 0.5})
            for i in range(n)
        ]

    def test_torn_final_line_warns_and_skips(self, tmp_path):
        log = tmp_path / SPANS_FILENAME
        log.write_text("\n".join(self._lines(2)) + '\n{"name": "cell:k')
        with pytest.warns(RuntimeWarning, match="torn final line"):
            spans = read_spans(log)
        assert [s["name"] for s in spans] == ["cell:k0", "cell:k1"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        log = tmp_path / SPANS_FILENAME
        lines = self._lines(2)
        log.write_text(lines[0] + "\n{broken\n" + lines[1] + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_spans(log)

    def test_clean_file_reads_without_warning(self, tmp_path):
        import warnings

        log = tmp_path / "spans.jsonl"
        log.write_text("\n".join(self._lines(3)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_jsonl(log, what="span log")) == 3
