"""Windowed time-series recorder: boundaries, budget, zero overhead.

Complements ``tests/test_conformance.py`` (which pins cross-engine
bit-identity of the windows for every registered policy): this file pins
the recorder's own contract — exact window boundaries, sum-of-windows ==
end-of-run aggregates, the fixed ring-buffer budget, the zero-overhead
disabled mode, serialization round-trips, PDP-specific fields, shared-LLC
thread shares, and manifest persistence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.obs.manifest import load_manifests
from repro.obs.timeseries import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_WINDOW_SIZE,
    TIMESERIES_SCHEMA_VERSION,
    Window,
    WindowedRecorder,
    windows_from_payload,
)
from repro.policies.lru import LRUPolicy
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=4)


def _trace(seed: int = 3, n: int = 5000, universe: int = 700) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(rng.integers(0, universe, size=n), name=f"ts-{seed}")


def _windows(result) -> list[Window]:
    """The windows a driver recorded into ``result.extra``."""
    return windows_from_payload(result.extra["timeseries"])


class TestWindowBoundaries:
    def test_exact_boundaries_and_partial_tail(self):
        trace = _trace(n=2500)
        windows = _windows(run_llc(trace, LRUPolicy(), GEOMETRY, window_size=1000))
        assert [(w.start, w.end) for w in windows] == [
            (0, 1000), (1000, 2000), (2000, 2500)
        ]
        assert [w.index for w in windows] == [0, 1, 2]
        assert all(w.accesses == w.end - w.start for w in windows)

    def test_totals_equal_aggregates(self):
        trace = _trace(n=4321)
        # deliberately odd window size
        result = run_llc(trace, LRUPolicy(), GEOMETRY, window_size=997)
        windows = _windows(result)
        for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
            assert sum(getattr(w, field) for w in windows) == getattr(result, field)
        assert sum(
            w.evictions_reused + w.evictions_dead for w in windows
        ) == result.evictions

    @pytest.mark.parametrize("chunk_size", [64, 333, 1000, 4096])
    def test_windows_identical_across_chunk_sizes(self, chunk_size):
        trace = _trace(n=3000)
        baseline = run_llc(trace, LRUPolicy(), GEOMETRY, window_size=512)
        chunked = run_llc(
            TraceStream.from_trace(trace, chunk_size=chunk_size),
            LRUPolicy(),
            GEOMETRY,
            window_size=512,
        )
        assert chunked.extra["timeseries"] == baseline.extra["timeseries"]

    def test_windows_identical_across_engines(self):
        trace = _trace(n=3000)
        payloads = []
        for engine in ("fast", "reference"):
            result = run_llc(trace, LRUPolicy(), GEOMETRY, engine=engine,
                             window_size=777)
            payloads.append(result.extra["timeseries"])
        assert payloads[0] == payloads[1]

    def test_window_size_shorthand(self):
        trace = _trace(n=2000)
        result = run_llc(trace, LRUPolicy(), GEOMETRY, window_size=500)
        payload = result.extra["timeseries"]
        assert payload["windows_closed"] == 4
        assert payload["window_size"] == 500


class TestRingBudget:
    def test_ring_eviction_keeps_last_n(self):
        recorder = WindowedRecorder(window_size=500, max_windows=4)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        recorder.attach(cache)
        for access in _trace(n=5000):
            cache.access(access)
            recorder.advance(1)
        recorder.finalize()
        assert recorder.windows_closed == 10
        assert recorder.windows_dropped == 6
        assert [w.index for w in recorder.windows] == [6, 7, 8, 9]
        payload = recorder.to_dict()
        assert payload["windows_dropped"] == 6
        assert len(payload["windows"]) == 4

    def test_defaults(self):
        recorder = WindowedRecorder()
        assert recorder.window_size == DEFAULT_WINDOW_SIZE
        assert recorder.max_windows == DEFAULT_MAX_WINDOWS

    @pytest.mark.parametrize("kwargs", [
        {"window_size": 0}, {"window_size": -5}, {"max_windows": 0},
    ])
    def test_invalid_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WindowedRecorder(**kwargs)


class TestDisabledMode:
    def test_results_identical_with_and_without_recorder(self):
        trace = _trace(n=2000)
        plain = run_llc(trace, LRUPolicy(), GEOMETRY)
        recorded = run_llc(trace, LRUPolicy(), GEOMETRY, window_size=300)
        for field in ("accesses", "hits", "misses", "bypasses",
                      "evictions", "instructions"):
            assert getattr(recorded, field) == getattr(plain, field)


class TestFeedingProtocol:
    def test_advance_past_boundary_rejected(self):
        recorder = WindowedRecorder(window_size=10)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        recorder.attach(cache)
        recorder.advance(7)
        assert recorder.pending() == 3
        with pytest.raises(ValueError, match="crosses the window boundary"):
            recorder.advance(4)

    def test_finalize_closes_partial_window_once(self):
        recorder = WindowedRecorder(window_size=10)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        recorder.attach(cache)
        recorder.advance(4)
        recorder.finalize()
        recorder.finalize()  # idempotent: nothing further open
        assert [(w.start, w.end) for w in recorder.windows] == [(0, 4)]


class TestSerialization:
    def test_window_round_trip(self):
        window = Window(
            index=2, start=200, end=300, accesses=100, hits=60, misses=40,
            bypasses=5, evictions=30, fills=35, evictions_reused=12,
            evictions_dead=18, pd=48, protected_lines=37,
            thread_accesses=[60, 40],
        )
        assert Window.from_dict(window.to_dict()) == window

    def test_from_dict_ignores_unknown_keys(self):
        data = Window(index=0, start=0, end=10, accesses=10).to_dict()
        data["future_field"] = "whatever"
        window = Window.from_dict(data)
        assert window.end == 10

    def test_to_dict_elides_none_fields(self):
        data = Window(index=0, start=0, end=10).to_dict()
        assert "pd" not in data
        assert "thread_accesses" not in data

    def test_payload_round_trip(self):
        recorder = WindowedRecorder(window_size=400)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        recorder.attach(cache)
        for access in _trace(n=1200):
            cache.access(access)
            recorder.advance(1)
        payload = recorder.to_dict()
        assert payload["schema_version"] == TIMESERIES_SCHEMA_VERSION
        rebuilt = windows_from_payload(payload)
        assert rebuilt == recorder.windows
        assert len(rebuilt) == 3

    def test_windows_from_payload_degrades(self):
        assert windows_from_payload({}) == []
        assert windows_from_payload(None) == []
        assert windows_from_payload({"schema_version": 99}) == []


class TestPDPFields:
    def test_pd_and_protected_lines_recorded(self):
        trace = _trace(n=4000, universe=400)
        result = run_llc(
            trace, PDPPolicy(recompute_interval=1000), GEOMETRY,
            window_size=1000,
        )
        windows = _windows(result)
        assert len(windows) == 4
        assert all(w.pd is not None and w.pd > 0 for w in windows)
        assert all(w.protected_lines is not None for w in windows)
        assert windows[-1].pd == result.extra["final_pd"]

    def test_non_pdp_policy_leaves_fields_none(self):
        windows = _windows(
            run_llc(_trace(n=1000), LRUPolicy(), GEOMETRY, window_size=500)
        )
        assert len(windows) == 2
        assert all(w.pd is None for w in windows)
        assert all(w.protected_lines is None for w in windows)


class TestSharedLLC:
    def _traces(self):
        return [_trace(seed=11, n=2000), _trace(seed=12, n=1200)]

    def test_thread_shares_sum_to_frozen_aggregates(self):
        traces = self._traces()
        result = run_shared_llc(
            traces, LRUPolicy(), GEOMETRY, singles=[1.0, 1.0],
            window_size=700,
        )
        windows = _windows(result)
        for thread, stats in enumerate(result.threads):
            assert sum(w.thread_accesses[thread] for w in windows) == stats.accesses
            assert sum(w.thread_hits[thread] for w in windows) == stats.hits

    def test_shared_windows_identical_across_paths(self):
        traces = self._traces()
        payloads = []
        for kwargs in (
            {"engine": "fast"},
            {"engine": "fast", "chunk_size": 513},
            {"engine": "reference"},
        ):
            result = run_shared_llc(
                traces, LRUPolicy(), GEOMETRY, singles=[1.0, 1.0],
                window_size=617, **kwargs,
            )
            payloads.append(result.extra["timeseries"])
        assert payloads[0] == payloads[1] == payloads[2]


class TestHierarchyAndManifest:
    def test_manifest_persists_windows(self, tmp_path):
        trace = _trace(n=1600)
        run_llc(
            trace, LRUPolicy(), GEOMETRY, window_size=400,
            manifest_dir=tmp_path,
        )
        manifests = load_manifests(tmp_path)
        assert len(manifests) == 1
        payload = manifests[0].timeseries
        assert payload["windows_closed"] == 4
        windows = windows_from_payload(payload)
        assert sum(w.accesses for w in windows) == 1600
