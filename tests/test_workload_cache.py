"""Deterministic trace cache: byte-identity, keying, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.trace import Trace
from repro.workloads.cache import (
    ENV_TRACE_CACHE_DIR,
    cached_trace,
    trace_cache_dir,
    trace_cache_key,
)
from repro.workloads.spec_like import make_benchmark_trace

BENCH = "403.gcc"
PARAMS = {"length": 4000, "num_sets": 16}


def _columns(trace: Trace):
    return (trace.addresses, trace.pcs, trace.thread_ids)


def test_cached_trace_is_byte_identical_to_fresh(tmp_path):
    fresh = make_benchmark_trace(BENCH, **PARAMS)
    stored = make_benchmark_trace(BENCH, **PARAMS, cache_dir=tmp_path)
    loaded = make_benchmark_trace(BENCH, **PARAMS, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("*.trz"))) == 1
    for a, b, c in zip(_columns(fresh), _columns(stored), _columns(loaded)):
        assert a.dtype == b.dtype == c.dtype == np.int64
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_cache_hit_skips_generation(tmp_path):
    calls = []

    def produce() -> Trace:
        calls.append(1)
        return Trace([1, 2, 3], name="t")

    for _ in range(3):
        cached_trace("gen", {"n": 3}, 0, produce, directory=tmp_path)
    assert len(calls) == 1


def test_no_directory_disables_caching(monkeypatch):
    monkeypatch.delenv(ENV_TRACE_CACHE_DIR, raising=False)
    calls = []

    def produce() -> Trace:
        calls.append(1)
        return Trace([1, 2, 3], name="t")

    for _ in range(2):
        cached_trace("gen", {"n": 3}, 0, produce)
    assert len(calls) == 2


def test_env_var_enables_caching(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_TRACE_CACHE_DIR, str(tmp_path))
    assert trace_cache_dir() == tmp_path
    make_benchmark_trace(BENCH, **PARAMS)
    assert len(list(tmp_path.glob("*.trz"))) == 1


def test_key_includes_generator_version_and_params():
    base = trace_cache_key("gen", 1, {"n": 3}, 0)
    assert base == trace_cache_key("gen", 1, {"n": 3}, 0)  # stable
    assert base != trace_cache_key("gen", 2, {"n": 3}, 0)  # version bump
    assert base != trace_cache_key("gen", 1, {"n": 4}, 0)  # params
    assert base != trace_cache_key("gen", 1, {"n": 3}, 1)  # seed
    assert base != trace_cache_key("other", 1, {"n": 3}, 0)  # generator


def test_version_bump_invalidates_entry(tmp_path):
    make = lambda: Trace([1, 2, 3], name="t")  # noqa: E731
    cached_trace("gen", {"n": 3}, 0, make, version=1, directory=tmp_path)
    cached_trace("gen", {"n": 3}, 0, make, version=2, directory=tmp_path)
    assert len(list(tmp_path.glob("*.trz"))) == 2


def test_corrupt_entry_is_regenerated(tmp_path):
    make = lambda: Trace([4, 5, 6], name="t")  # noqa: E731
    cached_trace("gen", {"n": 3}, 0, make, directory=tmp_path)
    (entry,) = tmp_path.glob("*.trz")
    entry.write_bytes(b"not a trace archive")
    trace = cached_trace("gen", {"n": 3}, 0, make, directory=tmp_path)
    assert trace.addresses.tolist() == [4, 5, 6]


def test_cache_path_that_is_a_file_raises_cleanly(tmp_path):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("in the way")
    with pytest.raises(NotADirectoryError, match="not a directory"):
        cached_trace(
            "gen", {"n": 3}, 0, lambda: Trace([1]), directory=not_a_dir
        )


def test_seed_determinism_guard(tmp_path):
    """Same seed through the cache and fresh generation must agree even
    across distinct cache directories (the PR's determinism guard)."""
    first = make_benchmark_trace(BENCH, **PARAMS, seed=99, cache_dir=tmp_path / "a")
    second = make_benchmark_trace(BENCH, **PARAMS, seed=99, cache_dir=tmp_path / "b")
    fresh = make_benchmark_trace(BENCH, **PARAMS, seed=99)
    for a, b, c in zip(_columns(first), _columns(second), _columns(fresh)):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    different = make_benchmark_trace(BENCH, **PARAMS, seed=100)
    assert fresh.addresses.tobytes() != different.addresses.tobytes()


@pytest.mark.parametrize("container", [list, tuple, np.asarray])
def test_trace_accepts_arrays_without_copy_roundtrip(container):
    values = container([1, 2, 3, 4])
    trace = Trace(values)
    assert trace.addresses.dtype == np.int64
    assert trace.addresses.tolist() == [1, 2, 3, 4]


def test_trace_reuses_int64_ndarray():
    arr = np.array([7, 8, 9], dtype=np.int64)
    trace = Trace(arr)
    assert trace.addresses is arr  # no copy for an already-int64 column
