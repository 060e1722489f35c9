"""Deterministic trace cache: byte-identity, keying, invalidation, and
the in-process trace memo."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.traces.trace import Trace
from repro.workloads import cache
from repro.workloads.cache import (
    ENV_TRACE_CACHE_DIR,
    TRACE_MEMO_BYTES,
    TraceMemo,
    cached_trace,
    trace_cache_dir,
    trace_cache_key,
    trace_memo_scope,
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


def _ints(n: int, start: int = 0):
    """A producer of an ``n``-access trace (24 column bytes an access)."""
    return lambda: Trace(np.arange(start, start + n), name=f"t{start}")


def test_memo_hit_skips_generation_and_shares_read_only_columns():
    calls = []

    def produce() -> Trace:
        calls.append(1)
        return Trace([1, 2, 3], name="t")

    memo = TraceMemo()
    with trace_memo_scope(memo):
        first = cached_trace("gen", {"n": 3}, 0, produce)
        second = cached_trace("gen", {"n": 3}, 0, produce)
    assert len(calls) == 1
    assert second is not first  # each caller gets its own Trace object
    assert second.addresses is first.addresses
    for column in _columns(second):
        assert not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        second.addresses[0] = 9
    assert memo.stats() == {"hits": 1, "misses": 1, "bytes": 72, "entries": 1}


def test_slice_of_memoized_trace_is_read_only():
    with trace_memo_scope(TraceMemo()):
        trace = make_benchmark_trace(BENCH, **PARAMS)
    part = trace.slice(10, 20)
    for column in _columns(part):
        assert not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        part.pcs[0] = 1


def test_trace_larger_than_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(cache, "TRACE_MEMO_BYTES", 1000)
    memo = TraceMemo()
    with trace_memo_scope(memo):
        big = cached_trace("gen", {"n": 50}, 0, _ints(50))  # 1200 bytes
        small = cached_trace("gen", {"n": 10}, 0, _ints(10))  # 240 bytes
    assert len(big) == 50 and not big.addresses.flags.writeable
    assert memo.stats()["entries"] == 1 and memo.stats()["bytes"] == 240
    assert memo.get(trace_cache_key("gen", 1, {"n": 50}, 0)) is None
    assert memo.get(trace_cache_key("gen", 1, {"n": 10}, 0)).addresses.tolist() == (
        small.addresses.tolist()
    )


def test_evictions_keep_held_bytes_within_budget(monkeypatch):
    monkeypatch.setattr(cache, "TRACE_MEMO_BYTES", 1000)
    memo = TraceMemo()
    with trace_memo_scope(memo):
        for n in (10, 15, 20, 5, 30, 12, 41, 8):
            cached_trace("gen", {"n": n}, 0, _ints(n, start=n))
            held = memo.stats()["bytes"]
            assert 0 < held <= 1000
            # the newest entry always survives (it fits on its own)
            assert memo.get(trace_cache_key("gen", 1, {"n": n}, 0)) is not None
    # least recently used go first: 41 (984 bytes) pushed 12 out, and 8
    # (192 bytes) then pushed 41 out
    assert memo.stats()["entries"] == 1 and memo.stats()["bytes"] == 8 * 24
    assert memo.get(trace_cache_key("gen", 1, {"n": 41}, 0)) is None


def test_version_bump_misses_the_memo():
    calls = []

    def produce() -> Trace:
        calls.append(1)
        return Trace([1, 2, 3], name="t")

    memo = TraceMemo()
    with trace_memo_scope(memo):
        cached_trace("gen", {"n": 3}, 0, produce, version=1)
        cached_trace("gen", {"n": 3}, 0, produce, version=2)
    assert len(calls) == 2
    assert memo.stats()["hits"] == 0 and memo.stats()["entries"] == 2


def test_memo_sits_in_front_of_the_disk_cache(tmp_path):
    memo = TraceMemo()
    with trace_memo_scope(memo):
        stored = make_benchmark_trace(BENCH, **PARAMS, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.trz")
        entry.unlink()  # a memo hit never reads the disk again
        again = make_benchmark_trace(BENCH, **PARAMS, cache_dir=tmp_path)
    assert again.addresses.tobytes() == stored.addresses.tobytes()
    assert memo.stats()["hits"] == 1 and not list(tmp_path.glob("*.trz"))


def test_outside_a_scope_every_call_is_new_and_writable(monkeypatch):
    monkeypatch.delenv(ENV_TRACE_CACHE_DIR, raising=False)
    with trace_memo_scope(TraceMemo()):
        make_benchmark_trace(BENCH, **PARAMS)  # a memo that has left scope
    first = make_benchmark_trace(BENCH, **PARAMS)
    second = make_benchmark_trace(BENCH, **PARAMS)
    assert first.addresses is not second.addresses
    for column in _columns(first) + _columns(second):
        assert column.flags.writeable
    first.addresses[0] += 1  # today's contract: the caller owns its trace
    assert first.addresses[0] != second.addresses[0]


def test_default_budget_holds_three_100k_access_traces():
    assert 3 * 100_000 * 24 <= TRACE_MEMO_BYTES < 4 * 100_000 * 24


def test_memo_survives_concurrent_jobs(monkeypatch):
    """More threads than cores share one memo: no lost count, and the
    held bytes always equal the entries' column bytes within budget."""
    monkeypatch.setattr(cache, "TRACE_MEMO_BYTES", 2000)
    memo = TraceMemo()
    calls_per_thread, threads = 300, 8
    errors = []

    def job(index: int) -> None:
        try:
            with trace_memo_scope(memo):
                for i in range(calls_per_thread):
                    n = 5 + (index * 7 + i) % 23
                    trace = cached_trace("gen", {"n": n}, 0, _ints(n))
                    assert len(trace) == n
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=job, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == calls_per_thread * threads
    held = sum(24 * len(trace) for trace in memo._entries.values())
    assert stats["bytes"] == held <= 2000
