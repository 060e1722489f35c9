"""Multi-core fast-path equivalence and stat-freezing properties.

The thread-aware batched kernel (`repro.memory.fastpath.run_shared_trace`)
must be observationally identical to the reference per-``Access`` loop in
``run_shared_llc`` — same per-thread frozen statistics (accesses, hits,
misses, bypasses, instructions, IPC) and therefore the same W/T/H
metrics — for every thread-aware policy, on heterogeneous mixes whose
threads differ in length and instructions-per-access (so rewind and
per-thread freezing both trigger at different positions).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.fastpath import run_shared_trace
from repro.policies.base import make_policy
from repro.sim.multi_core import _reference_shared_slice, run_shared_llc
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces

GEOMETRY = CacheGeometry(num_sets=32, ways=8)

#: Policies whose constructors need a thread count (shared-cache only).
MULTITHREAD = {"pd-partition", "pipp", "ta-drrip", "ucp"}

#: The acceptance set: LRU, DRRIP, TA-DRRIP, PDP and the partitioned
#: policies (plus DIP for breadth).
POLICIES = ["lru", "drrip", "dip", "pdp", "ta-drrip", "ucp", "pipp", "pd-partition"]


def _thread_trace(seed: int, n: int, ipa: float) -> Trace:
    """Hot/cold blend with a small pc pool — hits, evictions, bypasses."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 96, size=n)
    cold = rng.integers(96, 6000, size=n)
    addresses = np.where(rng.random(n) < 0.5, hot, cold)
    pcs = rng.integers(0, 10, size=n)
    return Trace(addresses, pcs=pcs, name=f"t{seed}", instructions_per_access=ipa)


def _mixes() -> dict[str, list[Trace]]:
    """Three mixes: homogeneous, heterogeneous lengths/IPA, and 4-thread."""
    return {
        "homogeneous": [_thread_trace(1, 1500, 1.0), _thread_trace(2, 1500, 1.0)],
        "heterogeneous": [
            _thread_trace(3, 2000, 1.0),
            _thread_trace(4, 900, 2.5),
            _thread_trace(5, 1400, 1.5),
        ],
        "four-thread": [_thread_trace(6 + i, 700 + 180 * i, 1.0 + 0.5 * i) for i in range(4)],
    }


def _make_policy(name: str, num_threads: int):
    if name in MULTITHREAD:
        return make_policy(name, num_threads=num_threads)
    if name == "pdp":
        return make_policy(name, recompute_interval=1024)
    return make_policy(name)


def _outcome_tuples(result):
    return [
        (t.accesses, t.hits, t.misses, t.bypasses, t.instructions, t.ipc)
        for t in result.threads
    ]


@pytest.mark.parametrize("mix_name", sorted(_mixes()))
@pytest.mark.parametrize("name", POLICIES)
def test_shared_llc_identical_between_engines(name, mix_name):
    traces = _mixes()[mix_name]
    singles = [1.0] * len(traces)  # skip redundant baseline runs
    runs = {
        engine: run_shared_llc(
            traces,
            _make_policy(name, len(traces)),
            GEOMETRY,
            singles=singles,
            engine=engine,
        )
        for engine in ("reference", "fast")
    }
    ref, fast = runs["reference"], runs["fast"]
    assert _outcome_tuples(fast) == _outcome_tuples(ref)
    assert (fast.weighted, fast.throughput, fast.hmean) == (
        ref.weighted,
        ref.throughput,
        ref.hmean,
    )


def test_shared_llc_default_engine_is_fast_and_validated():
    traces = _mixes()["homogeneous"]
    default = run_shared_llc(traces, _make_policy("lru", 2), GEOMETRY, singles=[1.0, 1.0])
    ref = run_shared_llc(
        traces, _make_policy("lru", 2), GEOMETRY, singles=[1.0, 1.0], engine="reference"
    )
    assert _outcome_tuples(default) == _outcome_tuples(ref)
    with pytest.raises(ValueError, match="engine"):
        run_shared_llc(traces, _make_policy("lru", 2), GEOMETRY, engine="warp")


def test_single_thread_baselines_engines_agree():
    from repro.sim.multi_core import single_thread_baselines

    traces = _mixes()["heterogeneous"]
    assert single_thread_baselines(traces, GEOMETRY, engine="fast") == (
        single_thread_baselines(traces, GEOMETRY, engine="reference")
    )


def test_shared_trace_global_stats_cover_whole_run():
    """cache.stats counts the full interleave, frozen tail included."""
    traces = _mixes()["heterogeneous"]
    mixed, completion = interleave_traces(traces)
    cache = SetAssociativeCache(GEOMETRY, _make_policy("lru", len(traces)))
    accesses, hits, misses, bypasses = run_shared_trace(cache, mixed, completion)
    assert cache.stats.accesses == len(mixed)
    assert cache.stats.hits + cache.stats.misses == len(mixed)
    # Frozen per-thread counters cover exactly one full pass per thread.
    assert accesses == [len(trace) for trace in traces]
    for t_hits, t_misses, t_accesses in zip(hits, misses, accesses):
        assert t_hits + t_misses == t_accesses
    assert all(b <= m for b, m in zip(bypasses, misses))


@pytest.mark.parametrize("name", ["lru", "pdp", "ta-drrip"])
def test_frozen_stats_unchanged_by_post_completion_tail(name):
    """Property (paper Sec. 5): per-thread frozen counters are identical
    whether the run stops at max(completion) or runs the full rewound
    interleave — the tail only pressures the cache."""
    traces = _mixes()["heterogeneous"]
    mixed, completion = interleave_traces(traces)
    stop = max(completion)
    assert stop < len(mixed)  # the rewound tail is non-empty

    full_cache = SetAssociativeCache(GEOMETRY, _make_policy(name, len(traces)))
    full = run_shared_trace(full_cache, mixed, completion)
    short_cache = SetAssociativeCache(GEOMETRY, _make_policy(name, len(traces)))
    short = run_shared_trace(short_cache, mixed.slice(0, stop), completion)
    assert full == short


@pytest.mark.parametrize("total_length", [None, 3000], ids=["full", "truncated"])
@pytest.mark.parametrize("name", ["lru", "pdp", "ta-drrip", "pd-partition"])
def test_slices_cut_at_completion_positions_match_reference(name, total_length):
    """Feeding the interleave in slices cut exactly at each completion
    position puts every freeze on a slice start; the summed per-thread
    counters and the global stats must still equal the reference's
    whole-trace run. Truncated, several threads never finish and share
    ``completion == total_length``."""
    traces = _mixes()["heterogeneous"]
    mixed, completion = interleave_traces(traces, total_length=total_length)
    if total_length is not None:
        assert completion.count(total_length) >= 2

    ref_cache = SetAssociativeCache(GEOMETRY, _make_policy(name, len(traces)))
    expected = _reference_shared_slice(ref_cache, mixed, completion)
    cache = SetAssociativeCache(GEOMETRY, _make_policy(name, len(traces)))
    totals = [[0] * len(traces) for _ in range(4)]
    bounds = sorted({0, len(mixed), *completion})
    for start, stop in zip(bounds, bounds[1:]):
        part = run_shared_trace(
            cache, mixed.slice(start, stop), completion, position_offset=start
        )
        for total, counts in zip(totals, part):
            for thread, count in enumerate(counts):
                total[thread] += count
    assert totals == expected
    assert cache.stats == ref_cache.stats


def test_completion_positions_match_cursor_recount():
    """completion[t] is one past the interleave position of thread t's
    len(traces[t])-th access — recounted with a straightforward cursor."""
    traces = _mixes()["four-thread"]
    mixed, completion = interleave_traces(traces)
    counts = [0] * len(traces)
    recount = [-1] * len(traces)
    for position, tid in enumerate(mixed.thread_ids.tolist()):
        counts[tid] += 1
        if counts[tid] == len(traces[tid]) and recount[tid] < 0:
            recount[tid] = position + 1
    assert recount == completion


def test_interleave_uses_public_constructor_and_mean_ipa():
    """Regression: the mixed trace must be built via Trace.__init__ (not
    __new__) and carry the mean per-thread IPA, not thread 0's."""
    traces = [_thread_trace(20, 400, 1.0), _thread_trace(21, 400, 3.0)]
    mixed, _ = interleave_traces(traces)
    assert mixed.instructions_per_access == pytest.approx(2.0)
    # Columns went through _as_int64_column coercion.
    assert mixed.addresses.dtype == np.int64
    assert len(mixed.pcs) == len(mixed.thread_ids) == len(mixed)
