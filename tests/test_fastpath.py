"""Fast-path kernel equivalence: every shipped policy, both engines.

The batched kernel (`repro.memory.fastpath.run_trace`) must be
observationally identical to the reference per-``Access`` loop — same
statistics, same final cache contents, same policy decisions. These
tests pin that for every policy in the registry, on traces with uniform
pc/thread-id columns (fed to the kernel as ``itertools.repeat``) and mixed
ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.fastpath import run_trace
from repro.memory.stats import OccupancyTracker
from repro.policies.base import make_policy, registered_policies
from repro.policies.belady import BeladyPolicy
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=4)

#: Policies whose constructors need a thread count (shared-cache only).
MULTITHREAD = {"pd-partition", "pipp", "ta-drrip", "ucp"}


def _make_policy(name: str, trace: Trace):
    if name == "belady":
        return BeladyPolicy(trace.addresses, bypass=True)
    if name in MULTITHREAD:
        return make_policy(name, num_threads=2)
    return make_policy(name)


def _mixed_trace(n: int = 4000, seed: int = 11) -> Trace:
    """Two threads, a small pc pool, reuse plus streaming — exercises
    mixed columns and every hook (hits, evictions, bypasses)."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 64, size=n)
    cold = rng.integers(64, 5000, size=n)
    take_hot = rng.random(n) < 0.55
    addresses = np.where(take_hot, hot, cold)
    pcs = rng.integers(0, 12, size=n)
    thread_ids = rng.integers(0, 2, size=n)
    return Trace(addresses, pcs=pcs, thread_ids=thread_ids, name="mixed")


def _uniform_trace(n: int = 4000, seed: int = 12) -> Trace:
    """Default pc/thread-id columns — exercises the uniform-column inputs."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 64, size=n)
    cold = rng.integers(64, 5000, size=n)
    addresses = np.where(rng.random(n) < 0.55, hot, cold)
    return Trace(addresses, name="uniform")


def _run(trace: Trace, policy, engine: str) -> SetAssociativeCache:
    cache = SetAssociativeCache(GEOMETRY, policy)
    if engine == "fast":
        run_trace(cache, trace)
    else:
        for access in trace:
            cache.access(access)
    return cache


def _assert_equivalent(ref: SetAssociativeCache, fast: SetAssociativeCache):
    for field in ("accesses", "hits", "misses", "fills", "bypasses", "evictions"):
        assert getattr(fast.stats, field) == getattr(ref.stats, field), field
    assert np.array_equal(fast.valid, ref.valid)
    assert np.array_equal(np.where(ref.valid, ref.tags, -1),
                          np.where(fast.valid, fast.tags, -1))
    assert np.array_equal(fast.reused, ref.reused)


@pytest.mark.parametrize("trace_kind", ["mixed", "uniform"])
@pytest.mark.parametrize("name", sorted(registered_policies()))
def test_every_policy_identical_between_engines(name, trace_kind):
    trace = _mixed_trace() if trace_kind == "mixed" else _uniform_trace()
    ref = _run(trace, _make_policy(name, trace), "reference")
    fast = _run(trace, _make_policy(name, trace), "fast")
    _assert_equivalent(ref, fast)


def test_tag_index_coherent_after_run():
    """The per-set {tag: way} index must exactly mirror tags/valid."""
    trace = _mixed_trace()
    cache = _run(trace, make_policy("lru"), "fast")
    for set_index in range(GEOMETRY.num_sets):
        index = cache._tag_index[set_index]
        resident = {
            int(cache.tags[set_index][way]): way
            for way in range(GEOMETRY.ways)
            if cache.valid[set_index][way]
        }
        assert index == resident


def test_pdp_pd_history_identical_between_engines():
    trace = _mixed_trace(n=12_000)
    results = {
        engine: run_llc(
            trace,
            PDPPolicy(recompute_interval=2048),
            GEOMETRY,
            engine=engine,
        )
        for engine in ("reference", "fast")
    }
    ref, fast = results["reference"], results["fast"]
    assert fast.extra["pd_history"] == ref.extra["pd_history"]
    assert fast.extra["final_pd"] == ref.extra["final_pd"]
    assert (fast.hits, fast.misses, fast.bypasses) == (
        ref.hits,
        ref.misses,
        ref.bypasses,
    )


def test_observers_fire_identically():
    trace = _mixed_trace()
    occupancies = {}
    for engine in ("reference", "fast"):
        cache = SetAssociativeCache(GEOMETRY, make_policy("lru"))
        tracker = OccupancyTracker(short_threshold=16)
        cache.observers.append(tracker)
        if engine == "fast":
            run_trace(cache, trace)
        else:
            for access in trace:
                cache.access(access)
        occupancies[engine] = tracker.breakdown
    assert occupancies["fast"] == occupancies["reference"]


def test_run_llc_defaults_to_fast_engine():
    trace = _uniform_trace(n=2000)
    default = run_llc(trace, make_policy("lru"), GEOMETRY)
    reference = run_llc(trace, make_policy("lru"), GEOMETRY, engine="reference")
    assert (default.hits, default.misses) == (reference.hits, reference.misses)
    with pytest.raises(ValueError):
        run_llc(trace, make_policy("lru"), GEOMETRY, engine="warp")


def test_engine_mode_not_shadowed_by_policy_attribute():
    """Regression: run_llc's body once rebound the name ``engine`` to the
    policy's PD engine object, clobbering the engine-mode string. The
    mode parameter must stay intact through the whole body (so future
    code after the extras block can still rely on it), and the PD extras
    must still be collected."""
    import inspect

    from repro.sim import single_core

    trace = _mixed_trace(n=3000)
    result = run_llc(
        trace, PDPPolicy(recompute_interval=1024), GEOMETRY, engine="reference"
    )
    assert "pd_history" in result.extra and "final_pd" in result.extra
    # Cheap lint rule: the parameter name must never be reassigned.
    source = inspect.getsource(single_core.run_llc)
    assert not any(
        line.strip().startswith("engine =") for line in source.splitlines()
    )
    # And ENGINES validation still fires for bad modes.
    with pytest.raises(ValueError, match="engine"):
        run_llc(trace, PDPPolicy(), GEOMETRY, engine="bogus")


@pytest.mark.parametrize(
    "thread_ids",
    [(-1000, -3, 5, 40), (-(2**40), 7, 2**40)],
    ids=["negative-sparse", "wide"],
)
@pytest.mark.parametrize("name", ["lru", "drrip", "ship", "pdp"])
def test_run_llc_any_thread_ids_identical_between_engines(name, thread_ids):
    """A Trace accepts any int64 thread id: negative, sparse or wider
    than the trace. The fast kernel's per-thread hit/bypass slots must
    cover them all."""
    base = _mixed_trace(n=3000)
    rng = np.random.default_rng(5)
    trace = Trace(
        base.addresses, pcs=base.pcs, thread_ids=rng.choice(thread_ids, len(base))
    )
    ref = run_llc(trace, make_policy(name), GEOMETRY, engine="reference")
    fast = run_llc(trace, make_policy(name), GEOMETRY, engine="fast")
    assert (fast.accesses, fast.hits, fast.misses, fast.bypasses) == (
        ref.accesses,
        ref.hits,
        ref.misses,
        ref.bypasses,
    )
