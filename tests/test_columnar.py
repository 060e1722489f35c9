"""Vector-engine specifics the conformance sweep does not cover.

Two properties pin the columnar engine's structure (beyond the
bit-identical-stats contract already swept by ``test_conformance.py``):

- **Set-order invariance**: sets are independent, so processing the
  set batches of a chunk in *any* permutation must leave identical
  statistics and identical per-set cache/policy state.
- **The fallback seam**: policies without a kernel (or whose kernel
  declines via ``supports``) must silently run the fast path under
  ``engine="vector"``, and the gates themselves must classify policies
  correctly (exact-type dispatch, the dynamic-PDP freeze rule).
"""

from __future__ import annotations

import random

import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.columnar import run_trace_vector, vectorizable
from repro.policies.base import make_policy
from repro.policies.lru import LRUPolicy
from repro.policies.rrip import SRRIPPolicy
from repro.sim.single_core import run_llc
from repro.workloads.streams import random_working_set

GEOMETRY = CacheGeometry(num_sets=16, ways=4)

POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "srrip": SRRIPPolicy,
    "pdp-static": lambda: PDPPolicy(static_pd=24),
    "pdp-dynamic": lambda: PDPPolicy(recompute_interval=777),
}


def _trace(length: int = 6_000, seed: int = 7):
    return random_working_set(length, working_set=300, seed=seed)


def _state_snapshot(cache: SetAssociativeCache) -> tuple:
    """Everything set-order could plausibly disturb: statistics plus the
    full per-set hook-visible state."""
    return (
        cache.stats.accesses,
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.bypasses,
        cache.stats.evictions,
        cache.stats.fills,
        [list(row) for row in cache.tags],
        [list(row) for row in cache.valid],
        [list(row) for row in cache.reused],
        list(cache.set_accesses),
    )


class TestSetOrderInvariance:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_set_permutation_is_equivalent(self, policy_name, seed):
        trace = _trace(seed=seed)
        baseline = SetAssociativeCache(GEOMETRY, POLICY_FACTORIES[policy_name]())
        run_trace_vector(baseline, trace)
        want = _state_snapshot(baseline)
        rng = random.Random(seed)
        for _ in range(3):
            order = list(range(GEOMETRY.num_sets))
            rng.shuffle(order)
            cache = SetAssociativeCache(GEOMETRY, POLICY_FACTORIES[policy_name]())
            run_trace_vector(cache, trace, set_order=order)
            assert _state_snapshot(cache) == want, (
                f"{policy_name}: set order {order} changed the outcome"
            )

    def test_incomplete_set_order_rejected(self):
        trace = _trace(length=500)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        present = sorted({int(a) % GEOMETRY.num_sets for a in trace.addresses})
        with pytest.raises(ValueError):
            run_trace_vector(cache, trace, set_order=present[:-1])


class TestFallbackSeam:
    def test_unknown_policy_falls_back_and_matches_fast(self):
        trace = _trace()
        policy = make_policy("dip")
        assert not vectorizable(policy)
        fast = run_llc(trace, make_policy("dip"), GEOMETRY, engine="fast")
        vector = run_llc(trace, make_policy("dip"), GEOMETRY, engine="vector")
        for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
            assert getattr(vector, field) == getattr(fast, field)

    def test_subclass_falls_back(self):
        class TracingLRU(LRUPolicy):
            pass

        # Exact-type dispatch: a subclass may override hooks the kernel
        # never calls, so it must take the fast path.
        assert not vectorizable(TracingLRU())
        trace = _trace(length=2_000)
        fast = run_llc(trace, TracingLRU(), GEOMETRY, engine="fast")
        vector = run_llc(trace, TracingLRU(), GEOMETRY, engine="vector")
        assert (vector.hits, vector.misses) == (fast.hits, fast.misses)

    def test_supported_policies_are_vectorizable(self):
        for name, factory in POLICY_FACTORIES.items():
            assert vectorizable(factory()), name

    def test_dynamic_pdp_freeze_gate(self):
        # An epoch longer than the RD counters can count saturates the
        # sampling counters mid-epoch; the kernel declines such configs.
        assert not vectorizable(PDPPolicy(recompute_interval=1 << 20))


