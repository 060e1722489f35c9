"""Vector-engine specifics the conformance sweep does not cover.

Two properties pin the columnar engine's structure (beyond the
bit-identical-stats contract already swept by ``test_conformance.py``):

- **Set-order invariance**: sets are independent, so processing the
  set batches of a chunk in *any* permutation must leave identical
  statistics and identical per-set cache/policy state.
- **The sampler feed**: the PDP kernel runs the RD sampler's loop
  inline on the sampler's own FIFOs, so after a run the sampler must
  hold what per-access ``observe`` calls would have left there.
- **The tier decision**: ``engine_tier`` must classify attached
  policies correctly (exact-type dispatch, the dynamic-PDP freeze
  rule); a policy it refuses must run the fast path under
  ``engine="vector"`` with identical results and record ``engine_ran:
  "fast"``; ``run_llc`` and ``run_shared_llc`` must each ask it exactly
  once per run; and the vector entry points must refuse a policy with
  no kernel.
- **The shared path**: PD partitioning (one access class per thread)
  set-batched between freeze cuts must match the reference loop per
  thread and in its PD history, under any set order, and must fall
  back to the fast path when its counters could freeze mid-epoch.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.columnar import (
    engine_tier,
    run_shared_trace_vector,
    run_trace_vector,
)
from repro.memory.fastpath import run_trace
from repro.obs.manifest import scan_manifests
from repro.obs.metrics import METRICS
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.partitioning.ucp import UCPPolicy
from repro.policies.base import make_policy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.lru import LRUPolicy
from repro.sim import multi_core, single_core
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.streams import random_working_set

GEOMETRY = CacheGeometry(num_sets=16, ways=4)

POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "pdp-static": lambda: PDPPolicy(static_pd=24),
    "pdp-dynamic": lambda: PDPPolicy(recompute_interval=777),
    # The PDP kernel's general loop: S_d > 1, the inclusive fallback,
    # insertion_pd=1 and the full sampler.
    "pdp-2": lambda: PDPPolicy(n_c=2, recompute_interval=777),
    "pdp-3": lambda: PDPPolicy(n_c=3, recompute_interval=777),
    "pdp-nb": lambda: PDPPolicy(bypass=False, recompute_interval=777),
    "pdp-ins1": lambda: PDPPolicy(insertion_pd=1, recompute_interval=777),
    "pdp-full": lambda: PDPPolicy(sampler_mode="full", recompute_interval=777),
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


def _live_fifos(sampler) -> dict:
    """Each sampled set's live FIFO entries as address -> position, plus
    its sampling counter."""
    return {
        s: (
            {
                address: fifo.pushes - 1 - stamp
                for address, stamp in fifo.stamps.items()
                if fifo.pushes - 1 - stamp < fifo.length
            },
            fifo.length,
            sampler._sampling_counter[s],
        )
        for s, fifo in sampler._fifos.items()
    }


class TestSamplerFeed:
    @pytest.mark.parametrize("sampler_mode", ["real", "full"])
    def test_prune_then_tail_probe_matches_per_access_feed(self, sampler_mode):
        """Unique addresses in one set until the stamp map prunes, then
        a reuse of the FIFO's oldest live entry, where the prune cutoff
        sits; then a random tail. RD counts and FIFO state must match
        the per-access path."""
        def policy():
            return PDPPolicy(sampler_mode=sampler_mode, recompute_interval=60_000)

        model = SetAssociativeCache(GEOMETRY, policy()).policy.engine.sampler
        fifo = model._fifos[0]
        addresses = []
        while True:  # model the feed to find the first prune in set 0
            addresses.append((len(addresses) + 1) * GEOMETRY.num_sets)
            before = len(fifo.stamps)
            model.observe(0, addresses[-1])
            if len(fifo.stamps) < before:
                break
        oldest = min(fifo.stamps, key=fifo.stamps.get)
        addresses.append(oldest)
        addresses.extend(int(a) for a in _trace(length=3_000).addresses)
        trace = Trace(addresses)
        runs = {}
        for label, run in (("fast", run_trace), ("vector", run_trace_vector)):
            cache = SetAssociativeCache(GEOMETRY, policy())
            run(cache, trace)
            engine = cache.policy.engine
            (counters,) = engine.class_counters
            runs[label] = (
                counters.counts.tolist(),
                counters.total,
                _live_fifos(engine.sampler),
                engine.pd_history,
            )
        assert runs["vector"] == runs["fast"]


def _tier(policy, engine: str = "vector", geometry=GEOMETRY) -> str:
    """The tier :func:`engine_tier` picks once a cache attaches ``policy``."""
    return engine_tier(SetAssociativeCache(geometry, policy), engine)


class TestFallbackSeam:
    @pytest.mark.parametrize("policy_name", ["dip", "fifo", "mru", "srrip"])
    def test_unknown_policy_falls_back_and_matches_fast(self, policy_name):
        trace = _trace()
        assert _tier(make_policy(policy_name)) == "fast"
        fast = run_llc(trace, make_policy(policy_name), GEOMETRY, engine="fast")
        vector = run_llc(
            trace, make_policy(policy_name), GEOMETRY, engine="vector"
        )
        for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
            assert getattr(vector, field) == getattr(fast, field)

    def test_subclass_falls_back(self):
        class TracingLRU(LRUPolicy):
            pass

        # Exact-type dispatch: a subclass may override hooks the kernel
        # never calls, so it must take the fast path.
        assert _tier(TracingLRU()) == "fast"
        trace = _trace(length=2_000)
        fast = run_llc(trace, TracingLRU(), GEOMETRY, engine="fast")
        vector = run_llc(trace, TracingLRU(), GEOMETRY, engine="vector")
        assert (vector.hits, vector.misses) == (fast.hits, fast.misses)

    def test_supported_policies_are_vectorizable(self):
        for name, factory in POLICY_FACTORIES.items():
            assert _tier(factory()) == "vector", name
            for engine in ("fast", "reference"):
                assert _tier(factory(), engine) == engine, name

    def test_kernel_is_built_once_per_cache(self):
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        assert engine_tier(cache, "vector") == "vector"
        kernel = cache._vector_kernel
        assert engine_tier(cache, "vector") == "vector"
        assert cache._vector_kernel is kernel

    def test_dynamic_pdp_freeze_gate(self):
        # An epoch longer than the RD counters can count saturates the
        # sampling counters mid-epoch; the kernel declines such configs.
        assert _tier(PDPPolicy(recompute_interval=1 << 20)) == "fast"
        assert _tier(PDPPolicy(recompute_interval=(1 << 16) - 1)) == "vector"
        # The gate reads the attached counters: a frozen class declines.
        policy = PDPPolicy(recompute_interval=1024)
        cache = SetAssociativeCache(GEOMETRY, policy)
        policy.engine.class_counters[0].frozen = True
        assert engine_tier(cache, "vector") == "fast"

    def test_fallbacks_are_counted_per_policy_type(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        try:
            for policy in (DRRIPPolicy(), DRRIPPolicy(), LRUPolicy()):
                _tier(policy)
            _tier(DRRIPPolicy(), "fast")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        fallbacks = {k: v for k, v in counters.items() if ".fallback." in k}
        assert fallbacks == {"columnar.fallback.DRRIPPolicy": 2}

    def test_vector_entry_points_refuse_a_policy_without_kernel(self):
        trace = _trace(length=500)
        cache = SetAssociativeCache(GEOMETRY, DRRIPPolicy())
        with pytest.raises(ValueError, match="engine_tier"):
            run_trace_vector(cache, trace)
        assert cache.stats.accesses == 0
        mixed, completion = interleave_traces([_trace(length=300, seed=s) for s in (1, 2)])
        cache = SetAssociativeCache(GEOMETRY, UCPPolicy(num_threads=2))
        with pytest.raises(ValueError, match="engine_tier"):
            run_shared_trace_vector(cache, mixed, completion)
        assert cache.stats.accesses == 0

    @pytest.mark.parametrize("engine", ["vector", "fast", "reference"])
    def test_each_run_asks_engine_tier_once(self, monkeypatch, engine):
        calls = []

        def counting(cache, requested):
            calls.append(requested)
            return engine_tier(cache, requested)

        monkeypatch.setattr(single_core, "engine_tier", counting)
        monkeypatch.setattr(multi_core, "engine_tier", counting)
        trace = _trace(length=3_000)
        # Three chunks, each cut again at window boundaries.
        stream = TraceStream(
            lambda: (trace.slice(i, i + 1_000) for i in range(0, 3_000, 1_000)),
            name=trace.name,
        )
        run_llc(stream, PDPPolicy(recompute_interval=512), GEOMETRY,
                engine=engine, window_size=700)
        assert calls == [engine]
        calls.clear()
        run_shared_llc(
            [_trace(length=900, seed=1), _trace(length=700, seed=2)],
            PDPartitionPolicy(num_threads=2, recompute_interval=512),
            GEOMETRY, singles=[1.0, 1.0], engine=engine, chunk_size=256,
            window_size=300,
        )
        assert calls == [engine]

    @pytest.mark.parametrize(
        "policy, ran", [(DRRIPPolicy, "fast"), (LRUPolicy, "vector")]
    )
    def test_manifest_records_the_tier_that_ran(self, tmp_path, policy, ran):
        run_llc(_trace(length=1_000), policy(), GEOMETRY, manifest_dir=tmp_path)
        (manifest,) = scan_manifests(tmp_path).manifests
        assert (manifest.engine, manifest.engine_ran) == ("vector", ran)


#: Fig. 12's shared LLC for four cores at 16 sets per core.
SHARED_GEOMETRY = CacheGeometry(num_sets=64, ways=16)

#: Four threads of unequal length, so each freezes at its own position.
SHARED_MIX = (
    ("403.gcc", 3_000),
    ("429.mcf", 3_600),
    ("450.soplex", 2_400),
    ("436.cactusADM", 3_200),
)


def _shared_traces() -> list[Trace]:
    return [
        make_benchmark_trace(
            name, length=length, num_sets=SHARED_GEOMETRY.num_sets, seed=slot
        )
        for slot, (name, length) in enumerate(SHARED_MIX)
    ]


def _pd_partition(recompute_interval: int = 4_096) -> PDPartitionPolicy:
    """Fig. 12's PD partitioning: full sampler, one class per thread."""
    return PDPartitionPolicy(
        num_threads=4, sampler_mode="full", recompute_interval=recompute_interval
    )


def _policy_state(policy) -> tuple:
    """The hook-visible PDP state: every line's RPD, the per-set step
    counters and the PD history."""
    return (
        [
            [policy.rpd_of(s, w) for w in range(SHARED_GEOMETRY.ways)]
            for s in range(SHARED_GEOMETRY.num_sets)
        ],
        list(policy._step_counter),
        policy.engine.pd_history,
    )


class TestSharedPath:
    def test_pd_partition_vector_matches_reference_per_thread(self):
        traces = _shared_traces()
        runs, policies = {}, {}
        for engine in ("reference", "vector"):
            policies[engine] = _pd_partition()
            assert engine_tier(
                SetAssociativeCache(SHARED_GEOMETRY, _pd_partition()), engine
            ) == engine
            runs[engine] = run_shared_llc(
                traces, policies[engine], SHARED_GEOMETRY,
                singles=[1.0] * 4, engine=engine,
            )
        history = policies["reference"].engine.pd_history
        assert len(history) >= 3, "the mix must cross at least 2 recomputes"
        assert len({pds for _, pds in history}) > 1
        for thread, (got, want) in enumerate(
            zip(runs["vector"].threads, runs["reference"].threads)
        ):
            for field in ("accesses", "hits", "misses", "bypasses"):
                assert getattr(got, field) == getattr(want, field), (
                    f"thread {thread} {field}"
                )
        assert _policy_state(policies["vector"]) == _policy_state(
            policies["reference"]
        )

    def test_any_set_permutation_is_equivalent(self):
        mixed, completion = interleave_traces(_shared_traces())

        def run(set_order):
            policy = _pd_partition(recompute_interval=2_048)
            cache = SetAssociativeCache(SHARED_GEOMETRY, policy)
            totals = run_shared_trace_vector(
                cache, mixed, completion, set_order=set_order
            )
            return totals, _state_snapshot(cache), _policy_state(policy)

        want = run(None)
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(SHARED_GEOMETRY.num_sets))
            rng.shuffle(order)
            assert run(order) == want, f"set order {order} changed the outcome"

    def test_freezable_interval_falls_back_to_fast(self, monkeypatch):
        """Four classes with an epoch longer than a counter can count:
        the kernel declines, and ``engine="vector"`` runs the fast path
        with identical per-thread results."""
        interval = (1 << 16) + 1
        assert _tier(_pd_partition(interval), geometry=SHARED_GEOMETRY) == "fast"

        def refuse(*args, **kwargs):
            raise AssertionError("a freezable config reached the vector kernel")

        monkeypatch.setattr(multi_core, "run_shared_trace_vector", refuse)
        traces = _shared_traces()
        fast, vector = (
            run_shared_llc(
                traces, _pd_partition(interval), SHARED_GEOMETRY,
                singles=[1.0] * 4, engine=engine,
            )
            for engine in ("fast", "vector")
        )
        for got, want in zip(vector.threads, fast.threads):
            assert (got.accesses, got.hits, got.misses, got.bypasses) == (
                want.accesses, want.hits, want.misses, want.bypasses
            )
