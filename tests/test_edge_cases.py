"""Edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.core.pd_engine import PDEngine
from repro.core.pdp_policy import PDPPolicy
from repro.core.rdd import RDCounterArray
from repro.core.sampler import RDSampler
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.policies.lru import LRUPolicy
from repro.traces.trace import Trace
from repro.types import Access


class TestDegenerateGeometries:
    def test_direct_mapped_cache(self):
        cache = SetAssociativeCache(CacheGeometry(4, 1), LRUPolicy())
        cache.access(Access(0))
        result = cache.access(Access(4))  # conflicts with 0 in set 0
        assert result.evicted == 0

    def test_fully_associative_single_set(self):
        cache = SetAssociativeCache(CacheGeometry(1, 8), LRUPolicy())
        for address in range(8):
            cache.access(Access(address))
        assert all(cache.valid[0])

    def test_single_line_cache(self):
        cache = SetAssociativeCache(CacheGeometry(1, 1), LRUPolicy())
        cache.access(Access(1))
        cache.access(Access(2))
        assert cache.lookup(1) is None
        assert cache.lookup(2) is not None

    def test_pdp_on_direct_mapped(self):
        policy = PDPPolicy(static_pd=4, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(2, 1), policy)
        for address in range(20):
            cache.access(Access(address))
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses


class TestEmptyAndTinyTraces:
    def test_empty_trace(self):
        from repro.sim.single_core import run_llc

        result = run_llc(Trace([]), LRUPolicy(), CacheGeometry(2, 2))
        assert result.accesses == 0
        assert result.hit_rate == 0.0
        assert result.mpki == 0.0

    def test_single_access_trace(self):
        from repro.sim.single_core import run_llc

        result = run_llc(Trace([5]), LRUPolicy(), CacheGeometry(2, 2))
        assert result.misses == 1

    def test_analysis_of_empty_trace(self):
        from repro.traces.analysis import reuse_distance_distribution

        counts, long_count, total = reuse_distance_distribution([], d_max=8)
        assert total == 0
        assert long_count == 0


class TestCounterEdges:
    def test_distance_at_exact_dmax(self):
        array = RDCounterArray(d_max=16, step=4)
        array.record_distance(16)
        assert array.counts[3] == 1

    def test_distance_one(self):
        array = RDCounterArray(d_max=16, step=4)
        array.record_distance(1)
        assert array.counts[0] == 1

    def test_negative_total_never_happens(self):
        array = RDCounterArray(d_max=16, step=4)
        array.record_distance(3)  # distance without access is tolerated
        assert array.long_count == 0  # clamped, not negative


class TestSamplerEdges:
    def test_one_set_cache_samples_it(self):
        sampler = RDSampler(1, num_sampled_sets=32, fifo_depth=4, insertion_rate=1)
        assert sampler.sampled_sets == [0]

    def test_zero_address_valid(self):
        got = []
        sampler = RDSampler.full(1, d_max=8, on_distance=got.append)
        sampler.observe(0, 0)
        sampler.observe(0, 0)
        assert got == [1]


class TestEngineEdges:
    def test_recompute_with_frozen_counters(self):
        engine = PDEngine(
            num_sets=1, associativity=4, d_max=8, step=1,
            recompute_interval=10**9, sampler_mode="full",
        )
        engine.class_counters[0].frozen = True
        (pd,) = engine.recompute()
        assert 1 <= pd <= 8

    def test_manual_recompute_resets_interval(self):
        engine = PDEngine(num_sets=1, recompute_interval=100, sampler_mode="full")
        for index in range(50):
            engine.observe(0, index % 3)
        engine.recompute()
        assert engine.accesses_since_recompute == 0

    def test_pd_never_below_one(self):
        engine = PDEngine(
            num_sets=1, associativity=16, recompute_interval=10, sampler_mode="full"
        )
        for index in range(200):
            engine.observe(0, index)  # pure streaming
        assert engine.current_pd >= 1


class TestPDPBypassAccounting:
    def test_bypass_counts_in_stats(self):
        policy = PDPPolicy(static_pd=200, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(1, 2), policy)
        cache.access(Access(0))
        cache.access(Access(1))
        for address in range(2, 10):
            cache.access(Access(address))
        stats = cache.stats
        assert stats.bypasses > 0
        assert stats.fills + stats.bypasses == stats.misses

    def test_protected_lines_survive_bypass_storm(self):
        policy = PDPPolicy(static_pd=200, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(1, 2), policy)
        cache.access(Access(0))
        cache.access(Access(1))
        for address in range(2, 50):
            cache.access(Access(address))
        assert cache.lookup(0) is not None
        assert cache.lookup(1) is not None


class TestAccessResultConsistency:
    def test_eviction_and_bypass_mutually_exclusive(self):
        import random

        policy = PDPPolicy(static_pd=10, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(2, 2), policy)
        rng = random.Random(0)
        for _ in range(500):
            result = cache.access(Access(rng.randrange(40)))
            if result.bypassed:
                assert result.evicted is None
                assert result.way == -1
            if result.hit:
                assert not result.bypassed


class TestMetricsEdges:
    def test_hmean_zero_ipc_guarded(self):
        from repro.sim.metrics import harmonic_mean_normalized_ipc

        with pytest.raises(ValueError):
            harmonic_mean_normalized_ipc([0.0], [1.0])

    def test_weighted_single_thread(self):
        from repro.sim.metrics import weighted_ipc

        assert weighted_ipc([2.0], [1.0]) == pytest.approx(2.0)


class TestWorkloadEdges:
    def test_generator_with_zero_reuse_possible_history(self):
        """A profile whose distances always exceed history falls back to
        fresh blocks rather than crashing."""
        from repro.workloads.base import RDDProfile, band
        from repro.workloads.synthetic import RDDProfileGenerator

        profile = RDDProfile(
            name="impossible", components=(band(200, 256, 1.0),)
        )
        generator = RDDProfileGenerator(
            profile, num_sets=4, seed=1, history_depth=8
        )
        trace = generator.generate(100)
        assert len(trace) == 100

    def test_mix_with_single_core(self):
        from repro.workloads.mixes import generate_mixes

        mixes = generate_mixes(2, cores=1, seed=0)
        assert all(m.num_cores == 1 for m in mixes)
