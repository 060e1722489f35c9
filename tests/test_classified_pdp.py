"""Tests for the Sec. 6.3 extensions: insertion-PD and classified PDP."""

import pytest

from repro.core.classified_pdp import ClassifiedPDPPolicy
from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.sim.single_core import run_llc
from repro.types import Access
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(64, 16)


class TestInsertionPD:
    def test_inserted_lines_barely_protected(self):
        policy = PDPPolicy(static_pd=100, bypass=True, insertion_pd=1)
        cache = SetAssociativeCache(CacheGeometry(1, 4), policy)
        cache.access(Access(0))
        assert policy.rpd_of(0, 0) == 1

    def test_promotion_restores_full_pd(self):
        policy = PDPPolicy(static_pd=100, bypass=True, insertion_pd=1)
        cache = SetAssociativeCache(CacheGeometry(1, 4), policy)
        cache.access(Access(0))
        cache.access(Access(0))
        assert policy.rpd_of(0, cache.lookup(0)) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            PDPPolicy(static_pd=10, insertion_pd=0)

    def test_helps_on_chained_reuse_with_dead_streams(self):
        """Sec. 6.3: a small insertion PD beats the full PD when hits come
        via promotion chains and most insertions are dead on arrival."""
        from repro.workloads.base import RDDProfile, band, fresh
        from repro.workloads.synthetic import RDDProfileGenerator

        profile = RDDProfile(
            name="chain",
            components=(
                band(1, 2, 0.25, pc_group=1),  # immediate first reuse
                band(30, 50, 0.20, pc_group=1),  # later reuse via promotion
                fresh(0.55, pc_pool=2),  # dead-on-arrival stream
            ),
        )
        trace = RDDProfileGenerator(profile, num_sets=64, seed=5).generate(30_000)
        plain = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        variant = run_llc(
            trace,
            PDPPolicy(recompute_interval=4096, insertion_pd=4),
            GEOMETRY,
        )
        assert variant.misses < plain.misses


class TestClassifiedPDP:
    def test_num_classes_validation(self):
        with pytest.raises(ValueError):
            ClassifiedPDPPolicy(num_classes=3)

    def test_classify_stable_and_bounded(self):
        policy = ClassifiedPDPPolicy(num_classes=4)
        for pc in (0, 0x400123, 0xFFFF_FFFF):
            cls = policy.classify(pc)
            assert 0 <= cls < 4
            assert cls == policy.classify(pc)

    def test_per_class_pds_diverge(self):
        """Two PC classes with different reuse distances get different PDs."""
        policy = ClassifiedPDPPolicy(
            num_classes=2, recompute_interval=3000, sampler_mode="full", step=4
        )
        cache = SetAssociativeCache(CacheGeometry(1, 16), policy)
        # Find PCs landing in class 0 and class 1.
        pc_a = next(pc for pc in range(64, 4096, 4) if policy.classify(pc) == 0)
        pc_b = next(pc for pc in range(64, 4096, 4) if policy.classify(pc) == 1)
        # Class A: loop of 12 blocks (RD 24); class B: loop of 60 (RD 120).
        for index in range(6000):
            if index % 2 == 0:
                cache.access(Access((index // 2) % 12, pc=pc_a))
            else:
                cache.access(Access(1000 + (index // 2) % 60, pc=pc_b))
        pd_a, pd_b = policy.engine.pds
        assert pd_a < pd_b
        assert 20 <= pd_a <= 40
        assert 100 <= pd_b <= 140

    def test_runs_on_benchmark_and_is_competitive(self):
        trace = make_benchmark_trace("437.leslie3d", length=25_000, num_sets=64)
        plain = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        classified = run_llc(
            trace,
            ClassifiedPDPPolicy(recompute_interval=4096, sampler_mode="full"),
            GEOMETRY,
        )
        # The class-based variant must at least be in the same league.
        assert classified.misses <= plain.misses * 1.10

    def test_bypass_behaviour(self):
        policy = ClassifiedPDPPolicy(num_classes=2, recompute_interval=10**9)
        cache = SetAssociativeCache(CacheGeometry(1, 2), policy)
        policy.engine.pds[:] = [200, 200]
        cache.access(Access(0))
        cache.access(Access(1))
        assert cache.access(Access(2)).bypassed

    def test_history_records_vectors(self):
        policy = ClassifiedPDPPolicy(
            num_classes=2, recompute_interval=500, sampler_mode="full"
        )
        cache = SetAssociativeCache(CacheGeometry(4, 4), policy)
        for index in range(1200):
            cache.access(Access(index % 30, pc=index % 8 * 4))
        history = policy.engine.pd_history
        assert len(history) >= 3
        assert all(len(pds) == 2 for _, pds in history)
