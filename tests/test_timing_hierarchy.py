"""Tests for the timing model and the three-level hierarchy."""

import pytest

from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.timing import TimingModel
from repro.policies.lru import LRUPolicy
from repro.types import Access


class TestTimingModel:
    def test_perfect_cache_hits_issue_width(self):
        timing = TimingModel(issue_width=4)
        assert timing.ipc(1000, 0, 0, 0) == pytest.approx(4.0)

    def test_misses_lower_ipc(self):
        timing = TimingModel()
        perfect = timing.ipc(1000, 0, 0, 0)
        with_misses = timing.ipc(1000, 0, 0, 50)
        assert with_misses < perfect

    def test_monotone_in_miss_count(self):
        timing = TimingModel()
        ipcs = [timing.ipc(1000, 0, 0, misses) for misses in (0, 10, 50, 200)]
        assert all(ipcs[i] > ipcs[i + 1] for i in range(3))

    def test_llc_hit_cheaper_than_memory(self):
        timing = TimingModel()
        assert timing.ipc(1000, 0, 50, 0) > timing.ipc(1000, 0, 0, 50)

    def test_mlp_reduces_stalls(self):
        low = TimingModel(mlp=1.0).ipc(1000, 0, 0, 50)
        high = TimingModel(mlp=4.0).ipc(1000, 0, 0, 50)
        assert high > low

    def test_cycles_additive(self):
        timing = TimingModel(issue_width=1, mlp=1.0)
        cycles = timing.cycles(100, 1, 1, 1)
        expected = 100 + (10 - 2) + (30 - 2) + (200 - 2)
        assert cycles == pytest.approx(expected)


class TestHierarchy:
    def test_l1_filters_l2(self):
        hierarchy = CacheHierarchy(
            LRUPolicy(),
            l1_geometry=CacheGeometry(2, 2),
            l2_geometry=CacheGeometry(4, 2),
            llc_geometry=CacheGeometry(8, 4),
        )
        hierarchy.access(Access(0))
        hierarchy.access(Access(0))  # L1 hit, never reaches L2
        assert hierarchy.result.l1_hits == 1
        assert hierarchy.l2.stats.accesses == 1

    def test_miss_propagates_to_memory(self):
        hierarchy = CacheHierarchy(
            LRUPolicy(),
            l1_geometry=CacheGeometry(2, 2),
            l2_geometry=CacheGeometry(4, 2),
            llc_geometry=CacheGeometry(8, 4),
        )
        hierarchy.access(Access(123))
        assert hierarchy.result.memory_accesses == 1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = CacheHierarchy(
            LRUPolicy(),
            l1_geometry=CacheGeometry(1, 1),
            l2_geometry=CacheGeometry(1, 4),
            llc_geometry=CacheGeometry(8, 4),
        )
        hierarchy.access(Access(0))
        hierarchy.access(Access(1))  # evicts 0 from the 1-line L1
        hierarchy.access(Access(0))  # L1 miss, L2 hit
        assert hierarchy.result.l2_hits == 1

    def test_llc_bypass_counted(self):
        from repro.core.pdp_policy import PDPPolicy

        hierarchy = CacheHierarchy(
            PDPPolicy(static_pd=250, bypass=True),
            l1_geometry=CacheGeometry(1, 1),
            l2_geometry=CacheGeometry(1, 2),
            llc_geometry=CacheGeometry(1, 2),
        )
        for address in range(10):
            hierarchy.access(Access(address))
        assert hierarchy.result.llc_bypasses > 0

    def test_default_geometries_match_table1(self):
        hierarchy = CacheHierarchy(LRUPolicy())
        assert hierarchy.l1.geometry.capacity_bytes == 32 * 1024
        assert hierarchy.l2.geometry.capacity_bytes == 256 * 1024
        assert hierarchy.llc.geometry.capacity_bytes == 2 * 1024 * 1024
        assert hierarchy.llc.geometry.ways == 16

    def test_run_counts_all_accesses(self):
        hierarchy = CacheHierarchy(
            LRUPolicy(),
            l1_geometry=CacheGeometry(2, 2),
            l2_geometry=CacheGeometry(4, 2),
            llc_geometry=CacheGeometry(8, 4),
        )
        for address in range(25):
            hierarchy.access(Access(address))
        result = hierarchy.result
        assert result.accesses == 25
        assert result.mpki(1000) == pytest.approx(25.0)
