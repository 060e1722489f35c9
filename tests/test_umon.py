"""Tests for the utility monitors (UMON)."""

import numpy as np
import pytest

from repro.partitioning.umon import UtilityMonitor


class TestUtilityMonitor:
    def test_curve_monotone_nondecreasing(self):
        import random

        rng = random.Random(0)
        monitor = UtilityMonitor(num_sets=8, ways=4, num_sampled_sets=8)
        for _ in range(1000):
            address = rng.randrange(40)
            monitor.observe(address % 8, address)
        curve = monitor.utility_curve()
        assert all(curve[i] <= curve[i + 1] for i in range(4))

    def test_zero_ways_zero_hits(self):
        monitor = UtilityMonitor(num_sets=4, ways=4, num_sampled_sets=4)
        monitor.observe(0, 1)
        monitor.observe(0, 1)
        assert monitor.utility_curve()[0] == 0

    def test_stack_position_hits(self):
        monitor = UtilityMonitor(num_sets=1, ways=4, num_sampled_sets=1)
        monitor.observe(0, 1)
        monitor.observe(0, 1)  # hit at position 0
        monitor.observe(0, 2)
        monitor.observe(0, 1)  # hit at position 1
        assert monitor.position_hits[0] == 1
        assert monitor.position_hits[1] == 1

    def test_curve_matches_lru_simulation(self):
        """UMON curve equals direct per-associativity LRU simulation."""
        import random

        from repro.memory.cache import CacheGeometry, SetAssociativeCache
        from repro.policies.lru import LRUPolicy
        from repro.types import Access

        rng = random.Random(5)
        addresses = [rng.randrange(30) for _ in range(800)]
        monitor = UtilityMonitor(num_sets=2, ways=4, num_sampled_sets=2)
        for address in addresses:
            monitor.observe(address % 2, address)
        curve = monitor.utility_curve()
        for ways in (1, 2, 4):
            cache = SetAssociativeCache(CacheGeometry(2, ways), LRUPolicy())
            for address in addresses:
                cache.access(Access(address))
            assert cache.stats.hits == curve[ways]

    def test_unsampled_sets_ignored(self):
        monitor = UtilityMonitor(num_sets=64, ways=4, num_sampled_sets=2)
        before = monitor.accesses
        unsampled = next(s for s in range(64) if not monitor.is_sampled(s))
        monitor.observe(unsampled, 1)
        assert monitor.accesses == before

    def test_decay_halves(self):
        monitor = UtilityMonitor(num_sets=1, ways=2, num_sampled_sets=1)
        for _ in range(4):
            monitor.observe(0, 7)
        monitor.decay()
        assert monitor.position_hits[0] == 1  # 3 hits halved

    @pytest.mark.parametrize("num_sets", [48, 64, 100, 2048])
    def test_monitors_exactly_num_sampled_sets(self, num_sets):
        monitor = UtilityMonitor(num_sets=num_sets, ways=4, num_sampled_sets=32)
        monitored = [s for s in range(num_sets) if monitor.is_sampled(s)]
        assert len(monitored) == 32
        if num_sets == 2048:  # power-of-two geometries keep their stride
            assert monitored == list(range(0, 2048, 64))
