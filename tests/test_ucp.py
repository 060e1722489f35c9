"""Tests for UCP and the lookahead partitioning algorithm."""

import numpy as np
import pytest

from repro.experiments.fig12_partitioning import shared_geometry
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.partitioning.ucp import UCPPolicy, lookahead_partition
from repro.types import Access


class TestLookahead:
    def test_total_ways_distributed(self):
        curves = [np.array([0, 10, 15, 18, 20]), np.array([0, 5, 8, 10, 11])]
        allocation = lookahead_partition(curves, total_ways=4)
        assert sum(allocation) == 4
        assert all(ways >= 1 for ways in allocation)

    def test_greedy_favors_high_utility(self):
        high = np.array([0, 100, 200, 300, 400])
        low = np.array([0, 1, 2, 3, 4])
        allocation = lookahead_partition([high, low], total_ways=4)
        assert allocation[0] == 3
        assert allocation[1] == 1

    def test_lookahead_sees_past_plateau(self):
        """The hallmark of lookahead: a convex jump after a flat region."""
        # Thread A gains nothing for 1-2 ways but 100 hits at 3 ways.
        plateau_then_jump = np.array([0, 0, 0, 100, 100])
        linear = np.array([0, 10, 20, 30, 40])
        allocation = lookahead_partition([plateau_then_jump, linear], total_ways=4)
        # Marginal utility of 3 ways for A is 100/3 > 10/way for B.
        assert allocation[0] == 3

    def test_equal_curves_split_evenly(self):
        curve = np.array([0, 10, 20, 30, 40, 50, 60, 70, 80])
        allocation = lookahead_partition([curve, curve], total_ways=8)
        assert allocation == [4, 4]

    def test_min_ways_respected(self):
        zero = np.zeros(9, dtype=np.int64)
        useful = np.arange(9) * 10
        allocation = lookahead_partition([zero, useful], total_ways=8)
        assert allocation[0] >= 1

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            lookahead_partition([np.zeros(3)] * 5, total_ways=4)

    def test_no_utility_spreads_remainder(self):
        zero = np.zeros(5, dtype=np.int64)
        allocation = lookahead_partition([zero, zero], total_ways=4)
        assert sum(allocation) == 4


class TestUCPPolicy:
    def _run_two_threads(self, policy, rounds=1500, hot_blocks=12):
        """Thread 0 reuses a working set; thread 1 streams."""
        cache = SetAssociativeCache(CacheGeometry(8, 8), policy)
        import random

        rng = random.Random(0)
        fresh = 10_000
        for index in range(rounds):
            if index % 2 == 0:
                address = rng.randrange(hot_blocks) * 8  # set 0..., thread 0
                cache.access(Access(address, thread_id=0))
            else:
                cache.access(Access(fresh * 8, thread_id=1))
                fresh += 1
        return cache, policy

    def test_reuser_gets_more_ways(self):
        cache, policy = self._run_two_threads(
            UCPPolicy(num_threads=2, repartition_interval=256, num_sampled_sets=8)
        )
        assert policy.allocation[0] > policy.allocation[1]

    def test_allocation_sums_to_ways(self):
        cache, policy = self._run_two_threads(
            UCPPolicy(num_threads=2, repartition_interval=256, num_sampled_sets=8)
        )
        assert sum(policy.allocation) == 8

    def test_repartition_reads_the_curves_before_decay(self):
        """One hit per stack position is enough to win thread 0 every
        spare way; halved first, it would be no utility at all."""
        policy = UCPPolicy(num_threads=2)
        SetAssociativeCache(CacheGeometry(2, 4), policy)
        policy.monitors[0].position_hits[:] = 1
        assert policy.repartition() == [3, 1]
        assert policy.monitors[0].position_hits.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_fig12_16_core_quota_is_static(self, seed):
        """Fig. 12's 16-core LLC has 16 ways and every thread a 1-way
        floor, so lookahead has no spare way to hand out: whatever the
        UMON curves say, every repartition returns one way per thread.
        The 16-core UCP row is a static even quota, not an adaptive
        partition."""
        geometry = shared_geometry(16)
        policy = UCPPolicy(num_threads=16)
        SetAssociativeCache(geometry, policy)
        assert geometry.ways == 16 and policy.allocation == [1] * 16
        rng = np.random.default_rng(seed)
        for monitor in policy.monitors:
            monitor.position_hits[:] = rng.integers(0, 1_000, geometry.ways)
        assert policy.repartition() == [1] * 16

    def test_over_quota_thread_loses_own_lines(self):
        policy = UCPPolicy(num_threads=2, repartition_interval=10**9)
        cache = SetAssociativeCache(CacheGeometry(2, 4), policy)
        policy.allocation = [2, 2]
        # Thread 0 fills the whole set 0.
        for i in range(4):
            cache.access(Access(i * 2, thread_id=0))
        # Thread 0 is over quota (4 > 2): its next miss evicts its own LRU.
        result = cache.access(Access(8 * 2, thread_id=0))
        assert result.evicted == 0

    def test_under_quota_thread_steals(self):
        policy = UCPPolicy(num_threads=2, repartition_interval=10**9)
        cache = SetAssociativeCache(CacheGeometry(2, 4), policy)
        policy.allocation = [2, 2]
        for i in range(4):
            cache.access(Access(i * 2, thread_id=0))
        # Thread 1 (0 lines < quota 2) steals thread 0's LRU line.
        result = cache.access(Access(100, thread_id=1))
        assert result.evicted == 0
        owners = cache.owner[0]
        assert 1 in owners


def _three_pass_victim(owners, stamps, allocation, thread, num_threads):
    """The quota rule as first written: count every thread's occupancy,
    then pick the own-LRU or the donor's LRU line."""
    ways = len(owners)
    counts = [0] * num_threads
    for way in range(ways):
        counts[owners[way] % num_threads] += 1
    if counts[thread] >= allocation[thread]:
        own = [w for w in range(ways) if owners[w] % num_threads == thread]
        return min(own, key=stamps.__getitem__)
    overage = [counts[t] - allocation[t] for t in range(num_threads)]
    donor = max(
        (t for t in range(num_threads) if counts[t] > 0),
        key=lambda t: overage[t],
    )
    donor_ways = [w for w in range(ways) if owners[w] % num_threads == donor]
    return min(donor_ways, key=stamps.__getitem__)


@pytest.mark.parametrize("num_threads", [2, 3, 4])
def test_choose_victim_matches_three_pass_rule(num_threads):
    """The one-pass victim choice equals the three-pass oracle on random
    owner/stamp rows. Few distinct stamps and quotas make ties common,
    both among LRU candidates and among donors."""
    import random

    rng = random.Random(num_threads)
    ways = 8
    policy = UCPPolicy(num_threads=num_threads)
    cache = SetAssociativeCache(CacheGeometry(1, ways), policy)
    for _ in range(2_000):
        # Owner ids beyond num_threads exercise the modulo.
        owners = [rng.randrange(2 * num_threads) for _ in range(ways)]
        stamps = [rng.randrange(4) for _ in range(ways)]
        allocation = [rng.randrange(1, ways) for _ in range(num_threads)]
        tid = rng.randrange(2 * num_threads)
        cache.owner[0] = owners
        policy._stamp[0] = stamps
        policy.allocation = allocation
        got = policy.choose_victim(0, Access(0, thread_id=tid))
        want = _three_pass_victim(
            owners, stamps, allocation, tid % num_threads, num_threads
        )
        assert got == want, (owners, stamps, allocation, tid)
