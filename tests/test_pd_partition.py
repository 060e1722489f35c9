"""Tests for the PD-based shared-cache partitioning policy (Sec. 4)."""

import random

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.types import Access


def drive_two_threads(policy, rounds, geometry=None, reuse_gap=20):
    """Thread 0 loops a small set; thread 1 streams fresh blocks."""
    geometry = geometry or CacheGeometry(16, 16)
    cache = SetAssociativeCache(geometry, policy)
    fresh = 1 << 20
    for index in range(rounds):
        if index % 2 == 0:
            address = (index // 2 % reuse_gap) * geometry.num_sets
            cache.access(Access(address, thread_id=0))
        else:
            cache.access(Access(fresh * geometry.num_sets, thread_id=1))
            fresh += 1
    return cache


class TestPDPartition:
    def test_initial_vector_is_associativity(self):
        policy = PDPartitionPolicy(num_threads=2)
        SetAssociativeCache(CacheGeometry(16, 16), policy)
        assert policy.engine.pds == [16, 16]

    def test_recompute_updates_vector_and_history(self):
        policy = PDPartitionPolicy(
            num_threads=2, recompute_interval=2000, sampler_mode="full", step=4
        )
        drive_two_threads(policy, 6000)
        assert len(policy.engine.pd_history) >= 2

    def test_reusing_thread_gets_protecting_distance(self):
        """Thread 0's reuse peak is covered; streaming thread 1 is not."""
        policy = PDPartitionPolicy(
            num_threads=2, recompute_interval=4000, sampler_mode="full", step=4
        )
        drive_two_threads(policy, 12_000, reuse_gap=10)
        # Thread 0 reuses every 10 of its own accesses = 20 set accesses
        # interleaved; its PD should cover roughly that distance.
        pd0, pd1 = policy.engine.pds
        assert pd0 >= 16
        assert pd1 <= pd0

    def test_per_thread_insertion_rpd(self):
        policy = PDPartitionPolicy(num_threads=2, recompute_interval=10**9)
        cache = SetAssociativeCache(CacheGeometry(4, 4), policy)
        policy.engine.pds[:] = [64, 4]
        way0 = cache.access(Access(0, thread_id=0)).way
        way1 = cache.access(Access(4, thread_id=1)).way
        assert policy._rpd[0][way0] > policy._rpd[0][way1]

    def test_bypass_when_all_protected(self):
        policy = PDPartitionPolicy(num_threads=1, recompute_interval=10**9)
        cache = SetAssociativeCache(CacheGeometry(1, 2), policy)
        policy.engine.pds[:] = [200]
        cache.access(Access(0))
        cache.access(Access(1))
        assert cache.access(Access(2)).bypassed

    def test_no_bypass_variant_evicts(self):
        policy = PDPartitionPolicy(
            num_threads=1, recompute_interval=10**9, bypass=False
        )
        cache = SetAssociativeCache(CacheGeometry(1, 2), policy)
        policy.engine.pds[:] = [200]
        cache.access(Access(0))
        cache.access(Access(1))
        result = cache.access(Access(2))
        assert not result.bypassed
        assert result.evicted is not None

    def test_counter_arrays_reset_after_recompute(self):
        policy = PDPartitionPolicy(
            num_threads=2, recompute_interval=500, sampler_mode="full"
        )
        drive_two_threads(policy, 600)
        assert all(array.total < 500 for array in policy.engine.class_counters)

    def test_protects_reuser_against_streamer(self):
        """End-to-end: thread 0's hit rate stays high under streaming."""
        policy = PDPartitionPolicy(
            num_threads=2, recompute_interval=2000, sampler_mode="full", step=4
        )
        cache = drive_two_threads(policy, 16_000, reuse_gap=8)
        # Thread-0 accesses: 8 distinct blocks cycled -> per-set reuse
        # distance 16 (interleaved with the streamer); should mostly hit.
        # Identify hits indirectly: total hits must be well above zero and
        # owned by thread 0 lines.
        assert cache.stats.hits > 4000
