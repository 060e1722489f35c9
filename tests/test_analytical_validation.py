"""Closed-form validation: crafted micro-traces with known exact outcomes."""

import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.policies.lru import LRUPolicy
from repro.types import Access


def run(policy, addresses, num_sets=1, ways=4):
    cache = SetAssociativeCache(CacheGeometry(num_sets, ways), policy)
    for address in addresses:
        cache.access(Access(int(address)))
    return cache


class TestLRUClosedForm:
    def test_loop_fitting_exactly(self):
        """Loop of W blocks over W ways: hits = length - W cold misses."""
        for ways in (2, 4, 8):
            length = 50 * ways
            addresses = [i % ways for i in range(length)]
            cache = run(LRUPolicy(), addresses, ways=ways)
            assert cache.stats.hits == length - ways

    def test_loop_oversize_zero_hits(self):
        """Loop of W+1 blocks over W LRU ways: exactly zero hits."""
        for ways in (2, 4, 8):
            addresses = [i % (ways + 1) for i in range(40 * ways)]
            cache = run(LRUPolicy(), addresses, ways=ways)
            assert cache.stats.hits == 0

    def test_two_block_alternation(self):
        cache = run(LRUPolicy(), [0, 1] * 25, ways=2)
        assert cache.stats.misses == 2


class TestPDPClosedForm:
    def test_bypass_loop_steady_state(self):
        """Loop of L blocks, one set, W ways, PD >= L with bypass.

        Steady state: the W resident blocks hit every lap (they are
        re-protected on each hit); the other L - W blocks always bypass.
        Expected hit rate over full laps: W / L.
        """
        ways, loop = 4, 10
        policy = PDPPolicy(static_pd=loop, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(1, ways), policy)
        laps = 60
        for lap in range(laps):
            for address in range(loop):
                cache.access(Access(address))
        stats = cache.stats
        expected_hits = (laps - 1) * ways  # all laps after the first
        assert stats.hits == expected_hits
        # Every lap (including the first, once the 4 ways fill) bypasses
        # the other loop - ways blocks.
        assert stats.bypasses == laps * (loop - ways)
        assert stats.fills == ways  # only the 4 cold fills ever insert

    def test_protection_exact_duration(self):
        """A line inserted with PD = k survives exactly k accesses of
        pure-miss pressure and is evicted on the (k+1)-th."""
        k = 5
        policy = PDPPolicy(static_pd=k, bypass=True)
        cache = SetAssociativeCache(CacheGeometry(1, 1), policy)
        cache.access(Access(0))
        outcomes = []
        for address in range(1, k + 2):
            outcomes.append(cache.access(Access(address)))
        # The first k-1 conflicting fetches bypass (line still protected;
        # its RPD loses 1 on its own fill access, then one per miss);
        # the k-th finally evicts block 0.
        evictions = [o for o in outcomes if o.evicted is not None]
        assert len(evictions) >= 1
        first_eviction = next(
            i for i, o in enumerate(outcomes) if o.evicted is not None
        )
        assert outcomes[first_eviction].evicted == 0
        assert all(o.bypassed for o in outcomes[:first_eviction])
        assert first_eviction == k - 1  # own access consumed one tick

    def test_nb_matches_b_when_protection_never_binds(self):
        """With PD = 1 no line is ever protected at victim time, so the
        bypass and no-bypass variants behave identically."""
        import random

        rng = random.Random(0)
        addresses = [rng.randrange(30) for _ in range(1500)]
        b = run(PDPPolicy(static_pd=1, bypass=True), addresses)
        nb = run(PDPPolicy(static_pd=1, bypass=False), addresses)
        assert b.stats.hits == nb.stats.hits
        assert b.stats.bypasses == 0


class TestModelClosedForm:
    def test_single_distance_rdd_analytic(self):
        """All reuse at one distance d: E(d_p) = N/(N*d + L*(d_p+d_e))
        for d_p >= d, strictly maximized at d_p = d."""
        import numpy as np

        from repro.core.hit_rate_model import evaluate_e_curve

        d = 20
        n = 1000
        total = 1500
        counts = np.zeros(64, dtype=np.int64)
        counts[d - 1] = n  # step=1: bin d-1 covers distance d
        points = evaluate_e_curve(counts, total, step=1, d_e=16.0)
        by_pd = {p.pd: p.e_value for p in points}
        long_lines = total - n
        expected = n / (n * d + long_lines * (d + 16.0))
        assert by_pd[d] == pytest.approx(expected)
        assert max(by_pd, key=by_pd.get) == d
        # Below d, no hits at all: E = 0.
        assert by_pd[d - 1] == 0.0
        # Beyond d, E strictly decreases (pure pollution).
        assert by_pd[d] > by_pd[d + 10] > by_pd[d + 40]

    def test_em_single_thread_equals_single_core_ratio(self):
        """E_m with one thread equals H/A from the same bins."""
        import numpy as np

        from repro.core.hit_rate_model import _thread_terms, e_m, prefix_sums

        counts = np.zeros(8, dtype=np.int64)
        counts[2] = 100  # distances 33..48 with step 16
        rdd = (counts, 300)
        pd = 48
        hits, occupancy = _thread_terms(
            (*prefix_sums(counts, 16), 300), pd, step=16, d_e=16.0
        )
        assert hits == 100
        midpoint = 2 * 16 + (16 + 1) / 2
        assert occupancy == pytest.approx(100 * midpoint + 200 * (pd + 16.0))
        assert e_m([rdd], [pd], step=16, d_e=16.0) == pytest.approx(hits / occupancy)
