"""Tests for the E(d_p) hit-rate model (Eq. 1)."""

import numpy as np
import pytest

from repro.core.hit_rate_model import (
    evaluate_e_curve,
    find_best_pd,
    find_peaks,
)


def brute_force_e(counts, total, pd, step, d_e):
    """Direct evaluation of Eq. 1 at one candidate d_p."""
    hits = 0.0
    occupancy = 0.0
    for index, count in enumerate(counts):
        upper = (index + 1) * step
        if upper > pd:
            break
        hits += count
        occupancy += count * (index * step + (step + 1) / 2)
    long_lines = total - hits
    denominator = occupancy + long_lines * (pd + d_e)
    return hits / denominator if denominator else 0.0


class TestECurve:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 100, size=32)
        total = int(counts.sum()) + 500
        points = evaluate_e_curve(counts, total, step=4, d_e=16.0)
        for point in points:
            expected = brute_force_e(counts, total, point.pd, 4, 16.0)
            assert point.e_value == pytest.approx(expected)

    def test_one_point_per_bin(self):
        counts = np.zeros(10, dtype=np.int64)
        points = evaluate_e_curve(counts, 0, step=2)
        assert [p.pd for p in points] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]

    def test_min_pd_filters(self):
        counts = np.zeros(10, dtype=np.int64)
        points = evaluate_e_curve(counts, 0, step=2, min_pd=9)
        assert points[0].pd == 10

    def test_empty_rdd_gives_zero(self):
        points = evaluate_e_curve(np.zeros(4, dtype=np.int64), 0, step=1)
        assert all(p.e_value == 0.0 for p in points)


class TestBestPD:
    def test_single_peak_rdd(self):
        """The best PD covers a dominant peak, not more."""
        counts = np.zeros(64, dtype=np.int64)
        counts[17] = 1000  # distances 69-72 with step 4
        total = 2000
        pd = find_best_pd(counts, total, step=4, d_e=16.0)
        assert pd == 72

    def test_two_peaks_picks_higher_value(self):
        """A near peak with enough mass wins over protecting both."""
        counts = np.zeros(64, dtype=np.int64)
        counts[1] = 900  # near reuse (distances 5-8)
        counts[60] = 50  # tiny far peak
        pd = find_best_pd(counts, 1000, step=4, d_e=16.0)
        assert pd == 8

    def test_far_mass_extends_pd(self):
        """When far reuse dominates, protecting to it wins."""
        counts = np.zeros(64, dtype=np.int64)
        counts[1] = 100
        counts[60] = 2000
        pd = find_best_pd(counts, 2500, step=4, d_e=16.0)
        assert pd == 244

    def test_default_on_empty(self):
        counts = np.zeros(8, dtype=np.int64)
        assert find_best_pd(counts, 0, step=4, default_pd=16) == 16

    def test_raises_on_no_candidates(self):
        with pytest.raises(ValueError):
            find_best_pd(np.array([], dtype=np.int64), 0, step=4)

    def test_min_pd_respected(self):
        counts = np.zeros(64, dtype=np.int64)
        counts[0] = 1000
        pd = find_best_pd(counts, 1100, step=4, min_pd=16)
        assert pd >= 16


class TestPeaks:
    def test_finds_local_maxima(self):
        counts = np.zeros(64, dtype=np.int64)
        counts[5] = 500
        counts[40] = 400
        peaks = find_peaks(counts, 1500, step=4, d_e=16.0, max_peaks=3)
        pds = {p.pd for p in peaks}
        assert 24 in pds  # bin 5 boundary
        assert len(peaks) <= 3

    def test_strongest_first(self):
        counts = np.zeros(64, dtype=np.int64)
        counts[5] = 500
        counts[40] = 100
        peaks = find_peaks(counts, 1000, step=4, d_e=16.0)
        assert peaks[0].e_value >= peaks[-1].e_value

    def test_monotone_curve_returns_global_max(self):
        counts = np.ones(16, dtype=np.int64) * 10
        peaks = find_peaks(counts, 160, step=4, d_e=16.0)
        assert peaks


class TestModelTracksSimulatedHitRate:
    def test_e_correlates_with_spdp_hit_rate(self):
        """Fig. 6: E(d_p) approximates the actual SPDP-B hit-rate curve.

        Correlation over a static-PD sweep must be strongly positive.
        """
        from repro.memory.cache import CacheGeometry
        from repro.sim.runner import sweep_static_pd
        from repro.traces.analysis import reuse_distance_distribution
        from repro.workloads.spec_like import make_benchmark_trace

        trace = make_benchmark_trace("436.cactusADM", length=12_000, num_sets=16)
        counts, _, total = reuse_distance_distribution(trace, num_sets=16, d_max=256)
        pds = list(range(16, 257, 16))
        results = sweep_static_pd(trace, CacheGeometry(16, 16), pds)
        binned = np.array([counts[1:].copy()]).ravel()  # step=1 counts
        e_values = []
        hit_rates = []
        for pd in pds:
            e_values.append(
                brute_force_e(binned, total, pd, 1, 16.0)
            )
            hit_rates.append(results[pd].hit_rate)
        correlation = np.corrcoef(e_values, hit_rates)[0, 1]
        assert correlation > 0.7


class TestModelProperties:
    """Property-based invariants of the E(d_p) model family (hypothesis)."""

    @staticmethod
    def _rdds():
        from hypothesis import strategies as st

        return st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=48)

    def test_e_values_bounded(self):
        """E in [0, 1]: it is hits per slot-time unit, never negative
        and never more than one hit per set access."""
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(counts=self._rdds(), extra=st_integers_small())
        def check(counts, extra):
            from repro.core.hit_rate_model import evaluate_e_curve

            array = np.asarray(counts, dtype=np.int64)
            total = int(array.sum()) + extra
            for point in evaluate_e_curve(array, total, step=2, d_e=8.0):
                assert 0.0 <= point.e_value <= 1.0

        check()

    def test_predicted_hit_rate_monotone_in_ways(self):
        """At fixed (RDD, d_p), more ways never predicts fewer hits:
        h(W) = W*A / (B + C*(pd + W)) has nonnegative derivative."""
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(counts=self._rdds(), extra=st_integers_small(), pd=st_pds())
        def check(counts, extra, pd):
            from repro.core.hit_rate_model import predicted_hit_rate

            array = np.asarray(counts, dtype=np.int64)
            total = int(array.sum()) + extra
            rates = [
                predicted_hit_rate(array, total, ways, pd, step=2)
                for ways in (1, 2, 4, 8, 16, 32)
            ]
            for lower, higher in zip(rates, rates[1:]):
                assert higher >= lower - 1e-12
            assert all(0.0 <= rate <= 1.0 for rate in rates)

        check()

    def test_find_best_pd_returns_grid_point(self):
        """The argmax is always one of the candidate bin boundaries."""
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(counts=self._rdds(), extra=st_integers_small())
        def check(counts, extra):
            from repro.core.hit_rate_model import find_best_pd

            array = np.asarray(counts, dtype=np.int64)
            total = int(array.sum()) + extra
            step = 3
            pd = find_best_pd(array, total, step=step, default_pd=step)
            candidates = {(index + 1) * step for index in range(len(array))}
            candidates.add(step)
            assert pd in candidates

        check()

    @pytest.mark.parametrize(
        "counts,total",
        [
            (np.array([], dtype=np.int64), 0),
            (np.zeros(1, dtype=np.int64), 0),
            (np.array([7], dtype=np.int64), 7),
            (np.zeros(16, dtype=np.int64), 10_000),  # all reuse beyond d_max
        ],
    )
    def test_degenerate_rdds_do_not_raise(self, counts, total):
        """Empty, single-bin and all-infinite RDDs stay well-defined."""
        from repro.core.hit_rate_model import (
            evaluate_e_curve,
            find_best_pd,
            predicted_hit_rate,
        )

        points = evaluate_e_curve(counts, total, step=4)
        assert all(0.0 <= p.e_value <= 1.0 for p in points)
        pd = find_best_pd(counts, total, step=4, default_pd=16)
        assert pd >= 1
        rate = predicted_hit_rate(counts, total, ways=8, pd=16, step=4)
        assert 0.0 <= rate <= 1.0


def st_integers_small():
    """Extra non-reuse accesses: keeps N_t >= sum(N_i) by construction."""
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=10_000)


def st_pds():
    """Candidate protecting distances for the property tests."""
    from hypothesis import strategies as st

    return st.integers(min_value=1, max_value=128)
