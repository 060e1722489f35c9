"""Tests for the multi-core hit-rate model E_m and the PD-vector search."""

import numpy as np
import pytest

from repro.core.hit_rate_model import e_m, find_pd_vector


def make_rdd(peak_bin, mass, total, num_bins=16):
    counts = np.zeros(num_bins, dtype=np.int64)
    counts[peak_bin] = mass
    return counts, total


class TestEm:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            e_m([make_rdd(1, 10, 20)], [16, 32], step=16)

    def test_single_thread_matches_single_core_shape(self):
        """With one thread, E_m has the same argmax as single-core E."""
        from repro.core.hit_rate_model import find_best_pd

        rdd = make_rdd(4, 500, 800)
        candidates = [(k + 1) * 16 for k in range(16)]
        best = max(candidates, key=lambda pd: e_m([rdd], [pd], step=16, d_e=16.0))
        single = find_best_pd(*rdd, step=16, d_e=16.0)
        assert best == single

    def test_e_m_additive_over_threads(self):
        rdd_a = make_rdd(2, 100, 200)
        rdd_b = make_rdd(8, 100, 200)
        both = e_m([rdd_a, rdd_b], [48, 144], step=16, d_e=16.0)
        assert both > 0

    def test_zero_total_gives_zero(self):
        rdd = (np.zeros(4, dtype=np.int64), 0)
        assert e_m([rdd], [16], step=16) == 0.0


class TestPDVectorSearch:
    def test_each_thread_near_its_peak(self):
        rdds = [make_rdd(2, 800, 1000), make_rdd(9, 800, 1000)]
        pds = find_pd_vector(rdds, step=16, d_e=16.0)
        assert pds[0] == 48  # bin 2 boundary
        assert pds[1] == 160  # bin 9 boundary

    def test_streaming_thread_gets_small_pd(self):
        """A thread with almost no reuse should not hog protection."""
        reuser = make_rdd(3, 900, 1000)
        streamer = (np.zeros(16, dtype=np.int64), 5000)
        pds = find_pd_vector([reuser, streamer], step=16, d_e=16.0, default_pd=16)
        assert pds[0] == 64
        assert pds[1] == 16  # default: nothing to protect

    def test_order_preserved(self):
        rdds = [make_rdd(1, 10, 100), make_rdd(8, 900, 1000), make_rdd(4, 50, 100)]
        pds = find_pd_vector(rdds, step=16, d_e=16.0)
        assert len(pds) == 3
        # Thread 1 (strongest) still mapped back to index 1.
        assert pds[1] == 144

    def test_beats_uniform_assignment(self):
        """The searched vector scores at least as well as any uniform PD."""
        rng = np.random.default_rng(0)
        rdds = []
        for _ in range(4):
            counts = rng.integers(0, 200, size=16)
            rdds.append((counts, int(counts.sum() * 1.5)))
        pds = find_pd_vector(rdds, step=16, d_e=16.0)
        searched = e_m(rdds, pds, step=16, d_e=16.0)
        for uniform in (16, 64, 128, 256):
            assert searched >= e_m(rdds, [uniform] * 4, step=16, d_e=16.0) - 1e-12

    def test_refinement_improves_or_keeps(self):
        rng = np.random.default_rng(3)
        rdds = []
        for _ in range(6):
            counts = rng.integers(0, 300, size=16)
            rdds.append((counts, int(counts.sum() * 2)))
        no_refine = find_pd_vector(rdds, step=16, d_e=16.0, refine_passes=0)
        refined = find_pd_vector(rdds, step=16, d_e=16.0, refine_passes=2)
        assert e_m(rdds, refined, step=16, d_e=16.0) >= (
            e_m(rdds, no_refine, step=16, d_e=16.0) - 1e-12
        )
