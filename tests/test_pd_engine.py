"""Tests for the dynamic PD engine."""

import pytest

from repro.core.pd_engine import PDEngine
from repro.workloads.spec_like import make_benchmark_trace


class TestPDEngine:
    def test_initial_pd_is_associativity(self):
        engine = PDEngine(num_sets=16, associativity=16)
        assert engine.current_pd == 16

    def test_recompute_interval_triggers(self):
        engine = PDEngine(
            num_sets=16, recompute_interval=100, sampler_mode="full"
        )
        for index in range(100):
            engine.observe(index % 16, index)
        assert engine.recompute_count == 1

    def test_counters_reset_after_recompute(self):
        engine = PDEngine(num_sets=16, recompute_interval=50, sampler_mode="full")
        for index in range(50):
            engine.observe(0, index % 5)
        assert engine.class_counters[0].total == 0

    def test_pd_history_records(self):
        engine = PDEngine(num_sets=16, recompute_interval=25, sampler_mode="full")
        for index in range(100):
            engine.observe(0, index % 3)
        assert len(engine.pd_history) == 1 + engine.recompute_count
        assert engine.pd_history[0] == (0, (16,))

    def test_pd_tracks_dominant_distance(self):
        """Reuse at a fixed per-set distance pulls the PD to cover it."""
        engine = PDEngine(
            num_sets=1,
            associativity=16,
            recompute_interval=2000,
            sampler_mode="full",
            step=4,
        )
        # Loop of 40 blocks through one set: every reuse at distance 40.
        for index in range(2000):
            engine.observe(0, index % 40)
        assert engine.recompute_count >= 1
        assert 40 <= engine.current_pd <= 48

    def test_empty_interval_keeps_previous_pd(self):
        engine = PDEngine(
            num_sets=64, recompute_interval=10, sampler_mode="real", initial_pd=77
        )
        # Accesses to unsampled sets only: RDD stays empty.
        unsampled = next(
            s for s in range(64) if not engine.sampler.is_sampled(s)
        )
        for index in range(20):
            engine.observe(unsampled, index)
        assert engine.current_pd == 77

    def test_invalid_sampler_mode(self):
        with pytest.raises(ValueError):
            PDEngine(num_sets=16, sampler_mode="bogus")

    def test_converges_on_benchmark_profile(self):
        """On the cactusADM-like profile the PD covers the 64-80 peak."""
        trace = make_benchmark_trace("436.cactusADM", length=12_000, num_sets=16)
        engine = PDEngine(
            num_sets=16, associativity=16, recompute_interval=4000,
            sampler_mode="full", step=4,
        )
        for access in trace:
            engine.observe(access.address % 16, access.address)
        assert 64 <= engine.current_pd <= 96
