"""End-to-end integration tests asserting the paper's qualitative shapes.

These use small traces (fast) — the full-size reproductions live in
``benchmarks/``; here we pin the load-bearing behaviours so refactors
cannot silently break them.
"""

import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.policies import (
    BeladyPolicy,
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    SDPPolicy,
)
from repro.sim.runner import best_static_pd, sweep_static_pd
from repro.sim.single_core import run_llc
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(64, 16)
LENGTH = 25_000


def trace_for(name, seed=None):
    return make_benchmark_trace(name, length=LENGTH, num_sets=64, seed=seed)


class TestSingleCoreShapes:
    def test_pdp_beats_dip_on_protection_friendly_profile(self):
        """cactusADM's beyond-W peak is PDP's home turf (Sec. 2.3)."""
        trace = trace_for("436.cactusADM")
        dip = run_llc(trace, DIPPolicy(), GEOMETRY)
        pdp = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        assert pdp.misses < dip.misses

    def test_dynamic_pd_covers_cactus_peak(self):
        trace = trace_for("436.cactusADM")
        pdp = PDPPolicy(recompute_interval=4096)
        run_llc(trace, pdp, GEOMETRY)
        assert 64 <= pdp.current_pd <= 96  # profile peak is 64-80

    def test_dynamic_close_to_static_best(self):
        """The dynamic PDP approaches the static sweep's optimum."""
        trace = trace_for("450.soplex")
        _, static_best = best_static_pd(
            trace, GEOMETRY, range(16, 257, 16), bypass=True
        )
        dynamic = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        assert dynamic.misses <= static_best.misses * 1.05

    def test_bypass_helps_on_h264ref_profile(self):
        """SPDP-B >= SPDP-NB on the bypass-heavy profile (Fig. 4)."""
        trace = trace_for("464.h264ref")
        grid = range(16, 257, 32)
        _, nb = best_static_pd(trace, GEOMETRY, grid, bypass=False)
        _, b = best_static_pd(trace, GEOMETRY, grid, bypass=True)
        assert b.misses <= nb.misses
        assert b.bypass_fraction > 0.3

    def test_streaming_profile_pd_hits_dmax(self):
        """libquantum's reuse sits at d_max; the PD must go there."""
        trace = trace_for("462.libquantum")
        pdp = PDPPolicy(recompute_interval=4096)
        run_llc(trace, pdp, GEOMETRY)
        assert pdp.current_pd >= 240

    def test_lru_friendly_profile_pd_stays_small(self):
        trace = trace_for("473.astar")
        pdp = PDPPolicy(recompute_interval=4096)
        run_llc(trace, pdp, GEOMETRY)
        assert pdp.current_pd <= 32

    def test_belady_upper_bounds_pdp(self):
        trace = trace_for("403.gcc")
        opt = run_llc(trace, BeladyPolicy(trace.addresses, bypass=True), GEOMETRY)
        pdp = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        assert opt.hits >= pdp.hits

    def test_sdp_beats_dip_where_pcs_informative(self):
        """leslie3d's PC-block correlation is SDP's favourable case."""
        trace = trace_for("437.leslie3d")
        dip = run_llc(trace, DIPPolicy(), GEOMETRY)
        sdp = run_llc(trace, SDPPolicy(), GEOMETRY)
        assert sdp.misses <= dip.misses * 1.01

    def test_sdp_loses_where_pcs_mislead(self):
        """h264ref shares PCs across live and dead blocks (Sec. 6.2)."""
        trace = trace_for("464.h264ref")
        dip = run_llc(trace, DIPPolicy(), GEOMETRY)
        sdp = run_llc(trace, SDPPolicy(), GEOMETRY)
        pdp = run_llc(trace, PDPPolicy(recompute_interval=4096), GEOMETRY)
        assert sdp.misses >= dip.misses
        assert pdp.misses < sdp.misses

    def test_static_pd_optimum_is_interior_for_peaked_profiles(self):
        """Misses vs PD is not monotone: protecting too long pollutes."""
        trace = trace_for("436.cactusADM")
        runs = sweep_static_pd(trace, GEOMETRY, [16, 80, 256], bypass=True)
        assert runs[80].misses < runs[16].misses
        assert runs[80].misses < runs[256].misses


class TestMultiCoreShapes:
    def test_pd_partition_beats_ta_drrip_on_mixed_load(self):
        from repro.partitioning.pd_partition import PDPartitionPolicy
        from repro.policies.ta_drrip import TADRRIPPolicy
        from repro.sim.multi_core import run_shared_llc, single_thread_baselines

        mix = ("450.soplex", "433.milc", "464.h264ref", "470.lbm")
        geometry = CacheGeometry(64, 16)
        traces = [
            make_benchmark_trace(name, length=15_000, num_sets=64, seed=50 + i)
            for i, name in enumerate(mix)
        ]
        singles = single_thread_baselines(traces, geometry)
        base = run_shared_llc(
            traces, TADRRIPPolicy(num_threads=4), geometry, singles=singles
        )
        pdp = run_shared_llc(
            traces,
            PDPartitionPolicy(
                num_threads=4, recompute_interval=8192, sampler_mode="full"
            ),
            geometry,
            singles=singles,
        )
        assert pdp.weighted >= base.weighted * 0.995

    def test_streaming_thread_gets_short_pd(self):
        from repro.partitioning.pd_partition import PDPartitionPolicy
        from repro.sim.multi_core import run_shared_llc

        mix = ("436.cactusADM", "433.milc")
        geometry = CacheGeometry(32, 16)
        traces = [
            make_benchmark_trace(name, length=15_000, num_sets=32, seed=9 + i)
            for i, name in enumerate(mix)
        ]
        policy = PDPartitionPolicy(
            num_threads=2, recompute_interval=8192, sampler_mode="full"
        )
        run_shared_llc(traces, policy, geometry)
        cactus_pd, milc_pd = policy.engine.pds
        assert milc_pd <= cactus_pd


class TestPhaseShapes:
    def test_pd_moves_across_phases(self):
        from repro.workloads.phased import phase_changing_profiles

        workload = phase_changing_profiles(phase_length=8000)["483.xalancbmk"]
        trace = workload.generate(num_sets=64)
        policy = PDPPolicy(recompute_interval=2048)
        run_llc(trace, policy, GEOMETRY)
        pds = {pd for _, (pd,) in policy.engine.pd_history}
        assert len(pds) > 1
