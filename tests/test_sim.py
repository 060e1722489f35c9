"""Tests for the simulation drivers (single-core, multi-core, sweeps)."""

import pytest

from repro.core.pd_grid import pd_grid
from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.policies.lru import LRUPolicy
from repro.sim.config import ExperimentConfig, MachineConfig
from repro.sim.multi_core import run_shared_llc, single_thread_baselines
from repro.sim.parallel import run_matrix
from repro.sim.runner import best_static_pd, sweep_static_pd
from repro.sim.single_core import run_hierarchy, run_llc
from repro.traces.trace import Trace
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.streams import cyclic_loop


class TestConfig:
    def test_default_llc_16_way(self):
        config = ExperimentConfig()
        assert config.associativity == 16

    def test_paper_scale(self):
        config = ExperimentConfig.paper_scale()
        assert config.llc.capacity_bytes == 2 * 1024 * 1024
        assert config.recompute_interval == 512 * 1024

    def test_shared_llc_scales_sets(self):
        config = ExperimentConfig()
        shared = config.shared_llc(4)
        assert shared.num_sets == config.num_sets * 4
        assert shared.ways == config.llc.ways

    def test_machine_config_table1(self):
        machine = MachineConfig()
        assert machine.processor_width == 4
        assert machine.llc.ways == 16
        timing = machine.timing()
        assert timing.memory_latency == 200


class TestRunLLC:
    def test_counts_consistent(self):
        trace = cyclic_loop(500, working_set=8)
        result = run_llc(trace, LRUPolicy(), CacheGeometry(4, 4))
        assert result.accesses == 500
        assert result.hits + result.misses == 500

    def test_ipc_positive(self):
        trace = cyclic_loop(500, working_set=8)
        result = run_llc(trace, LRUPolicy(), CacheGeometry(4, 4))
        assert result.ipc > 0

    def test_occupancy_tracking_optional(self):
        trace = cyclic_loop(500, working_set=8)
        with_tracking = run_llc(
            trace, LRUPolicy(), CacheGeometry(4, 4), track_occupancy=True
        )
        assert "occupancy" in with_tracking.extra
        without = run_llc(trace, LRUPolicy(), CacheGeometry(4, 4))
        assert "occupancy" not in without.extra

    def test_pd_history_exported_for_dynamic_pdp(self):
        trace = make_benchmark_trace("403.gcc", length=5000, num_sets=16)
        result = run_llc(
            trace,
            PDPPolicy(recompute_interval=1000),
            CacheGeometry(16, 16),
        )
        assert "pd_history" in result.extra
        assert "final_pd" in result.extra

    def test_mpki_uses_instruction_dilution(self):
        trace = Trace(range(100), instructions_per_access=10.0)
        result = run_llc(trace, LRUPolicy(), CacheGeometry(4, 4))
        assert result.instructions == 1000
        assert result.mpki == pytest.approx(100.0)  # all 100 miss

    def test_fresh_policy_required(self):
        policy = LRUPolicy()
        trace = cyclic_loop(10, working_set=2)
        run_llc(trace, policy, CacheGeometry(4, 4))
        with pytest.raises(RuntimeError):
            run_llc(trace, policy, CacheGeometry(4, 4))


class TestRunHierarchy:
    def test_full_path(self):
        trace = make_benchmark_trace("473.astar", length=3000, num_sets=16)
        result = run_hierarchy(trace, LRUPolicy())
        assert result.accesses == 3000
        assert result.ipc > 0
        assert "hierarchy" in result.extra


class TestSweeps:
    def test_sweep_returns_all_pds(self):
        trace = make_benchmark_trace("436.cactusADM", length=4000, num_sets=16)
        results = sweep_static_pd(trace, CacheGeometry(16, 16), [16, 64, 128])
        assert set(results) == {16, 64, 128}

    def test_best_static_pd_minimizes_misses(self):
        trace = make_benchmark_trace("436.cactusADM", length=8000, num_sets=16)
        pd, best = best_static_pd(trace, CacheGeometry(16, 16), [16, 80, 240])
        results = sweep_static_pd(trace, CacheGeometry(16, 16), [16, 80, 240])
        assert best.misses == min(r.misses for r in results.values())
        # The cactusADM peak sits at 64-80: PD 80 must win the 3-way race.
        assert pd == 80

    def test_default_candidates_grid(self):
        candidates = pd_grid(16, 256, 16)
        assert candidates[0] == 16
        assert candidates[-1] == 256

    def test_run_matrix_serial(self):
        trace = make_benchmark_trace("403.gcc", length=3000, num_sets=16)
        results = run_matrix(
            trace,
            {"lru": LRUPolicy, "pdp": lambda: PDPPolicy(static_pd=40)},
            CacheGeometry(16, 16),
            max_workers=1,
        )
        assert set(results) == {"lru", "pdp"}


class TestMultiCore:
    def _traces(self, num=2):
        return [
            make_benchmark_trace("473.astar", length=3000, num_sets=32, seed=i)
            for i in range(num)
        ]

    def test_baselines_positive(self):
        traces = self._traces()
        singles = single_thread_baselines(traces, CacheGeometry(32, 16))
        assert all(s > 0 for s in singles)

    def test_shared_run_produces_metrics(self):
        from repro.policies.ta_drrip import TADRRIPPolicy

        traces = self._traces()
        result = run_shared_llc(
            traces, TADRRIPPolicy(num_threads=2), CacheGeometry(32, 16)
        )
        assert len(result.threads) == 2
        assert result.weighted > 0
        assert result.throughput > 0
        assert 0 < result.hmean <= 1.5

    def test_per_thread_stats_frozen_at_completion(self):
        from repro.policies.lru import LRUPolicy as LRU

        traces = self._traces()
        result = run_shared_llc(traces, LRU(), CacheGeometry(32, 16))
        for thread, outcome in enumerate(result.threads):
            assert outcome.accesses == len(traces[thread])

    def test_weighted_le_thread_count(self):
        """Sharing a cache never speeds a thread past its solo LRU run by
        much; W should be near or below the thread count."""
        from repro.policies.lru import LRUPolicy as LRU

        traces = self._traces()
        result = run_shared_llc(traces, LRU(), CacheGeometry(32, 16))
        assert result.weighted <= len(traces) * 1.2
