"""Smoke tests for the experiment drivers (tiny scales, full code paths)."""

import warnings

import pytest

from repro.experiments import (
    fig01_rdd,
    fig02_epsilon,
    fig04_static_pdp,
    fig06_model,
    fig09_params,
    fig10_single_core,
    fig11_phases,
    fig12_partitioning,
    overhead_report,
)
from repro.experiments.common import (
    EXPERIMENT_GEOMETRY,
    STATIC_PD_GRID,
    default_trace,
    experiment_config,
    format_table,
    trace_length,
)
from repro.obs.bench import _label_pd
from repro.obs.manifest import load_manifests
from repro.sim.parallel import ENV_MAX_WORKERS


class TestCommon:
    def test_config_matches_constants(self):
        config = experiment_config()
        assert config.llc == EXPERIMENT_GEOMETRY
        assert config.associativity == 16

    def test_trace_length_fast(self):
        assert trace_length(True) < trace_length(False)

    def test_default_trace_deterministic(self):
        import numpy as np

        a = default_trace("473.astar", fast=True)
        b = default_trace("473.astar", fast=True)
        assert np.array_equal(a.addresses, b.addresses)

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert all(len(line) >= 6 for line in lines[1:])


class TestDrivers:
    def test_fig1_structure(self):
        results = fig01_rdd.run_fig1(fast=True)
        assert len(results) == len(fig01_rdd.FIG1_BENCHMARKS)
        report = fig01_rdd.format_report(results)
        assert "436.cactusADM" in report

    def test_fig2_sweep_keys(self):
        sweeps = fig02_epsilon.run_fig2(fast=True)
        for sweep in sweeps:
            assert set(sweep.mpki_by_epsilon) == set(fig02_epsilon.EPSILONS)
            assert sweep.best_epsilon in fig02_epsilon.EPSILONS

    def test_fig6_fit_fields(self):
        fits = fig06_model.run_fig6(fast=True, grid_step=48)
        for fit in fits:
            assert len(fit.pds) == len(fit.e_values) == len(fit.hit_rates)
            assert -1.0 <= fit.correlation <= 1.0

    def test_fig9_subset(self):
        results = fig09_params.run_fig9(benchmarks=("473.astar",), fast=True)
        assert len(results) == 1
        buckets = fig09_params.pd_distribution(results)
        assert sum(buckets.values()) == 1

    def test_fig11_structure(self):
        results = fig11_phases.run_fig11(phase_length=3000)
        assert len(results) == 5
        report = fig11_phases.format_report(results)
        assert "PD trajectory" in report

    def test_fig12_two_cores_smoke(self):
        results = fig12_partitioning.run_fig12(2, num_mixes=1, length_per_thread=3000)
        assert len(results) == 1
        averages = fig12_partitioning.averages(results)
        assert set(averages) == {"UCP", "PIPP", "PDP"}
        report = fig12_partitioning.format_report({2: results})
        assert "2-core" in report

    def test_overhead_summary(self):
        summary = overhead_report.run_overhead()
        assert summary.search_cycles > 0
        assert summary.search_fraction_of_interval < 0.05
        assert "PDP-2" in overhead_report.format_report(summary)

    def test_fig4_single_benchmark(self):
        from repro.experiments import fig04_static_pdp

        results = fig04_static_pdp.run_fig4(benchmarks=("473.astar",), fast=True)
        assert len(results) == 1
        assert results[0].best_pd_b in STATIC_PD_GRID

    def test_fig10_single_benchmark(self):
        from repro.experiments import fig10_single_core

        rows = fig10_single_core.run_fig10(benchmarks=("473.astar",), fast=True)
        assert len(rows) == 1
        assert {"PDP-8", "SPDP-B"} <= set(rows[0].miss_reduction)
        avg = fig10_single_core.averages(rows)
        assert avg.name == "AVERAGE"

    def test_prefetch_structure(self):
        from repro.experiments import prefetch_study

        results = prefetch_study.run_prefetch_study(fast=True)
        assert len(results) == len(prefetch_study.PREFETCH_BENCHMARKS)
        for result in results:
            assert set(result.hit_rate_by_mode) == set(prefetch_study.MODES)


class TestDriverGrids:
    """Figs. 2, 4, 9 and 10 run one ``run_matrix`` grid per trace."""

    def test_fig4_manifest_labels_are_unique(self, tmp_path):
        fig04_static_pdp.run_fig4(("473.astar",), fast=True, manifest_dir=tmp_path)
        cells = [m for m in load_manifests(tmp_path) if m.kind == "llc"]
        triples = [(m.label, m.policy, m.workload) for m in cells]
        assert len(triples) == len(set(triples)) == 6 + 2 * len(STATIC_PD_GRID)
        # Only the SPDP-B cells read as static-PD points in `obs report`.
        parsed = {m.label: _label_pd(m.label) for m in cells}
        assert {label for label, pd in parsed.items() if pd is not None} == {
            f"spdp-{pd}" for pd in STATIC_PD_GRID
        }
        assert all(parsed[f"spdp-{pd}"] == pd for pd in STATIC_PD_GRID)

    def test_fig10_manifests_and_progress(self, tmp_path):
        events = []
        fig10_single_core.run_fig10(
            ("473.astar",), fast=True, manifest_dir=tmp_path, on_event=events.append
        )
        manifests = load_manifests(tmp_path)
        cells = [m for m in manifests if m.kind == "llc"]
        assert len(cells) == 1 + 6 + len(STATIC_PD_GRID)
        assert {m.engine for m in cells} == {"vector"}
        assert [m.kind for m in manifests].count("matrix") == 1
        assert events and all(e.key.startswith("473.astar/") for e in events)
        assert _label_pd("spdp-48@seed1") == 48

    @pytest.mark.parametrize(
        "run",
        [
            lambda: fig02_epsilon.run_fig2(fast=True),
            lambda: fig04_static_pdp.run_fig4(("473.astar",), fast=True),
            lambda: fig09_params.run_fig9(("473.astar",), fast=True),
            lambda: fig10_single_core.run_fig10(("473.astar",), fast=True),
        ],
        ids=["fig2", "fig4", "fig9", "fig10"],
    )
    def test_grids_pool_without_serial_fallback(self, run, monkeypatch):
        # A factory that does not pickle makes a pooled grid warn and
        # fall back to serial; as an error, the pooled run fails instead.
        monkeypatch.setattr(fig02_epsilon, "FIG2_BENCHMARKS", ("473.astar",))
        rows = {}
        for workers in ("2", "1"):
            monkeypatch.setenv(ENV_MAX_WORKERS, workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rows[workers] = run()
        assert rows["2"] == rows["1"]
