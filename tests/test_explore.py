"""Tests for the analytical fast-forward explorer (``repro.explore``).

Four layers, cheapest first:

- profiler ground truth: the one-pass profile must agree exactly with
  the reference analysis module (global RDD, per-set access counts,
  fingerprint) and with a brute-force frozen-cache simulation (arrival
  ranks);
- explorer contract: thousands of points from one profiling pass,
  within the wall-clock bound, persisted as a renderable
  ``kind="explore"`` manifest;
- golden drift tripwire over ``tests/golden/explore.json`` (regenerate
  with ``PYTHONPATH=src python tools/regen_golden.py`` after intended
  model changes);
- cross-validation: a reduced grid of ``tools/xval_explorer.py`` must
  pass the declared error budget, and the deliberately broken
  ``broken-set-rescale`` model variant must *fail* it with a located
  per-geometry report (the harness catches silent model drift).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.core.pd_grid import grid_step, pd_grid, within_one_step
from repro.explore import (
    build_view,
    explore,
    predict_hit_rate,
    profile_trace,
    render_frontier,
)
from repro.obs.manifest import fingerprint_source, load_manifests
from repro.workloads import make_benchmark_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
EXPLORE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "explore.json"


def _load_tool(name: str):
    """Import a tools/ script as a module (single source of truth)."""
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trace():
    return make_benchmark_trace("403.gcc", length=8_000)


@pytest.fixture(scope="module")
def profile(trace):
    return profile_trace(trace, max_sets=64)


class TestProfiler:
    def test_global_rdd_matches_analysis_module(self, trace, profile):
        """The streaming histogram equals the reference reuse distances
        (num_sets=1: distance = accesses between uses of a block)."""
        from repro.traces.analysis import reuse_distances

        reference = np.asarray(reuse_distances(trace, num_sets=1))
        histogram = np.zeros(profile.d_max + 2, dtype=np.int64)
        np.add.at(histogram, np.minimum(reference, profile.d_max + 1), 1)
        assert np.array_equal(profile.global_counts, histogram)
        assert profile.total_reuses == len(reference)

    def test_per_set_counts_fold_exactly(self, trace, profile):
        for num_sets in (1, 4, 16, 64):
            expected = np.bincount(
                trace.addresses % num_sets, minlength=num_sets
            )
            assert np.array_equal(profile.accesses_per_set(num_sets), expected)
        assert profile.accesses_per_set(64).sum() == profile.total_accesses

    def test_fingerprint_matches_manifest_digest(self, trace, profile):
        assert profile.fingerprint == fingerprint_source(trace)

    def test_rescaled_rdd_preserves_mass(self, profile):
        for num_sets in (1, 8, 64):
            counts = profile.rdd_for_sets(num_sets, d_max_set=512)
            assert counts.sum() == pytest.approx(profile.total_reuses)

    def test_rejects_bad_set_counts(self, profile):
        with pytest.raises(ValueError):
            profile.rdd_for_sets(48)  # not a power of two
        with pytest.raises(ValueError):
            profile.rdd_for_sets(128)  # beyond profiled max_sets

    def test_rank_reuse_cum_matches_brute_force(self, trace, profile):
        """result[w] == hits of a cache keeping each set's first w
        distinct blocks forever, computed by direct simulation."""
        num_sets, max_ways = 16, 8
        resident: dict[int, list] = {s: [] for s in range(num_sets)}
        hits = np.zeros(max_ways + 1)
        for addr in trace.addresses.tolist():
            blocks = resident[addr % num_sets]
            if addr in blocks:
                rank = blocks.index(addr)
                for ways in range(rank + 1, max_ways + 1):
                    hits[ways] += 1
            else:
                blocks.append(addr)
        result = profile.rank_reuse_cum(num_sets, max_ways=max_ways)
        assert np.array_equal(result[: max_ways + 1], hits)


class TestModelView:
    def test_views_cache_per_set_count(self, profile):
        first = profile.rdd_for_sets(16)
        again = profile.rdd_for_sets(16)
        assert first is again

    def test_prediction_bounded_and_monotone_in_ways(self, profile):
        view = build_view(profile, 16, d_max=512, max_ways=32)
        rates = [predict_hit_rate(view, ways, 32) for ways in (1, 2, 4, 8, 16)]
        assert all(0.0 <= rate <= 1.0 for rate in rates)
        for lower, higher in zip(rates, rates[1:]):
            assert higher >= lower - 1e-9

    def test_unknown_variant_rejected(self, profile):
        with pytest.raises(ValueError):
            build_view(profile, 16, variant="nope")


class TestExplorer:
    def test_thousand_points_one_pass_under_bound(self, trace, tmp_path):
        """The acceptance criterion: >= 1000 (sets, ways, d_p) points
        from one profiling pass in well under 10 seconds, recorded in a
        kind="explore" manifest that obs report renders."""
        started = perf_counter()
        result = explore(
            trace,
            sets=(16, 32, 64, 128, 256, 512),
            ways=(1, 2, 4, 8, 16),
            pd_max=256,
            pd_step=4,
            manifest_dir=tmp_path,
        )
        elapsed = perf_counter() - started
        assert result.n_points >= 1_000
        assert elapsed < 10.0
        assert result.manifest_path is not None

        manifests = load_manifests(tmp_path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.kind == "explore"
        assert manifest.trace_fingerprint == fingerprint_source(trace)
        assert manifest.stats["points"] == result.n_points
        assert len(manifest.extra["predictions"]) == len(result.predictions)

        from repro.obs.bench import render_report

        report = render_report(tmp_path)
        assert "## Exploration" in report
        assert "best PD" in report

    def test_frontier_is_pareto(self, trace):
        result = explore(trace, sets=(16, 64), ways=(2, 8), pd_step=16)
        frontier = result.frontier
        assert frontier, "some geometry must be Pareto-optimal"
        # No frontier point is dominated by a cheaper-or-equal one.
        for point in frontier:
            for other in result.predictions:
                if (
                    other.capacity_bytes < point.capacity_bytes
                    and other.best_hit_rate > point.best_hit_rate
                ):
                    pytest.fail(
                        f"{point.num_sets}x{point.ways} dominated by "
                        f"{other.num_sets}x{other.ways}"
                    )
        text = render_frontier(result)
        assert "pred_hit" in text

    def test_reuses_prebuilt_profile(self, trace, profile):
        result = explore(trace, sets=(16, 64), ways=(4,), profile=profile)
        assert result.profile_summary["fingerprint"] == profile.fingerprint

    def test_best_pd_is_grid_point(self, trace):
        result = explore(trace, sets=(16,), ways=(4,), pd_max=128, pd_step=8)
        prediction = result.predictions[0]
        assert prediction.best_pd in pd_grid(4, d_max=128, step=8)


class TestPDGrid:
    """Satellite: the canonical PD grid shared by sweep and explorer."""

    def test_pinned_default_grid(self):
        grid = pd_grid()
        assert grid[0] == 16 and grid[-1] == 256 and grid_step(grid) == 4
        assert grid == list(range(16, 257, 4))

    def test_never_empty(self):
        assert pd_grid(32, d_max=16) == [32]

    def test_within_one_step(self):
        grid = pd_grid(16, d_max=64, step=16)
        assert within_one_step(32, 16, grid)
        assert not within_one_step(48, 16, grid)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pd_grid(0)
        with pytest.raises(ValueError):
            pd_grid(16, step=0)


class TestGoldenDrift:
    """Satellite: seeded golden fixture with a readable diff on drift."""

    @pytest.fixture(scope="class")
    def golden(self):
        assert EXPLORE_GOLDEN_PATH.exists(), (
            f"missing {EXPLORE_GOLDEN_PATH}; run "
            "`PYTHONPATH=src python tools/regen_golden.py`"
        )
        return json.loads(EXPLORE_GOLDEN_PATH.read_text())

    @pytest.fixture(scope="class")
    def recomputed(self):
        return _load_tool("regen_golden").compute_explore_golden()

    def test_explore_golden_has_not_drifted(self, golden, recomputed):
        drift: list[str] = []
        if golden["trace_fingerprint"] != recomputed["trace_fingerprint"]:
            drift.append(
                f"  fingerprint {golden['trace_fingerprint']} -> "
                f"{recomputed['trace_fingerprint']}"
            )
        for field in sorted(set(golden["profile"]) | set(recomputed["profile"])):
            want = golden["profile"].get(field)
            have = recomputed["profile"].get(field)
            if want != have:
                drift.append(f"  profile {field}: {want} -> {have}")
        for cell in sorted(set(golden["cells"]) | set(recomputed["cells"])):
            want = golden["cells"].get(cell)
            have = recomputed["cells"].get(cell)
            if want is None:
                drift.append(f"  cell {cell}: new (not in fixture)")
                continue
            if have is None:
                drift.append(f"  cell {cell}: gone (in fixture, not recomputed)")
                continue
            for field in sorted(set(want) | set(have)):
                if want.get(field) != have.get(field):
                    drift.append(
                        f"  cell {cell}: {field} {want.get(field)} -> "
                        f"{have.get(field)}"
                    )
        assert not drift, (
            "explorer golden drifted (fixture -> recomputed); if intended, "
            "regenerate with `PYTHONPATH=src python tools/regen_golden.py`:\n"
            + "\n".join(drift)
        )


#: Reduced cross-validation grid for the test tier (CI runs the full
#: declared grid through tools/xval_explorer.py directly).
XVAL_BENCHMARKS = ("403.gcc", "483.xalancbmk.2")
XVAL_GEOMETRIES = ((16, 4), (64, 8), (256, 16))


class TestCrossValidation:
    """The load-bearing deliverable: predictions vs the simulator."""

    @pytest.fixture(scope="class")
    def xval(self):
        return _load_tool("xval_explorer")

    def test_reduced_grid_within_budget(self, xval):
        rows = xval.run_xval(
            benchmarks=XVAL_BENCHMARKS, geometries=XVAL_GEOMETRIES
        )
        violations = xval.check_budget(rows)
        assert not violations, "\n".join(violations)
        report = xval.render_markdown(rows, violations)
        assert "All cells within budget." in report

    def test_broken_model_variant_fails_the_gate(self, xval):
        """Satellite: an off-by-one set-index rescale must be caught,
        and the report must locate the drifted cells."""
        rows = xval.run_xval(
            benchmarks=("403.gcc",),
            geometries=((16, 2), (16, 4), (64, 8)),
            variant="broken-set-rescale",
        )
        violations = xval.check_budget(rows)
        assert violations, "harness failed to catch the broken variant"
        report = xval.render_markdown(rows, violations)
        assert "budget violation" in report
        # Violations are located: each names benchmark and geometry.
        assert any("403.gcc" in line for line in violations)
        assert any("x" in line.split(":")[0] for line in violations)

    def test_best_pd_agreement_on_reduced_grid(self, xval):
        rows = xval.run_xval(
            benchmarks=("403.gcc",), geometries=((64, 8), (256, 16))
        )
        for row in rows:
            step = grid_step(row["pds"])
            close = abs(row["best_pd_pred"] - row["best_pd_sim"]) <= step
            assert close or row["tie_gap_pts"] <= xval.BUDGET_TIE_PTS
