"""Fig. 6 — E(d_p) vs the actual hit rate vs the RDD.

The paper overlays the model E(d_p) (Eq. 1), the measured SPDP-B hit rate
and the RDD for five benchmarks, showing the model tracks the real curve —
especially around the hit-rate-maximizing PD. This driver computes all
three series and their agreement statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hit_rate_model import evaluate_e_curve
from repro.core.pd_grid import pd_grid
from repro.experiments.common import (
    EXPERIMENT_GEOMETRY,
    TIMING,
    default_trace,
    format_table,
)
from repro.sim.runner import sweep_static_pd
from repro.traces.analysis import reuse_distance_distribution

FIG6_BENCHMARKS = (
    "464.h264ref",
    "403.gcc",
    "436.cactusADM",
    "482.sphinx3",
    "483.xalancbmk.2",
)


@dataclass(frozen=True)
class ModelFit:
    """Model-vs-measured hit-rate curves for one benchmark."""

    name: str
    pds: list[int]
    e_values: list[float]
    hit_rates: list[float]
    correlation: float
    model_best_pd: int
    measured_best_pd: int


def run_fig6(fast: bool = False, grid_step: int = 16) -> list[ModelFit]:
    """Compare E(d_p) with the measured SPDP-B hit-rate curve."""
    fits = []
    pds = pd_grid(step=grid_step)
    for name in FIG6_BENCHMARKS:
        trace = default_trace(name, fast=fast)
        counts, _, total = reuse_distance_distribution(
            trace, num_sets=EXPERIMENT_GEOMETRY.num_sets, d_max=256
        )
        curve = {
            p.pd: p.e_value
            for p in evaluate_e_curve(counts[1:], total, step=1, d_e=16.0)
        }
        e_values = [curve[pd] for pd in pds]
        runs = sweep_static_pd(trace, EXPERIMENT_GEOMETRY, pds, bypass=True)
        hit_rates = [runs[pd].hit_rate for pd in pds]
        correlation = float(np.corrcoef(e_values, hit_rates)[0, 1])
        fits.append(
            ModelFit(
                name=name,
                pds=pds,
                e_values=e_values,
                hit_rates=hit_rates,
                correlation=correlation,
                model_best_pd=pds[int(np.argmax(e_values))],
                measured_best_pd=pds[int(np.argmax(hit_rates))],
            )
        )
    return fits


def format_report(fits: list[ModelFit]) -> str:
    rows = [
        [
            fit.name,
            f"{fit.correlation:.3f}",
            str(fit.model_best_pd),
            str(fit.measured_best_pd),
            f"{max(fit.hit_rates):.3f}",
        ]
        for fit in fits
    ]
    return format_table(
        ["benchmark", "corr(E, hitrate)", "argmax E", "argmax hitrate", "best HR"],
        rows,
        title="Fig. 6 — E(d_p) model vs measured hit rate (SPDP-B sweep)",
    )


__all__ = ["FIG6_BENCHMARKS", "ModelFit", "format_report", "run_fig6"]
