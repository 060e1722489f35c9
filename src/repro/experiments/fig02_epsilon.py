"""Fig. 2 — DRRIP misses as a function of epsilon.

The paper sweeps the BRRIP bimodal parameter from 1/4 down to 1/128 on
403.gcc, 436.cactusADM, 464.h264ref and 483.xalancbmk.3 and observes two
trends: some benchmarks want a small epsilon (lines protected longer),
others a larger one (lines yielded sooner).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.experiments.common import default_trace, format_table, run_trace_grid
from repro.policies.rrip import DRRIPPolicy

FIG2_BENCHMARKS = ("403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3")
EPSILONS = (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


@dataclass(frozen=True)
class EpsilonSweep:
    """Normalized MPKI per epsilon for one benchmark."""

    name: str
    mpki_by_epsilon: dict[float, float]

    def normalized(self) -> dict[float, float]:
        """MPKI normalized to epsilon = 1/32 (the DRRIP default)."""
        baseline = self.mpki_by_epsilon[1 / 32] or 1.0
        return {eps: mpki / baseline for eps, mpki in self.mpki_by_epsilon.items()}

    @property
    def best_epsilon(self) -> float:
        return min(self.mpki_by_epsilon, key=self.mpki_by_epsilon.get)


def run_fig2(fast: bool = False) -> list[EpsilonSweep]:
    """Sweep DRRIP's epsilon over the Fig. 2 benchmarks, one grid each."""
    factories = {eps: partial(DRRIPPolicy, epsilon=eps) for eps in EPSILONS}
    sweeps = []
    for name in FIG2_BENCHMARKS:
        grid = run_trace_grid(default_trace(name, fast=fast), factories)
        mpki = {epsilon: result.mpki for epsilon, result in grid.items()}
        sweeps.append(EpsilonSweep(name=name, mpki_by_epsilon=mpki))
    return sweeps


def format_report(sweeps: list[EpsilonSweep]) -> str:
    headers = ["benchmark"] + [f"1/{int(1/e)}" for e in EPSILONS] + ["best eps"]
    rows = []
    for sweep in sweeps:
        normalized = sweep.normalized()
        rows.append(
            [sweep.name]
            + [f"{normalized[e]:.3f}" for e in EPSILONS]
            + [f"1/{int(1 / sweep.best_epsilon)}"]
        )
    return format_table(
        headers, rows, title="Fig. 2 — DRRIP MPKI vs epsilon (normalized to 1/32)"
    )


__all__ = ["EPSILONS", "EpsilonSweep", "FIG2_BENCHMARKS", "format_report", "run_fig2"]
