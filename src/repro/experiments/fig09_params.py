"""Fig. 9 — PDP parameter space: sampler configuration and counter step.

The paper compares the "Full" RD sampler (every set, exact) against the
"Real" one (32 sets x 32-entry FIFOs) and sweeps the counter step S_c over
{1, 2, 4, 8}, concluding that Real matches Full and S_c = 4 is a good
trade-off. Table 2's optimal-PD distribution is also computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.pdp_policy import PDPPolicy
from repro.experiments.common import (
    RECOMPUTE_INTERVAL,
    default_trace,
    format_table,
    run_trace_grid,
)

CONFIGS = (
    ("Full, Sc=1", "full", 1),
    ("Real, Sc=1", "real", 1),
    ("Real, Sc=2", "real", 2),
    ("Real, Sc=4", "real", 4),
    ("Real, Sc=8", "real", 8),
)


@dataclass(frozen=True)
class ParamResult:
    """Normalized MPKI per configuration for one benchmark."""

    name: str
    mpki_by_config: dict[str, float]
    pd_by_config: dict[str, int]

    def normalized(self) -> dict[str, float]:
        baseline = self.mpki_by_config["Full, Sc=1"] or 1.0
        return {k: v / baseline for k, v in self.mpki_by_config.items()}


def run_fig9(
    benchmarks: tuple[str, ...] | None = None, fast: bool = False
) -> list[ParamResult]:
    from repro.experiments.common import EXPERIMENT_SUITE

    benchmarks = benchmarks or EXPERIMENT_SUITE
    factories = {
        label: partial(
            PDPPolicy,
            sampler_mode=mode,
            step=step,
            recompute_interval=RECOMPUTE_INTERVAL,
        )
        for label, mode, step in CONFIGS
    }
    results = []
    for name in benchmarks:
        grid = run_trace_grid(default_trace(name, fast=fast), factories)
        results.append(
            ParamResult(
                name=name,
                mpki_by_config={label: run.mpki for label, run in grid.items()},
                pd_by_config={
                    label: run.extra["final_pd"] for label, run in grid.items()
                },
            )
        )
    return results


def pd_distribution(results: list[ParamResult]) -> dict[str, int]:
    """Table 2 — distribution of optimal PDs (Full sampler, Sc=1)."""
    buckets = {"16-32": 0, "33-64": 0, "65-128": 0, "129-256": 0}
    for result in results:
        pd = result.pd_by_config["Full, Sc=1"]
        if pd <= 32:
            buckets["16-32"] += 1
        elif pd <= 64:
            buckets["33-64"] += 1
        elif pd <= 128:
            buckets["65-128"] += 1
        else:
            buckets["129-256"] += 1
    return buckets


def format_report(results: list[ParamResult]) -> str:
    labels = [label for label, _, _ in CONFIGS]
    rows = []
    for result in results:
        normalized = result.normalized()
        rows.append(
            [result.name]
            + [f"{normalized[label]:.3f}" for label in labels]
            + [str(result.pd_by_config["Full, Sc=1"])]
        )
    table = format_table(
        ["benchmark"] + labels + ["PD(full)"],
        rows,
        title="Fig. 9 — MPKI by sampler/step configuration (normalized to Full, Sc=1)",
    )
    buckets = pd_distribution(results)
    dist = format_table(
        ["PD range"] + list(buckets),
        [["# benchmarks"] + [str(v) for v in buckets.values()]],
        title="Table 2 — distribution of optimal PDs",
    )
    return table + "\n\n" + dist


__all__ = ["CONFIGS", "ParamResult", "format_report", "pd_distribution", "run_fig9"]
