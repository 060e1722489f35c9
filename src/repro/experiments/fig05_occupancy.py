"""Fig. 5 — access/occupancy breakdown and the xalancbmk window RDDs.

Fig. 5a breaks accesses and line occupancy into: hits (promotions),
bypasses, lines evicted within 16 accesses, and lines evicted later — for
DRRIP, SPDP-NB and SPDP-B on 436.cactusADM and 464.h264ref. The paper's
claims: PDP shrinks the occupancy share of long-evicted lines, and SPDP-B
bypasses most h264ref misses. Fig. 5b shows the three xalancbmk windows'
RDDs peak at different distances.

Each Fig. 5a cell is **one** simulation: the occupancy tracker and a
:class:`repro.obs.timeseries.WindowedRecorder` ride the same
:func:`run_llc` call, so the time-resolved columns (eviction-cause split,
per-window protected-line occupancy) come from recorder output rather
than a second bespoke loop over the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pdp_policy import PDPPolicy
from repro.experiments.common import (
    EXPERIMENT_GEOMETRY,
    STATIC_PD_GRID,
    TIMING,
    default_trace,
    format_table,
)
from repro.memory.stats import OccupancyBreakdown
from repro.obs.bench import sparkline
from repro.obs.timeseries import Window, windows_from_payload
from repro.policies.rrip import DRRIPPolicy
from repro.sim.runner import best_static_pd
from repro.sim.single_core import run_llc
from repro.traces.analysis import reuse_distance_distribution

FIG5_BENCHMARKS = ("436.cactusADM", "464.h264ref")
XALANC_WINDOWS = ("483.xalancbmk.1", "483.xalancbmk.2", "483.xalancbmk.3")

#: Windows recorded per Fig. 5a run (window size adapts to trace length).
FIG5_WINDOW_COUNT = 32


@dataclass(frozen=True)
class OccupancyResult:
    """Fig. 5a: one (benchmark, policy) breakdown plus its recorded
    windows (the time-resolved view of the same single run)."""

    name: str
    policy: str
    breakdown: OccupancyBreakdown
    bypass_fraction: float
    windows: list[Window]

    @property
    def evictions_reused(self) -> int:
        """Evicted lines that were hit while resident (summed windows)."""
        return sum(w.evictions_reused for w in self.windows)

    @property
    def evictions_dead(self) -> int:
        """Evicted lines never hit while resident (summed windows)."""
        return sum(w.evictions_dead for w in self.windows)

    @property
    def protected_trajectory(self) -> list[int]:
        """Per-window protected-line occupancy (PDP policies only)."""
        return [
            w.protected_lines for w in self.windows if w.protected_lines is not None
        ]


def run_fig5a(fast: bool = False) -> list[OccupancyResult]:
    """Occupancy breakdowns under DRRIP / SPDP-NB / SPDP-B.

    One :func:`run_llc` call per cell carries both the occupancy tracker
    and the windowed recorder; no re-simulation happens after the
    static-PD sweeps pick the SPDP operating points.
    """
    results = []
    for name in FIG5_BENCHMARKS:
        trace = default_trace(name, fast=fast)
        window_size = max(1, len(trace) // FIG5_WINDOW_COUNT)
        pd_nb, _ = best_static_pd(
            trace, EXPERIMENT_GEOMETRY, STATIC_PD_GRID, bypass=False
        )
        pd_b, _ = best_static_pd(
            trace, EXPERIMENT_GEOMETRY, STATIC_PD_GRID, bypass=True
        )
        policies = (
            ("DRRIP", DRRIPPolicy()),
            ("SPDP-NB", PDPPolicy(static_pd=pd_nb, bypass=False)),
            ("SPDP-B", PDPPolicy(static_pd=pd_b, bypass=True)),
        )
        for label, policy in policies:
            run = run_llc(
                trace,
                policy,
                EXPERIMENT_GEOMETRY,
                timing=TIMING,
                track_occupancy=True,
                occupancy_threshold=16,
                window_size=window_size,
            )
            results.append(
                OccupancyResult(
                    name=name,
                    policy=label,
                    breakdown=run.extra["occupancy"],
                    bypass_fraction=run.bypass_fraction,
                    windows=windows_from_payload(run.extra["timeseries"]),
                )
            )
    return results


@dataclass(frozen=True)
class WindowRDD:
    """Fig. 5b: one xalancbmk window's RDD."""

    name: str
    counts: np.ndarray
    peak_distance: int


def run_fig5b(fast: bool = False) -> list[WindowRDD]:
    """The three xalancbmk windows' RDDs (peaks must differ)."""
    windows = []
    for name in XALANC_WINDOWS:
        trace = default_trace(name, fast=fast)
        counts, _, _ = reuse_distance_distribution(
            trace, num_sets=EXPERIMENT_GEOMETRY.num_sets, d_max=256
        )
        peak = int(np.argmax(counts[17:])) + 17  # beyond-associativity peak
        windows.append(WindowRDD(name=name, counts=counts, peak_distance=peak))
    return windows


def format_report(
    occupancy: list[OccupancyResult], windows: list[WindowRDD]
) -> str:
    """Render the Fig. 5 tables, including the recorder-derived
    eviction-cause split and protected-occupancy sparkline."""
    rows = []
    for result in occupancy:
        access = result.breakdown.access_fractions()
        occ = result.breakdown.occupancy_fractions()
        evictions = result.evictions_reused + result.evictions_dead
        dead = result.evictions_dead / evictions if evictions else 0.0
        protected = result.protected_trajectory
        rows.append(
            [
                result.name,
                result.policy,
                f"{100 * access['hit']:5.1f}%",
                f"{100 * access['bypass']:5.1f}%",
                f"{100 * access['evicted_short']:5.1f}%",
                f"{100 * access['evicted_long']:5.1f}%",
                f"{100 * (occ['evicted_short'] + occ['evicted_long']):5.1f}%",
                str(result.breakdown.max_eviction_occupancy),
                f"{100 * dead:5.1f}%",
                sparkline([float(p) for p in protected], width=16)
                if protected
                else "-",
            ]
        )
    table_a = format_table(
        [
            "benchmark",
            "policy",
            "hit",
            "bypass",
            "evict<=16",
            "evict>16",
            "evictOcpy",
            "maxOcpy",
            "deadEvict",
            "protected/t",
        ],
        rows,
        title="Fig. 5a — access breakdown and evicted-line occupancy share",
    )
    table_b = format_table(
        ["window", "RDD peak (beyond W)"],
        [[w.name, str(w.peak_distance)] for w in windows],
        title="Fig. 5b — xalancbmk windows",
    )
    return table_a + "\n\n" + table_b


__all__ = [
    "FIG5_BENCHMARKS",
    "FIG5_WINDOW_COUNT",
    "OccupancyResult",
    "WindowRDD",
    "XALANC_WINDOWS",
    "format_report",
    "run_fig5a",
    "run_fig5b",
]
