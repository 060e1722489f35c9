"""Fig. 11 — adaptation to program phases.

(a) sensitivity of dynamic PDP to the PD-recompute interval on the five
phase-changing workloads; (b) policy comparison on those workloads;
(c) the PD trajectory over time, which must move when the phase changes.

The PD trajectory and the per-window hit-rate profile both come from the
run's windowed time series (``run_llc(window_size=...)``, see
:mod:`repro.obs.timeseries`; window size = the PD recompute interval, so
each window closes with the PD in force for that stretch of the trace).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pdp_policy import PDPPolicy
from repro.experiments.common import EXPERIMENT_GEOMETRY, TIMING, format_table
from repro.obs.bench import sparkline
from repro.obs.timeseries import windows_from_payload
from repro.policies.lip_bip_dip import DIPPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.sim.metrics import percent_change
from repro.sim.single_core import run_llc
from repro.workloads.phased import phase_changing_profiles

#: Scaled analogues of the paper's 1M..8M-access reset intervals.
RESET_INTERVALS = (1024, 2048, 4096, 8192)

#: The reset interval whose run provides the Fig. 11c trajectory.
TRAJECTORY_INTERVAL = 4096


@dataclass(frozen=True)
class PhaseResult:
    """One phased workload's Fig. 11 numbers.

    ``pd_history`` is the recorder's ``(window_end, pd)`` trajectory and
    ``window_hit_rates`` the matching per-window hit rates, both from the
    ``TRAJECTORY_INTERVAL`` run.
    """

    name: str
    ipc_by_interval: dict[int, float]
    dip_ipc: float
    drrip_ipc: float
    pdp_ipc: float
    pd_history: list[tuple[int, int]]
    window_hit_rates: list[float]

    @property
    def pd_values_seen(self) -> set[int]:
        """Distinct PDs the run settled on (must be >1 across phases)."""
        return {pd for _, pd in self.pd_history}


def run_fig11(fast: bool = False, phase_length: int | None = None) -> list[PhaseResult]:
    """Run the Fig. 11 grid over the phase-changing workloads."""
    phase_length = phase_length or (10_000 if fast else 20_000)
    results = []
    for key, workload in phase_changing_profiles(phase_length=phase_length).items():
        trace = workload.generate(num_sets=EXPERIMENT_GEOMETRY.num_sets)
        ipc_by_interval = {}
        best_history: list[tuple[int, int]] = []
        best_hit_rates: list[float] = []
        for interval in RESET_INTERVALS:
            policy = PDPPolicy(recompute_interval=interval)
            run = run_llc(
                trace, policy, EXPERIMENT_GEOMETRY, timing=TIMING,
                window_size=interval,
            )
            ipc_by_interval[interval] = run.ipc
            if interval == TRAJECTORY_INTERVAL:
                windows = windows_from_payload(run.extra["timeseries"])
                best_history = [(w.end, w.pd) for w in windows if w.pd is not None]
                best_hit_rates = [w.hit_rate for w in windows]
        dip = run_llc(trace, DIPPolicy(), EXPERIMENT_GEOMETRY, timing=TIMING)
        drrip = run_llc(trace, DRRIPPolicy(), EXPERIMENT_GEOMETRY, timing=TIMING)
        results.append(
            PhaseResult(
                name=workload.name,
                ipc_by_interval=ipc_by_interval,
                dip_ipc=dip.ipc,
                drrip_ipc=drrip.ipc,
                pdp_ipc=ipc_by_interval[TRAJECTORY_INTERVAL],
                pd_history=best_history,
                window_hit_rates=best_hit_rates,
            )
        )
    return results


def format_report(results: list[PhaseResult]) -> str:
    """Render the Fig. 11 tables (interval sensitivity, policy
    comparison, PD trajectory, per-window hit-rate sparkline)."""
    interval_rows = []
    for result in results:
        baseline = result.ipc_by_interval[RESET_INTERVALS[0]] or 1.0
        interval_rows.append(
            [result.name]
            + [
                f"{result.ipc_by_interval[i] / baseline:.3f}"
                for i in RESET_INTERVALS
            ]
        )
    table_a = format_table(
        ["workload"] + [str(i) for i in RESET_INTERVALS],
        interval_rows,
        title="Fig. 11a — IPC vs PD reset interval (normalized to shortest)",
    )
    compare_rows = [
        [
            result.name,
            f"{percent_change(result.drrip_ipc, result.dip_ipc):+6.2f}%",
            f"{percent_change(result.pdp_ipc, result.dip_ipc):+6.2f}%",
            str(len(result.pd_values_seen)),
            "->".join(str(pd) for _, pd in result.pd_history[:8]),
            sparkline(result.window_hit_rates, width=16)
            if result.window_hit_rates
            else "-",
        ]
        for result in results
    ]
    table_b = format_table(
        [
            "workload",
            "DRRIP vs DIP",
            "PDP vs DIP",
            "#PDs",
            "PD trajectory (head)",
            "hitrate/t",
        ],
        compare_rows,
        title="Fig. 11b/c — phased workloads: policy comparison and PD over time",
    )
    return table_a + "\n\n" + table_b


__all__ = [
    "PhaseResult",
    "RESET_INTERVALS",
    "TRAJECTORY_INTERVAL",
    "format_report",
    "run_fig11",
]
