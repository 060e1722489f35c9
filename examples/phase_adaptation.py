#!/usr/bin/env python
"""Phase adaptation demo (Sec. 6.4 / Fig. 11 of the paper).

Builds a workload that switches its reuse-distance profile twice (three
xalancbmk-like windows with different peaks), runs dynamic PDP with
several PD-recompute intervals, and prints the PD trajectory — the PD
must move when the phase changes, and too-slow recomputation costs
performance.

Run:  python examples/phase_adaptation.py
"""

from __future__ import annotations

from repro import DIPPolicy, ExperimentConfig, PDPPolicy, run_llc
from repro.workloads.phased import phase_changing_profiles


def main() -> None:
    config = ExperimentConfig()
    workload = phase_changing_profiles(phase_length=20_000)["483.xalancbmk"]
    trace = workload.generate(num_sets=config.num_sets)
    print(f"workload: {trace.name} with {len(workload.phases)} phases, {len(trace)} accesses")

    dip = run_llc(trace, DIPPolicy(), config.llc)
    print(f"\nDIP baseline: hit rate {dip.hit_rate:.4f}, IPC {dip.ipc:.3f}")

    print(f"\n{'reset interval':>14s} {'hit rate':>9s} {'IPC':>7s}  PD trajectory")
    for interval in (1024, 4096, 16384):
        policy = PDPPolicy(recompute_interval=interval)
        result = run_llc(trace, policy, config.llc)
        history = result.extra["pd_history"]
        # Sample the trajectory at up to 10 points for display.
        stride = max(1, len(history) // 10)
        shown = "->".join(str(pd) for _, (pd,) in history[::stride])
        print(
            f"{interval:14d} {result.hit_rate:9.4f} {result.ipc:7.3f}  {shown}"
        )
    print(
        "\nThe PD follows the phase peaks; a short interval tracks the"
        " change quickly, a long one lags behind (Fig. 11a)."
    )


if __name__ == "__main__":
    main()
