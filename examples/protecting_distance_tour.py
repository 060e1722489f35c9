#!/usr/bin/env python
"""A tour of the protecting-distance machinery (Sec. 2-3 of the paper).

Walks through the pieces that make dynamic PDP work, on one workload:

1. measure the RDD with the "Real" RD sampler (32 sets x 32-entry FIFOs)
   and show it matches exact offline analysis;
2. evaluate the hit-rate model E(d_p) (Eq. 1) and locate the optimal PD;
3. run the same search on the cycle-level model of the paper's
   special-purpose PD processor and compare;
4. sweep static PDs through a real cache and show the model's optimum
   lands near the measured best (the paper's Fig. 6 story).

Run:  python examples/protecting_distance_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import ExperimentConfig, RDCounterArray, RDSampler, make_benchmark_trace
from repro.core.hit_rate_model import evaluate_e_curve, find_best_pd
from repro.core.pd_grid import pd_grid
from repro.hardware.pd_processor import run_pd_search
from repro.sim.runner import sweep_static_pd
from repro.traces.analysis import reuse_distance_distribution


def main() -> None:
    config = ExperimentConfig()
    trace = make_benchmark_trace(
        "483.xalancbmk.2", length=40_000, num_sets=config.num_sets
    )

    # -- 1. dynamic RDD via the hardware sampler ------------------------
    counters = RDCounterArray(d_max=config.d_max, step=config.step)
    sampler = RDSampler.real(
        config.num_sets,
        d_max=config.d_max,
        on_distance=counters.record_distance,
        on_access=counters.record_access,
    )
    for access in trace:
        sampler.observe(config.llc.set_index(access.address), access.address)
    exact_counts, _, _ = reuse_distance_distribution(
        trace, num_sets=config.num_sets, d_max=config.d_max
    )
    sampled_peak = int(np.argmax(counters.counts)) * config.step + config.step
    exact_peak = int(np.argmax(exact_counts[3:])) + 3
    print(
        f"sampled RDD peak ~{sampled_peak} vs exact peak {exact_peak} "
        f"({counters.total} sampled accesses)"
    )

    # -- 2. the hit-rate model E(d_p) ------------------------------------
    search = dict(step=config.step, d_e=float(config.associativity), min_pd=config.step)
    best_pd = find_best_pd(counters.counts, counters.total, **search)
    curve = evaluate_e_curve(counters.counts, counters.total, **search)
    print(f"model E(d_p): optimal PD = {best_pd} over {len(curve)} candidates")

    # -- 3. the special-purpose PD processor -----------------------------
    hw_pd, cycles = run_pd_search(
        counters.counts, counters.total, step=config.step, d_e=config.associativity
    )
    print(
        f"PD processor: PD = {hw_pd} in {cycles} cycles "
        f"({cycles / len(counters.counts):.0f} cycles per candidate d_p)"
    )

    # -- 4. validate against a static-PD sweep ---------------------------
    grid = pd_grid(config.associativity, d_max=config.d_max, step=16)
    runs = sweep_static_pd(trace, config.llc, grid, bypass=True)
    measured_best = min(grid, key=lambda pd: runs[pd].misses)
    print(f"measured best static PD (SPDP-B sweep): {measured_best}")
    print(
        f"hit rate at model PD vs best: "
        f"{runs[min(grid, key=lambda pd: abs(pd - best_pd))].hit_rate:.4f} vs "
        f"{runs[measured_best].hit_rate:.4f}"
    )


if __name__ == "__main__":
    main()
