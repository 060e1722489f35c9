#!/usr/bin/env python
"""Shared-LLC partitioning demo (Sec. 4 / Fig. 12 of the paper).

Builds a 4-core multi-programmed mix (one cache-hungry reuser, one
streaming thread, two moderate threads), runs it under TA-DRRIP, UCP, PIPP
and the PD-based partitioning policy, and prints the paper's three
metrics: weighted IPC, throughput and harmonic fairness. Also shows the
per-thread protecting distances the PD policy converged to — streaming
threads get short PDs (small partitions), reusers get PDs covering their
reuse peaks.

Run:  python examples/shared_cache_partitioning.py
"""

from __future__ import annotations

from repro import PDPartitionPolicy, PIPPPolicy, TADRRIPPolicy, UCPPolicy
from repro.memory.cache import CacheGeometry
from repro.sim.multi_core import run_shared_llc, single_thread_baselines
from repro.workloads.spec_like import make_benchmark_trace

CORES = 4
MIX = ("450.soplex", "433.milc", "464.h264ref", "470.lbm")


def main() -> None:
    geometry = CacheGeometry(num_sets=16 * CORES, ways=16)
    traces = [
        make_benchmark_trace(name, length=20_000, num_sets=geometry.num_sets, seed=50 + i)
        for i, name in enumerate(MIX)
    ]
    print(f"mix: {MIX} on a shared {geometry} LLC")
    singles = single_thread_baselines(traces, geometry)

    policies = {
        "TA-DRRIP": lambda: TADRRIPPolicy(num_threads=CORES),
        "UCP": lambda: UCPPolicy(num_threads=CORES),
        "PIPP": lambda: PIPPPolicy(num_threads=CORES),
        "PD-partition": lambda: PDPartitionPolicy(
            num_threads=CORES, recompute_interval=8192, sampler_mode="full"
        ),
    }
    print(f"\n{'policy':14s} {'W':>7s} {'T':>7s} {'H':>7s}   per-thread MPKI")
    pd_policy = None
    for name, factory in policies.items():
        policy = factory()
        result = run_shared_llc(traces, policy, geometry, singles=singles)
        mpkis = " ".join(f"{t.mpki:6.1f}" for t in result.threads)
        print(
            f"{name:14s} {result.weighted:7.3f} {result.throughput:7.3f} "
            f"{result.hmean:7.3f}   {mpkis}"
        )
        if isinstance(policy, PDPartitionPolicy):
            pd_policy = policy

    if pd_policy is not None:
        print("\nPD vector chosen by the partitioning policy (one per thread):")
        for name, pd in zip(MIX, pd_policy.engine.pds):
            kind = "streaming -> short PD" if pd <= 16 else "reuser -> protected"
            print(f"  {name:16s} PD = {pd:4d}   ({kind})")


if __name__ == "__main__":
    main()
