"""Fig. 12 — shared-cache partitioning at 4 and 16 cores.

Weighted IPC (W), throughput (T) and harmonic fairness (H) for UCP, PIPP
and the PD-based partitioning, normalized to TA-DRRIP, over random
multi-programmed mixes. The paper's shape: PD-based partitioning is
slightly ahead at 4 cores and scales best at 16 cores, where UCP and PIPP
fall behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.experiments.common import MULTICORE_SETS_PER_CORE, TIMING, format_table
from repro.memory.cache import CacheGeometry
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.partitioning.pipp import PIPPPolicy
from repro.partitioning.ucp import UCPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.sim.multi_core import single_thread_baselines
from repro.sim.parallel import run_mix_matrix
from repro.workloads.mixes import generate_mixes, make_mix_traces

#: Key under which the TA-DRRIP normalization baseline runs in the grid.
BASELINE = "TA-DRRIP"


def shared_geometry(cores: int) -> CacheGeometry:
    """Shared LLC: per-core slice times the core count (paper Sec. 5)."""
    return CacheGeometry(num_sets=MULTICORE_SETS_PER_CORE * cores, ways=16)


def partition_policies(cores: int) -> dict[str, callable]:
    # functools.partial (not lambdas) so the factories pickle and the
    # grid can fan out over run_mix_matrix's worker processes.
    return {
        "UCP": partial(UCPPolicy, num_threads=cores),
        "PIPP": partial(PIPPPolicy, num_threads=cores),
        "PDP": partial(
            PDPartitionPolicy,
            num_threads=cores,
            recompute_interval=8192,
            sampler_mode="full",
        ),
    }


@dataclass
class MixResult:
    """One mix's W/T/H per policy, normalized to TA-DRRIP."""

    mix_name: str
    benchmarks: tuple[str, ...]
    weighted: dict[str, float] = field(default_factory=dict)
    throughput: dict[str, float] = field(default_factory=dict)
    hmean: dict[str, float] = field(default_factory=dict)


def run_fig12(
    cores: int,
    num_mixes: int = 4,
    length_per_thread: int | None = None,
    seed: int = 7,
    engine: str = "vector",
    max_workers: int | None = None,
    manifest_dir: str | None = None,
    on_event=None,
) -> list[MixResult]:
    """Run the Fig. 12 comparison for one core count.

    The (mix x policy) grid is one
    :func:`repro.sim.parallel.run_mix_matrix` call: ``max_workers=None``
    (the default) fans it over a process pool, 1 forces serial.
    ``manifest_dir`` / ``on_event`` follow the :func:`run_mix_matrix`
    observability contract (one manifest per (mix, policy) cell plus a
    grid manifest).
    """
    if length_per_thread is None:
        length_per_thread = 20_000 if cores <= 4 else 8_000
    geometry = shared_geometry(cores)
    mixes = generate_mixes(num_mixes, cores=cores, seed=seed)
    mix_traces = {
        mix.name: make_mix_traces(
            mix, length_per_thread=length_per_thread, num_sets=geometry.num_sets
        )
        for mix in mixes
    }
    singles = {
        name: single_thread_baselines(traces, geometry, timing=TIMING, engine=engine)
        for name, traces in mix_traces.items()
    }
    factories = {
        BASELINE: partial(TADRRIPPolicy, num_threads=cores),
        **partition_policies(cores),
    }
    grid = run_mix_matrix(
        mix_traces,
        factories,
        geometry,
        timing=TIMING,
        singles=singles,
        max_workers=max_workers,
        engine=engine,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )
    results = []
    for mix in mixes:
        baseline = grid[(mix.name, BASELINE)]
        entry = MixResult(mix_name=mix.name, benchmarks=mix.benchmarks)
        for label in partition_policies(cores):
            run = grid[(mix.name, label)]
            entry.weighted[label] = run.weighted / baseline.weighted
            entry.throughput[label] = run.throughput / baseline.throughput
            entry.hmean[label] = run.hmean / baseline.hmean
        results.append(entry)
    return results


def averages(results: list[MixResult]) -> dict[str, dict[str, float]]:
    """Mean normalized W/T/H per policy."""
    labels = results[0].weighted.keys()
    out: dict[str, dict[str, float]] = {}
    for label in labels:
        out[label] = {
            "W": sum(r.weighted[label] for r in results) / len(results),
            "T": sum(r.throughput[label] for r in results) / len(results),
            "H": sum(r.hmean[label] for r in results) / len(results),
        }
    return out


def format_report(results_by_cores: dict[int, list[MixResult]]) -> str:
    sections = []
    for cores, results in results_by_cores.items():
        rows = []
        for label, metrics in averages(results).items():
            rows.append(
                [
                    label,
                    f"{100 * (metrics['W'] - 1):+6.2f}%",
                    f"{100 * (metrics['T'] - 1):+6.2f}%",
                    f"{100 * (metrics['H'] - 1):+6.2f}%",
                ]
            )
        sections.append(
            format_table(
                ["policy", "W vs TA-DRRIP", "T vs TA-DRRIP", "H vs TA-DRRIP"],
                rows,
                title=f"Fig. 12 — {cores}-core partitioning ({len(results)} mixes)",
            )
        )
    return "\n\n".join(sections)


__all__ = [
    "BASELINE",
    "MixResult",
    "averages",
    "format_report",
    "partition_policies",
    "run_fig12",
    "shared_geometry",
]
