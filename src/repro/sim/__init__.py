"""Simulation drivers: configs, single-core and multi-core runs, metrics."""

from repro.sim.config import ExperimentConfig
from repro.sim.metrics import (
    geometric_mean,
    harmonic_mean_normalized_ipc,
    throughput,
    weighted_ipc,
)
from repro.sim.multi_core import MultiCoreResult, run_shared_llc, single_thread_baselines
from repro.sim.parallel import (
    resolve_max_workers,
    run_matrix,
    run_mix_matrix,
)
from repro.sim.runner import sweep_static_pd
from repro.sim.single_core import ENGINES, SingleCoreResult, run_llc

__all__ = [
    "ENGINES",
    "ExperimentConfig",
    "MultiCoreResult",
    "SingleCoreResult",
    "geometric_mean",
    "harmonic_mean_normalized_ipc",
    "resolve_max_workers",
    "run_llc",
    "run_matrix",
    "run_mix_matrix",
    "run_shared_llc",
    "single_thread_baselines",
    "sweep_static_pd",
    "throughput",
    "weighted_ipc",
]
