"""Shared constants and helpers for the experiment drivers.

All experiments run on the scaled geometry (64 sets x 16 ways, the paper's
associativity) with SPEC-like traces positioned relative to (W = 16,
d_max = 256). ``fast=True`` halves trace lengths for quick smoke runs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.pd_grid import pd_grid
from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.obs.manifest import format_table
from repro.sim.config import ExperimentConfig
from repro.sim.parallel import run_matrix
from repro.traces.trace import Trace
from repro.workloads.spec_like import SINGLE_CORE_SUITE, make_benchmark_trace

#: Scaled LLC used by every single-core experiment.
EXPERIMENT_GEOMETRY = CacheGeometry(num_sets=64, ways=16)

#: The paper's 16-benchmark single-core suite.
EXPERIMENT_SUITE = SINGLE_CORE_SUITE

#: Default single-core trace length (accesses).
TRACE_LENGTH = 40_000

#: Dynamic-PD recomputation interval, scaled from the paper's 512K.
RECOMPUTE_INTERVAL = 4096

#: The static-PD sweep of Figs. 4, 5 and 10: W to d_max in steps of 16.
STATIC_PD_GRID = pd_grid(step=16)

#: Timing model shared by all experiments.
TIMING = TimingModel()

#: Per-core sets for the shared-LLC experiments (shared size = cores x this).
MULTICORE_SETS_PER_CORE = 16


def experiment_config() -> ExperimentConfig:
    """The ExperimentConfig matching the constants above."""
    return ExperimentConfig(
        llc=EXPERIMENT_GEOMETRY,
        recompute_interval=RECOMPUTE_INTERVAL,
        trace_length=TRACE_LENGTH,
    )


def trace_length(fast: bool) -> int:
    return TRACE_LENGTH // 2 if fast else TRACE_LENGTH


def default_trace(name: str, fast: bool = False, seed: int | None = None) -> Trace:
    """The canonical trace for one benchmark at experiment geometry."""
    return make_benchmark_trace(
        name,
        length=trace_length(fast),
        num_sets=EXPERIMENT_GEOMETRY.num_sets,
        seed=seed,
    )


def run_trace_grid(
    trace: Trace,
    factories: dict,
    max_workers: int | None = None,
    manifest_dir: str | None = None,
    on_event=None,
) -> dict:
    """One trace's policy grid at experiment geometry: one
    :func:`repro.sim.parallel.run_matrix` call, so a figure driver runs
    one grid per trace. Progress event keys are prefixed with the
    trace's name, so ``--progress`` lines name the benchmark.
    """
    if on_event is not None:
        forward = on_event

        def on_event(event):
            forward(replace(event, key=f"{trace.name}/{event.key}"))

    return run_matrix(
        trace,
        factories,
        EXPERIMENT_GEOMETRY,
        timing=TIMING,
        max_workers=max_workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )


__all__ = [
    "EXPERIMENT_GEOMETRY",
    "EXPERIMENT_SUITE",
    "MULTICORE_SETS_PER_CORE",
    "RECOMPUTE_INTERVAL",
    "STATIC_PD_GRID",
    "TIMING",
    "TRACE_LENGTH",
    "default_trace",
    "experiment_config",
    "format_table",
    "run_trace_grid",
    "trace_length",
]
