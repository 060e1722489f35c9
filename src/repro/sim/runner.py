"""Experiment helpers: static-PD sweeps and the best static PD."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from functools import partial

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.sim.parallel import run_matrix
from repro.sim.single_core import SingleCoreResult
from repro.traces.trace import Trace


def sweep_static_pd(
    trace: Trace,
    geometry: CacheGeometry,
    pds: Iterable[int],
    bypass: bool = True,
    n_c: int = 8,
    timing: TimingModel | None = None,
    max_workers: int | None = 1,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable | None = None,
) -> dict[int, SingleCoreResult]:
    """Run static PDP (SPDP) for each candidate PD (Sec. 2.3).

    One :func:`repro.sim.parallel.run_matrix` grid keyed by PD:
    ``max_workers=1`` (the default) runs the cells serially in-process,
    any other value — including None for auto — fans them over a process
    pool. ``manifest_dir`` / ``on_event`` follow the ``run_matrix``
    observability contract regardless of worker count.
    """
    factories = {
        pd: partial(PDPPolicy, static_pd=pd, bypass=bypass, n_c=n_c) for pd in pds
    }
    return run_matrix(
        trace,
        factories,
        geometry,
        timing=timing,
        max_workers=max_workers,
        engine=engine,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )


def best_static_pd(
    trace: Trace,
    geometry: CacheGeometry,
    pds: Iterable[int],
    bypass: bool = True,
    n_c: int = 8,
    timing: TimingModel | None = None,
    max_workers: int | None = 1,
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable | None = None,
) -> tuple[int, SingleCoreResult]:
    """The PD minimizing misses over a sweep, with its result."""
    results = sweep_static_pd(
        trace,
        geometry,
        pds,
        bypass=bypass,
        n_c=n_c,
        timing=timing,
        max_workers=max_workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )
    pd = min(results, key=lambda candidate: results[candidate].misses)
    return pd, results[pd]


__all__ = [
    "best_static_pd",
    "sweep_static_pd",
]
