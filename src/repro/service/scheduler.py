"""Job bodies of the sweep service: run one spec with resume.

:func:`execute_spec` runs a :class:`~repro.service.jobs.SweepSpec` as
one grid of :func:`repro.sim.parallel.run_cells` with ``resume=True``,
whatever its kind: a ``matrix`` job is an :func:`llc_cells` grid, a
``mix_matrix`` job a :func:`mix_cells` grid, and a ``predict`` job one
:class:`~repro.explore.explorer.ExploreCell`. The resume rules live in
:mod:`repro.sim.parallel`: the per-cell manifests in the job's
namespace directory say which cells already ran, a cell a manifest
satisfies (:func:`manifest_satisfies_cell`, the one identity rule) is
skipped and its result rebuilt from it, and a namespace with
unparseable manifests is refused with :class:`CorruptManifestError`
unless the spec sets ``force``. The resume names are re-exported here
for the service API.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.obs.progress import ProgressEvent
from repro.sim.parallel import (
    CorruptManifestError,
    ResumePlan,
    check_resume_substrate,
    llc_cells,
    manifest_satisfies_cell,
    mix_cells,
    multi_core_result_from_manifest,
    run_cells,
    single_core_result_from_manifest,
)
from repro.traces.stream import TraceStream


def execute_spec(
    spec,
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run one :class:`~repro.service.jobs.SweepSpec` with resume.

    The synchronous job body the service worker runs in a thread; also
    directly usable as a library entry point. Returns a summary dict
    (``kind``, ``total_cells``, ``skipped_cells``, ``ran_cells``,
    ``cells``); a ``predict`` job's summary also carries ``frontier``
    (the ranked geometry dicts) and ``followups`` (``top_k``
    single-cell matrix specs as dicts, ready for
    :meth:`SweepSpec.from_dict` — the daemon auto-submits them). Cell
    failures propagate (after the grid completes its other cells and
    writes its sweep manifest — the ``run_cells`` contract), as does
    :class:`CorruptManifestError`.
    """
    from repro.explore.explorer import (
        DEFAULT_SETS,
        DEFAULT_WAYS,
        ExploreCell,
        design_space,
    )
    from repro.service.jobs import (
        load_matrix_source,
        load_mix_traces,
        policy_factories,
        predict_followup_specs,
        spec_geometry,
    )

    spec.validate()
    config = None
    if spec.kind == "predict":
        inputs = load_matrix_source(spec)
        space = design_space(
            spec.explore_sets or DEFAULT_SETS,
            spec.explore_ways or DEFAULT_WAYS,
            spec.pd_max,
            spec.pd_step,
            spec.d_max,
            spec.line_size,
        )
        length = inputs.length if isinstance(inputs, TraceStream) else len(inputs)
        cells = [
            ExploreCell(inputs.name, space, str(manifest_dir), accesses=length or 0)
        ]
    elif spec.kind == "matrix":
        factories = policy_factories(spec)
        inputs, cells = llc_cells(
            load_matrix_source(spec),
            factories,
            spec_geometry(spec),
            None,
            spec.engine,
            manifest_dir,
            spec.window_size,
        )
    else:
        factories = policy_factories(spec)
        inputs = load_mix_traces(spec)
        cells = mix_cells(
            inputs, factories, spec_geometry(spec), None, None, spec.engine,
            manifest_dir,
        )
        config = {"mixes": len(inputs)}
    results, plan = run_cells(
        spec.kind,
        cells,
        inputs,
        config=config,
        max_workers=None if spec.workers == 0 else spec.workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
        resume=True,
        force=spec.force,
        match_git_sha=spec.match_git_sha,
    )
    summary = {
        "kind": spec.kind,
        "total_cells": plan.total,
        "skipped_cells": len(plan.skipped),
        "ran_cells": len(plan.to_run),
        "cells": len(results),
    }
    if spec.kind == "predict":
        frontier = results[ExploreCell.key]
        followups = predict_followup_specs(spec, frontier) if spec.top_k else []
        summary["frontier"] = frontier
        summary["followups"] = [f.to_dict() for f in followups]
    return summary


__all__ = [
    "CorruptManifestError",
    "ResumePlan",
    "check_resume_substrate",
    "execute_spec",
    "manifest_satisfies_cell",
    "multi_core_result_from_manifest",
    "single_core_result_from_manifest",
]
