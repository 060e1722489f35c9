"""Job bodies of the sweep service: run one spec with resume.

:func:`execute_spec` runs a :class:`~repro.service.jobs.SweepSpec`.
Simulation specs go through the resumable grid runners of
:mod:`repro.sim.parallel` (:func:`run_resumable_matrix`,
:func:`run_resumable_mix_matrix`), where the resume rules live: the
per-cell manifests in the job's namespace directory say which cells
already ran, matching cells are skipped and rebuilt bit-identically,
and a namespace with unparseable manifests is refused with
:class:`CorruptManifestError` unless the spec sets ``force``.
``predict`` specs run the analytical explorer (:func:`execute_predict`),
skipped when the namespace already holds a matching ``explore``
manifest. The resume names are re-exported here for the service API.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.obs.manifest import Manifest, ManifestLoadReport, fingerprint_source
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.sim.parallel import (
    CorruptManifestError,
    ResumePlan,
    check_resume_substrate,
    manifest_satisfies_cell,
    multi_core_result_from_manifest,
    run_resumable_matrix,
    run_resumable_mix_matrix,
    single_core_result_from_manifest,
)


def _matching_explore_manifest(
    report: ManifestLoadReport, fingerprint: str, config: dict
) -> Manifest | None:
    """The namespace's ``kind="explore"`` manifest satisfying a predict
    cell (same trace fingerprint, same design-space config), or None."""
    for manifest in report.manifests:
        if manifest.kind != "explore":
            continue
        if manifest.trace_fingerprint != fingerprint:
            continue
        if all(manifest.config.get(key) == value for key, value in config.items()):
            return manifest
    return None


def execute_predict(
    spec,
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run one ``predict`` spec: the analytical explorer with resume.

    The cell identity is (trace fingerprint, design-space config): when
    the namespace already holds a ``kind="explore"`` manifest matching
    both, the pass is skipped and the frontier reloaded from it —
    profiling is cheap but not free, and skip-on-resume keeps predict
    jobs idempotent like their simulation siblings. Returns the usual
    summary dict plus ``frontier`` (the ranked geometry dicts) and
    ``followups`` (``top_k`` single-cell matrix specs as dicts, ready
    for :meth:`SweepSpec.from_dict` — the daemon auto-submits them).
    """
    from repro.explore.explorer import DEFAULT_SETS, DEFAULT_WAYS, explore
    from repro.service.jobs import load_matrix_source, predict_followup_specs

    spec.validate()
    report = check_resume_substrate(manifest_dir, force=spec.force)
    trace = load_matrix_source(spec)
    sets = tuple(spec.explore_sets) or DEFAULT_SETS
    ways = tuple(spec.explore_ways) or DEFAULT_WAYS
    config = {
        "sets": sorted(set(int(s) for s in sets)),
        "ways": sorted(set(int(w) for w in ways)),
        "pd_max": spec.pd_max,
        "pd_step": spec.pd_step,
        "d_max": spec.d_max,
        "line_size": spec.line_size,
        "model_variant": "default",
    }
    reporter = ProgressReporter(1, on_event, label="predict")
    existing = None
    if any(m.kind == "explore" for m in report.manifests):
        fingerprint = fingerprint_source(trace)
        existing = _matching_explore_manifest(report, fingerprint, config)
    if existing is not None:
        reporter.skipped("explore")
        frontier = list(existing.extra.get("frontier", []))
        skipped, ran = 1, 0
    else:
        reporter.started("explore")
        result = explore(
            trace,
            sets=sets,
            ways=ways,
            pd_max=spec.pd_max,
            pd_step=spec.pd_step,
            d_max=spec.d_max,
            line_size=spec.line_size,
            manifest_dir=manifest_dir,
        )
        reporter.finished("explore")
        frontier = [
            {
                "num_sets": p.num_sets,
                "ways": p.ways,
                "capacity_bytes": p.capacity_bytes,
                "best_pd": p.best_pd,
                "best_hit_rate": round(p.best_hit_rate, 9),
                "confidence": p.confidence,
            }
            for p in result.frontier
        ]
        skipped, ran = 0, 1
    followups = predict_followup_specs(spec, frontier) if spec.top_k else []
    return {
        "kind": "predict",
        "total_cells": 1,
        "skipped_cells": skipped,
        "ran_cells": ran,
        "cells": 1,
        "frontier": frontier,
        "followups": [f.to_dict() for f in followups],
    }


def execute_spec(
    spec,
    manifest_dir: str | os.PathLike,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict:
    """Run one :class:`~repro.service.jobs.SweepSpec` with resume.

    The synchronous job body the service worker runs in a thread; also
    directly usable as a library entry point. Returns a summary dict
    (``kind``, ``total_cells``, ``skipped_cells``, ``ran_cells``).
    Simulation failures propagate (after the grid completes its other
    cells and writes its sweep manifest — the ``run_matrix`` contract),
    as does :class:`CorruptManifestError`. ``predict`` specs route to
    :func:`execute_predict`, whose summary additionally carries the
    predicted frontier and any follow-up simulation specs.
    """
    from repro.service.jobs import (
        load_matrix_source,
        load_mix_traces,
        policy_factories,
        spec_geometry,
    )

    if spec.kind == "predict":
        return execute_predict(spec, manifest_dir, on_event)
    spec.validate()
    factories = policy_factories(spec)
    geometry = spec_geometry(spec)
    max_workers = None if spec.workers == 0 else spec.workers
    if spec.kind == "matrix":
        trace = load_matrix_source(spec)
        results, plan = run_resumable_matrix(
            trace,
            factories,
            geometry,
            manifest_dir,
            engine=spec.engine,
            max_workers=max_workers,
            window_size=spec.window_size,
            match_git_sha=spec.match_git_sha,
            force=spec.force,
            on_event=on_event,
        )
    else:
        mixes = load_mix_traces(spec)
        engine = "fast" if spec.engine == "vector" else spec.engine
        results, plan = run_resumable_mix_matrix(
            mixes,
            factories,
            geometry,
            manifest_dir,
            engine=engine,
            max_workers=max_workers,
            match_git_sha=spec.match_git_sha,
            force=spec.force,
            on_event=on_event,
        )
    return {
        "kind": spec.kind,
        "total_cells": plan.total,
        "skipped_cells": len(plan.skipped),
        "ran_cells": len(plan.to_run),
        "cells": len(results),
    }


__all__ = [
    "CorruptManifestError",
    "ResumePlan",
    "check_resume_substrate",
    "execute_predict",
    "execute_spec",
    "manifest_satisfies_cell",
    "multi_core_result_from_manifest",
    "run_resumable_matrix",
    "run_resumable_mix_matrix",
    "single_core_result_from_manifest",
]
