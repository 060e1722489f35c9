"""The design-space explorer: thousands of geometries from one pass.

``explore()`` profiles a trace once (:mod:`repro.explore.profile`),
builds one :class:`~repro.explore.model.SetModelView` per candidate set
count, and analytically evaluates every ``(sets, ways, d_p)`` point on
the canonical PD grid (:mod:`repro.core.pd_grid`) — no simulation. The
result carries per-geometry predictions (full PD curve, predicted-best
PD, confidence tag), a capacity-ranked Pareto frontier, and is
persisted as a ``kind="explore"`` manifest whose trace fingerprint ties
it to any simulation manifests of the same trace (the hook
``repro obs report`` uses to render prediction-vs-simulation error
tables).

:class:`ExploreCell` wraps one ``explore()`` pass as a grid cell of
:func:`repro.sim.parallel.run_cells`, which is how the sweep daemon
runs a ``predict`` job with the same resume rule as its simulation
jobs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.pd_grid import pd_grid
from repro.explore.model import MODEL_VARIANTS, build_view, predict_curve
from repro.explore.profile import TraceProfile, profile_trace
from repro.obs.manifest import Manifest, fingerprint_source

#: Default candidate set counts (powers of two within the profiled range).
DEFAULT_SETS = (16, 32, 64, 128, 256, 512)

#: Default candidate associativities.
DEFAULT_WAYS = (1, 2, 4, 8, 16)

#: Per-set access counts below this multiple of the associativity mark a
#: geometry's prediction as low-confidence (data-starved profile).
CONFIDENCE_ACCESS_FACTOR = 8


@dataclass
class GeometryPrediction:
    """Analytical prediction for one (sets, ways) geometry."""

    num_sets: int
    ways: int
    line_size: int
    pds: list[int]
    hit_rates: list[float]
    best_pd: int
    best_hit_rate: float
    confidence: str
    on_frontier: bool = False

    @property
    def capacity_bytes(self) -> int:
        """Cache capacity implied by the geometry."""
        return self.num_sets * self.ways * self.line_size

    def to_dict(self) -> dict:
        """JSON-native form for manifests."""
        return {
            "num_sets": self.num_sets,
            "ways": self.ways,
            "line_size": self.line_size,
            "capacity_bytes": self.capacity_bytes,
            "pds": list(self.pds),
            "hit_rates": [round(h, 9) for h in self.hit_rates],
            "best_pd": self.best_pd,
            "best_hit_rate": round(self.best_hit_rate, 9),
            "confidence": self.confidence,
            "on_frontier": self.on_frontier,
        }


@dataclass
class ExplorationResult:
    """Everything one ``explore()`` call produced."""

    profile_summary: dict
    predictions: list[GeometryPrediction]
    n_points: int
    elapsed_s: float
    model_variant: str = "default"
    manifest_path: str | None = None
    run_id: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def frontier(self) -> list[GeometryPrediction]:
        """Pareto-frontier geometries, best predicted hit rate first."""
        points = [p for p in self.predictions if p.on_frontier]
        return sorted(points, key=lambda p: -p.best_hit_rate)

    def frontier_rows(self) -> list[dict]:
        """The frontier as the JSON rows an explore manifest persists
        (``extra["frontier"]``) and a predict job returns."""
        return [
            {
                "num_sets": p.num_sets,
                "ways": p.ways,
                "capacity_bytes": p.capacity_bytes,
                "best_pd": p.best_pd,
                "best_hit_rate": round(p.best_hit_rate, 9),
                "confidence": p.confidence,
            }
            for p in self.frontier
        ]

    def prediction_for(self, num_sets: int, ways: int) -> GeometryPrediction | None:
        """The prediction of one geometry, or None when absent."""
        for point in self.predictions:
            if point.num_sets == num_sets and point.ways == ways:
                return point
        return None


def _mark_frontier(predictions: list[GeometryPrediction]) -> None:
    """Flag Pareto-optimal geometries (no cheaper-or-equal one beats them)."""
    by_capacity = sorted(
        predictions, key=lambda p: (p.capacity_bytes, -p.best_hit_rate)
    )
    best_so_far = -1.0
    for point in by_capacity:
        if point.best_hit_rate > best_so_far:
            point.on_frontier = True
            best_so_far = point.best_hit_rate


def design_space(
    sets: tuple[int, ...] | list[int] = DEFAULT_SETS,
    ways: tuple[int, ...] | list[int] = DEFAULT_WAYS,
    pd_max: int = 256,
    pd_step: int = 4,
    d_max: int = 1_024,
    line_size: int = 64,
    model_variant: str = "default",
) -> dict:
    """The design-space ``config`` an explore manifest records: the
    :func:`explore` arguments, with ``sets`` and ``ways`` sorted and
    deduplicated."""
    return {
        "sets": sorted(set(int(s) for s in sets)),
        "ways": sorted(set(int(w) for w in ways)),
        "pd_max": pd_max,
        "pd_step": pd_step,
        "d_max": d_max,
        "line_size": line_size,
        "model_variant": model_variant,
    }


def explore(
    source,
    sets: tuple[int, ...] | list[int] = DEFAULT_SETS,
    ways: tuple[int, ...] | list[int] = DEFAULT_WAYS,
    pd_max: int = 256,
    pd_step: int = 4,
    d_max: int = 1_024,
    line_size: int = 64,
    model_variant: str = "default",
    profile: TraceProfile | None = None,
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
) -> ExplorationResult:
    """Analytically evaluate the full (sets, ways, d_p) design space.

    One profiling pass over ``source`` (skipped when a prebuilt
    ``profile`` is passed), then pure arithmetic per candidate point:
    for each geometry the canonical PD grid
    ``pd_grid(ways, pd_max, pd_step)`` is swept through the model and
    the best candidate kept. Geometries whose per-set access count
    falls below ``CONFIDENCE_ACCESS_FACTOR * ways`` are tagged
    ``confidence="low"`` — the profile is data-starved there and the
    honest answer is "simulate instead" (see ``docs/EXPLORER.md``).

    When ``manifest_dir`` is given, a ``kind="explore"`` manifest is
    saved carrying the profiling fingerprint, the full prediction set
    and the frontier — auditable and resumable by the sweep service.
    """
    if model_variant not in MODEL_VARIANTS:
        raise ValueError(
            f"unknown model variant {model_variant!r}; known: {MODEL_VARIANTS}"
        )
    started = perf_counter()
    if profile is None:
        max_sets = max(max(sets), 1)
        profile = profile_trace(source, max_sets=max_sets)
    predictions: list[GeometryPrediction] = []
    n_points = 0
    max_ways = max(ways)
    for num_sets in sorted(set(int(s) for s in sets)):
        view = build_view(
            profile, num_sets, d_max=d_max, max_ways=max_ways,
            variant=model_variant,
        )
        accesses_per_set = profile.total_accesses / num_sets
        for way_count in sorted(set(int(w) for w in ways)):
            pds = pd_grid(way_count, d_max=pd_max, step=pd_step)
            curve = predict_curve(view, way_count, pds)
            n_points += len(pds)
            best_index = max(range(len(pds)), key=lambda i: curve[i])
            confidence = (
                "high"
                if accesses_per_set >= CONFIDENCE_ACCESS_FACTOR * way_count
                else "low"
            )
            predictions.append(
                GeometryPrediction(
                    num_sets=num_sets,
                    ways=way_count,
                    line_size=line_size,
                    pds=pds,
                    hit_rates=curve,
                    best_pd=pds[best_index],
                    best_hit_rate=curve[best_index],
                    confidence=confidence,
                )
            )
    _mark_frontier(predictions)
    elapsed = perf_counter() - started
    result = ExplorationResult(
        profile_summary=profile.summary(),
        predictions=predictions,
        n_points=n_points,
        elapsed_s=elapsed,
        model_variant=model_variant,
    )
    if manifest_dir is not None:
        summary = result.profile_summary
        frontier = result.frontier
        manifest = Manifest.for_run(
            "explore",
            summary.get("name", "trace"),
            ExploreCell.policy,
            elapsed,
            summary.get("total_accesses", 0),
            run_meta={
                "profile": summary,
                "predictions": [p.to_dict() for p in predictions],
                "frontier": result.frontier_rows(),
            },
            engine=ExploreCell.engine,
            label=run_label,
            config=design_space(
                sets, ways, pd_max, pd_step, d_max, line_size, model_variant
            ),
            trace_fingerprint=summary.get("fingerprint"),
            stats={
                "geometries": len(predictions),
                "points": n_points,
                "unique_blocks": summary.get("unique_blocks", 0),
                "total_reuses": summary.get("total_reuses", 0),
            },
            metrics={
                "best_hit_rate": frontier[0].best_hit_rate if frontier else 0.0,
                "elapsed_s": elapsed,
            },
        )
        result.manifest_path = str(manifest.save(manifest_dir))
        result.run_id = manifest.run_id
    return result


@dataclass(frozen=True)
class ExploreCell:
    """One ``predict`` grid cell for :func:`repro.sim.parallel.run_cells`:
    an :func:`explore` pass over the grid's trace (or stream).

    ``config`` is the design space (:func:`design_space`), which the
    cell's ``kind="explore"`` manifest records and resume matches on;
    ``workload`` is the trace's name and ``accesses`` its length (0 for
    a stream of unknown length). The result is the frontier rows
    (:meth:`ExplorationResult.frontier_rows`).
    """

    workload: str
    config: dict
    manifest_dir: str | None = None
    accesses: int = 0

    key = "explore"
    kind = "explore"
    engine = "analytic"
    policy = "analytic-spdp"
    window_size = None

    @staticmethod
    def from_manifest(manifest) -> list[dict]:
        """The frontier rows a satisfying explore manifest persisted."""
        return list(manifest.extra["frontier"])

    def fingerprint(self, source) -> str:
        """The trace fingerprint the explore manifest records."""
        return fingerprint_source(source)

    def credited(self, result) -> int:
        """Accesses the sweep manifest credits the cell with."""
        return self.accesses

    def run(self, source) -> list[dict]:
        """Explore the design space over ``source``; looked up as a module
        global at call time, so a wrapper installed on ``explore`` sees
        the call."""
        result = explore(
            source, manifest_dir=self.manifest_dir, run_label=self.key,
            **self.config,
        )
        return result.frontier_rows()


def render_frontier(result: ExplorationResult, top: int = 10) -> str:
    """Human-readable frontier table (the CLI's default output)."""
    lines = [
        f"explored {result.n_points} (sets, ways, d_p) points across "
        f"{len(result.predictions)} geometries in {result.elapsed_s:.2f}s "
        f"(one profiling pass, zero simulations)",
        "",
        f"{'sets':>5} {'ways':>5} {'capacity':>10} {'best_pd':>8} "
        f"{'pred_hit':>9} {'conf':>5}  frontier",
    ]
    ranked = sorted(result.predictions, key=lambda p: -p.best_hit_rate)
    for point in ranked[:top]:
        capacity = point.capacity_bytes
        size = (
            f"{capacity // 1024}KiB" if capacity < 1 << 20
            else f"{capacity / (1 << 20):.1f}MiB"
        )
        lines.append(
            f"{point.num_sets:>5} {point.ways:>5} {size:>10} "
            f"{point.best_pd:>8} {point.best_hit_rate:>9.4f} "
            f"{point.confidence:>5}  {'*' if point.on_frontier else ''}"
        )
    return "\n".join(lines)


__all__ = [
    "CONFIDENCE_ACCESS_FACTOR",
    "DEFAULT_SETS",
    "DEFAULT_WAYS",
    "ExplorationResult",
    "ExploreCell",
    "GeometryPrediction",
    "design_space",
    "explore",
    "render_frontier",
]
