"""The single-core hit-rate model E(d_p) — Eq. 1 of the paper (Sec. 2.4).

Given the RDD counters {N_i}, the total access count N_t and a candidate
protecting distance d_p, the model approximates the hit rate (scaled by the
associativity W, which cancels when comparing candidates):

    E(d_p) = sum_{i <= d_p} N_i
             -----------------------------------------------------
             sum_{i <= d_p} N_i * i  +  (N_t - sum_{i <= d_p} N_i) * (d_p + d_e)

The numerator counts hits from protected lines; the denominator is total
line occupancy: a line reused at distance i occupies its set for i
accesses, and a "long" line (RD > d_p) occupies d_p + d_e accesses, where
d_e accounts for the lag between losing protection and being evicted. The
paper determines experimentally that d_e = W works well.

The search evaluates E at every bin boundary of the counter array (the PD
is a bin range when S_c > 1) and keeps running sums, so a full search is
O(d_max / S_c) — mirroring the incremental E(d_p + 1)-from-E(d_p)
computation of the paper's special-purpose processor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class EPoint:
    """One evaluated candidate: protecting distance and its model score."""

    pd: int
    e_value: float


def evaluate_e_curve(
    counts: np.ndarray,
    total: int,
    step: int = 1,
    d_e: float = 16.0,
    min_pd: int = 1,
) -> list[EPoint]:
    """Evaluate E(d_p) at every bin boundary.

    Args:
        counts: N_i bins (bin i covers distances (i*step, (i+1)*step]).
        total: N_t, total sampled accesses.
        step: S_c, bin width.
        d_e: eviction-lag constant (the paper sets d_e = W).
        min_pd: smallest candidate PD to consider.

    Returns:
        One :class:`EPoint` per bin whose upper edge is >= ``min_pd``.
    """
    points: list[EPoint] = []
    hits = 0.0
    occupancy_of_hits = 0.0
    for index, count in enumerate(counts):
        midpoint = index * step + (step + 1) / 2
        hits += float(count)
        occupancy_of_hits += float(count) * midpoint
        pd = (index + 1) * step
        if pd < min_pd:
            continue
        long_lines = max(0.0, float(total) - hits)
        denominator = occupancy_of_hits + long_lines * (pd + d_e)
        e_value = hits / denominator if denominator > 0 else 0.0
        points.append(EPoint(pd=pd, e_value=e_value))
    return points


def find_best_pd(
    counts: np.ndarray,
    total: int,
    step: int = 1,
    d_e: float = 16.0,
    min_pd: int = 1,
    default_pd: int | None = None,
) -> int:
    """The protecting distance maximizing E(d_p).

    Falls back to ``default_pd`` (or the largest candidate) when the RDD is
    empty — e.g. right after a counter reset. A zero-length counter array
    yields no candidates at all; that degenerate case also falls back to
    ``default_pd`` when one is given, and raises otherwise.
    """
    points = evaluate_e_curve(counts, total, step=step, d_e=d_e, min_pd=min_pd)
    if not points:
        if default_pd is not None:
            return default_pd
        raise ValueError("no candidate protecting distances (empty curve)")
    if total <= 0 or all(point.e_value == 0.0 for point in points):
        return default_pd if default_pd is not None else points[-1].pd
    best = max(points, key=lambda point: point.e_value)
    return best.pd


def find_peaks(
    counts: np.ndarray,
    total: int,
    step: int = 1,
    d_e: float = 16.0,
    min_pd: int = 1,
    max_peaks: int = 3,
) -> list[EPoint]:
    """Local maxima of the E(d_p) curve, strongest first.

    Sec. 4's partitioning heuristic searches near each thread's top peaks;
    the paper finds three peaks per thread sufficient. The global maximum
    is always included even on monotone curves.
    """
    points = evaluate_e_curve(counts, total, step=step, d_e=d_e, min_pd=min_pd)
    if not points:
        return []
    peaks: list[EPoint] = []
    for position, point in enumerate(points):
        left = points[position - 1].e_value if position > 0 else -1.0
        right = (
            points[position + 1].e_value if position + 1 < len(points) else -1.0
        )
        if point.e_value >= left and point.e_value > right:
            peaks.append(point)
    if not peaks:
        peaks = [max(points, key=lambda p: p.e_value)]
    peaks.sort(key=lambda p: -p.e_value)
    return peaks[:max_peaks]


def predicted_hit_rate(
    counts: np.ndarray,
    total: int,
    ways: int,
    pd: int,
    step: int = 1,
    d_e: float | None = None,
) -> float:
    """The model's absolute hit-rate estimate ``min(1, W * E(d_p))``.

    ``E`` is the paper's hit rate scaled by the associativity ``W``
    (Sec. 2.4: each of the W lines of a set contributes E hits per set
    access), so ``W * E(d_p)`` is the predicted hit rate, clamped to 1.
    ``d_e`` defaults to ``ways`` — the paper's experimentally chosen
    eviction lag. Monotone non-decreasing in ``ways`` at fixed
    ``(counts, pd)``: writing ``h(W) = W*A / (B + C*(pd + W))``, its
    derivative is ``A*(B + C*pd) / (...)^2 >= 0``, and clamping
    preserves monotonicity. Returns 0.0 for an empty or all-long RDD.
    """
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    points = evaluate_e_curve(counts, total, step=step,
                              d_e=float(ways if d_e is None else d_e),
                              min_pd=1)
    if not points or total <= 0:
        return 0.0
    at_pd = next((p for p in points if p.pd >= pd), points[-1])
    return min(1.0, ways * at_pd.e_value)


__all__ = [
    "EPoint",
    "evaluate_e_curve",
    "find_best_pd",
    "find_peaks",
    "predicted_hit_rate",
]
