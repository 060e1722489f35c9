"""The hit-rate models: E(d_p) of Eq. 1 (Sec. 2.4) and E_m of Eq. 2 (Sec. 4).

Given the RDD counters {N_i}, the total access count N_t and a candidate
protecting distance d_p, the single-core model approximates the hit rate
(scaled by the associativity W, which cancels when comparing candidates):

    E(d_p) = sum_{i <= d_p} N_i
             -----------------------------------------------------
             sum_{i <= d_p} N_i * i  +  (N_t - sum_{i <= d_p} N_i) * (d_p + d_e)

The numerator counts hits from protected lines; the denominator is total
line occupancy: a line reused at distance i occupies its set for i
accesses, and a "long" line (RD > d_p) occupies d_p + d_e accesses, where
d_e accounts for the lag between losing protection and being evicted. The
paper determines experimentally that d_e = W works well.

Both models rest on two running sums per RDD bin j: the hits
H_j = N_0 + ... + N_j and the hit occupancy O_j = sum_{k <= j} N_k * m_k.
:func:`prefix_sums` builds them once per RDD, added left to right, and
every function here reads E from them — the incremental
E(d_p + 1)-from-E(d_p) computation of the paper's PD processor, O(d_max /
S_c) per RDD. For T threads sharing the LLC, each thread contributes
H_t(d_p^t) hits and A_t(d_p^t) occupancy at its own PD, and Eq. 2 is

    E_m(d_p) = sum_t H_t(d_p^t) / sum_t A_t(d_p^t)

The search contract:

- Candidate PDs are the bin upper edges ``(j+1) * S_c`` at or above the
  caller's floor: ``min(W, d_max)`` for :class:`~repro.core.pd_engine.PDEngine`,
  ``S_c`` for the software cache and for the Sec. 4 peaks.
- Bin j's representative distance is its midpoint
  ``m_j = j * S_c + (S_c + 1) / 2``.
- A tie keeps the smallest PD.

The microprogrammed search (``hardware/pd_processor.py``, and its
replica ``pd_search_integer``) differs in three ways: its floor is
``S_c``, its midpoint is ``j * S_c + S_c // 2``, and a tie keeps the
largest PD. ROADMAP item 1 is to bring the two under this one contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class EPoint:
    """One evaluated candidate: protecting distance and its model score."""

    pd: int
    e_value: float


def prefix_sums(counts: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """H_j and O_j of one RDD: the hits and hit occupancy of bins 0..j.

    Bin j covers distances ``(j*step, (j+1)*step]``; both arrays are
    float64 running sums, added left to right.
    """
    counts = np.asarray(counts, dtype=np.float64)
    midpoints = np.arange(len(counts)) * step + (step + 1) / 2
    return np.cumsum(counts), np.cumsum(counts * midpoints)


def _e_values(
    hits: np.ndarray, occupancy: np.ndarray, total: int, step: int, d_e: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every bin upper edge and E(d_p) there, from one RDD's prefix sums."""
    pds = np.arange(1, len(hits) + 1) * step
    long_lines = np.maximum(float(total) - hits, 0.0)
    denominator = occupancy + long_lines * (pds + d_e)
    e = np.divide(hits, denominator, out=np.zeros_like(hits), where=denominator > 0)
    return pds, e


def _curve(counts, total, step, d_e, min_pd) -> tuple[np.ndarray, np.ndarray]:
    """The candidate PDs at or above ``min_pd`` and their E values."""
    pds, e = _e_values(*prefix_sums(counts, step), total, step, d_e)
    keep = pds >= min_pd
    return pds[keep], e[keep]


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
    pds, e = _curve(counts, total, step, d_e, min_pd)
    return [EPoint(pd, value) for pd, value in zip(pds.tolist(), e.tolist())]


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
    pds, e = _curve(counts, total, step, d_e, min_pd)
    if not len(pds):
        if default_pd is not None:
            return default_pd
        raise ValueError("no candidate protecting distances (empty curve)")
    if total <= 0 or not e.any():
        return default_pd if default_pd is not None else int(pds[-1])
    return int(pds[np.argmax(e)])


def _peaks(pds: np.ndarray, e: np.ndarray, max_peaks: int) -> list[EPoint]:
    """The local maxima of one E curve, strongest first (see :func:`find_peaks`)."""
    points = [EPoint(pd, value) for pd, value in zip(pds.tolist(), e.tolist())]
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
    return _peaks(*_curve(counts, total, step, d_e, min_pd), max_peaks)


def _thread_terms(
    sums: tuple[np.ndarray, np.ndarray, int], pd: int, step: int, d_e: float
) -> tuple[float, float]:
    """H_t(pd) and A_t(pd) of Eq. 2 from one thread's ``(H, O, N_t)``:
    the bins whose upper edge is at most ``pd`` hit, the rest are long."""
    hits, occupancy, total = sums
    bins = min(len(hits), pd // step)
    hit_sum = float(hits[bins - 1]) if bins > 0 else 0.0
    hit_occupancy = float(occupancy[bins - 1]) if bins > 0 else 0.0
    long_lines = max(0.0, float(total) - hit_sum)
    return hit_sum, hit_occupancy + long_lines * (pd + d_e)


def _e_m(sums, pds, step: int, d_e: float) -> float:
    """E_m over threads given as ``(H, O, N_t)`` prefix sums, in order."""
    total_hits = 0.0
    total_occupancy = 0.0
    for thread_sums, pd in zip(sums, pds):
        hits, occupancy = _thread_terms(thread_sums, pd, step, d_e)
        total_hits += hits
        total_occupancy += occupancy
    return total_hits / total_occupancy if total_occupancy > 0 else 0.0


def e_m(
    rdds: list[tuple[np.ndarray, int]],
    pds: list[int],
    step: int = 16,
    d_e: float = 16.0,
) -> float:
    """E_m (Eq. 2) of the PD vector ``pds`` over per-thread ``(counts, total)``
    RDDs with shared binning (``step`` = S_c, 16 for multi-core in Sec. 6.6)."""
    if len(rdds) != len(pds):
        raise ValueError("one PD per thread is required")
    sums = [(*prefix_sums(counts, step), total) for counts, total in rdds]
    return _e_m(sums, pds, step, d_e)


def find_pd_vector(
    rdds: list[tuple[np.ndarray, int]],
    step: int = 16,
    d_e: float = 16.0,
    max_peaks: int = 3,
    default_pd: int = 16,
    refine_passes: int = 1,
) -> list[int]:
    """The paper's greedy peak-combination heuristic (Sec. 4).

    ``rdds`` holds one ``(counts, total)`` RDD per thread. Threads are
    taken in decreasing order of their best single-core E; each tries
    only its top ``max_peaks`` peaks, keeping the one that maximizes E_m
    over the threads placed so far. Each refinement pass then revisits
    every thread with all others fixed — the O(T^2 * S) complexity the
    paper quotes. Returns one PD per thread, in the original thread order.
    """
    sums = [(*prefix_sums(counts, step), total) for counts, total in rdds]
    peak_lists: list[list[int]] = []
    best_single: list[float] = []
    for hits, occupancy, total in sums:
        peaks = _peaks(*_e_values(hits, occupancy, total, step, d_e), max_peaks)
        if peaks and peaks[0].e_value > 0.0:
            peak_lists.append([peak.pd for peak in peaks])
            best_single.append(peaks[0].e_value)
        else:
            # No measurable reuse below d_max: give the thread the default
            # (small) PD so its lines retire quickly (streaming threads).
            peak_lists.append([default_pd])
            best_single.append(0.0)

    order = sorted(range(len(rdds)), key=lambda t: -best_single[t])
    chosen: dict[int, int] = {}

    def score(thread: int, candidate: int) -> float:
        trial = {**chosen, thread: candidate}
        members = sorted(trial)
        return _e_m([sums[t] for t in members], [trial[t] for t in members], step, d_e)

    # The greedy pass places each thread; every refinement pass repeats it.
    for thread in order * (1 + refine_passes):
        chosen[thread] = max(peak_lists[thread], key=lambda pd: score(thread, pd))
    return [chosen[t] for t in range(len(rdds))]


__all__ = [
    "EPoint",
    "e_m",
    "evaluate_e_curve",
    "find_best_pd",
    "find_pd_vector",
    "find_peaks",
    "prefix_sums",
]
