"""The canonical protecting-distance candidate grid.

Every component that sweeps or searches static protecting distances —
the figure drivers and ``repro sweep`` (callers of
:func:`repro.sim.runner.sweep_static_pd` and
:func:`repro.sim.parallel.run_matrix`), the analytical explorer
(:mod:`repro.explore`), and the cross-validation harness
(``tools/xval_explorer.py``) — must agree on what "the PD grid" is,
otherwise acceptance criteria like "predicted best PD within one grid
step of the empirical best" are ill-defined. This module is the single
source of truth: a uniform grid from the associativity up to ``d_max``
in ``step`` increments.
"""

from __future__ import annotations

#: Default upper bound of the candidate grid (the paper sweeps to 256).
DEFAULT_D_MAX = 256

#: Default grid spacing (the paper's S_c counter granularity).
DEFAULT_STEP = 4


def pd_grid(
    associativity: int = 16,
    d_max: int = DEFAULT_D_MAX,
    step: int = DEFAULT_STEP,
) -> list[int]:
    """The canonical candidate protecting distances for one geometry.

    Starts at the associativity (protecting below W is never useful —
    a full set of W lines can always protect W accesses) and rises to
    ``d_max`` in uniform ``step`` increments. The returned list is
    never empty: when ``associativity > d_max`` the single candidate
    is the associativity itself.
    """
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    grid = list(range(associativity, d_max + 1, step))
    return grid if grid else [associativity]


def grid_step(grid: list[int]) -> int:
    """The spacing of a uniform candidate grid (its "one grid step").

    A single-point grid has no spacing; by convention its step is 0, so
    "within one grid step" degenerates to exact equality.
    """
    if len(grid) < 2:
        return 0
    return grid[1] - grid[0]


def within_one_step(candidate: int, reference: int, grid: list[int]) -> bool:
    """Whether two grid points sit within one grid step of each other.

    This is the well-defined form of the cross-validation acceptance
    criterion "predicted best PD within one PD-grid step of the
    empirical best".
    """
    return abs(candidate - reference) <= grid_step(grid)


__all__ = ["DEFAULT_D_MAX", "DEFAULT_STEP", "grid_step", "pd_grid", "within_one_step"]
