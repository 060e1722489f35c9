"""Fig. 10 — the headline single-core comparison.

Miss reduction (a), IPC improvement (b) and bypass fraction (c), all
relative to DIP, for: PDP-2/PDP-3/PDP-8 (dynamic, with bypass), SPDP-B
(static upper bound), SDP, DRRIP and EELRU. Expected shapes: PDP-8 best on
average with PDP-8 > PDP-3 > PDP-2; SPDP-B an upper bound on dynamic PDP;
DRRIP ~ DIP; EELRU mixed with losses on several benchmarks; SDP winning on
PC-informative profiles and losing on PC-misleading ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.pdp_policy import PDPPolicy
from repro.experiments.common import (
    RECOMPUTE_INTERVAL,
    STATIC_PD_GRID,
    default_trace,
    format_table,
    run_trace_grid,
)
from repro.policies.eelru import EELRUPolicy
from repro.policies.lip_bip_dip import DIPPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.sdp import SDPPolicy
from repro.sim.metrics import miss_reduction_percent, percent_change


def policy_factories() -> dict[str, callable]:
    """Fresh-policy factories for every Fig. 10 series (except SPDP-B)."""
    return {
        "DRRIP": DRRIPPolicy,
        "EELRU": EELRUPolicy,
        "SDP": SDPPolicy,
        "PDP-2": partial(PDPPolicy, n_c=2, recompute_interval=RECOMPUTE_INTERVAL),
        "PDP-3": partial(PDPPolicy, n_c=3, recompute_interval=RECOMPUTE_INTERVAL),
        "PDP-8": partial(PDPPolicy, n_c=8, recompute_interval=RECOMPUTE_INTERVAL),
    }


@dataclass
class Fig10Row:
    """One benchmark's Fig. 10 numbers (relative to DIP)."""

    name: str
    miss_reduction: dict[str, float] = field(default_factory=dict)
    ipc_improvement: dict[str, float] = field(default_factory=dict)
    bypass_fraction: dict[str, float] = field(default_factory=dict)
    final_pd: int | None = None


def run_fig10(
    benchmarks: tuple[str, ...] | None = None,
    fast: bool = False,
    seeds: tuple[int | None, ...] = (None,),
    max_workers: int | None = None,
    manifest_dir: str | None = None,
    on_event=None,
) -> list[Fig10Row]:
    """The full single-core comparison, optionally averaged over seeds.

    Each (benchmark, seed) is one :func:`repro.sim.parallel.run_matrix`
    grid: ``DIP``, the :func:`policy_factories` series and a static
    ``spdp-<pd>`` cell per ``STATIC_PD_GRID`` point, whose first
    minimum-miss cell in PD order is the SPDP-B column. A non-default
    seed suffixes every key with ``@seed<n>``. ``max_workers=None`` fans
    each grid over a process pool, 1 forces serial. ``manifest_dir`` /
    ``on_event`` follow the ``run_matrix`` observability contract: a
    manifest per cell plus a ``matrix`` sweep manifest per grid;
    progress keys are ``<benchmark>/<cell key>``.
    """
    from repro.experiments.common import EXPERIMENT_SUITE

    series = policy_factories()
    factories = {
        "DIP": DIPPolicy,
        **series,
        **{
            f"spdp-{pd}": partial(PDPPolicy, static_pd=pd) for pd in STATIC_PD_GRID
        },
    }
    rows = []
    for name in benchmarks or EXPERIMENT_SUITE:
        row = Fig10Row(name=name)
        samples: dict[str, list[tuple[float, float, float]]] = {}
        for seed in seeds:
            suffix = "" if seed is None else f"@seed{seed}"
            grid = run_trace_grid(
                default_trace(name, fast=fast, seed=seed),
                {key + suffix: factory for key, factory in factories.items()},
                max_workers=max_workers,
                manifest_dir=manifest_dir,
                on_event=on_event,
            )
            runs = {key: grid[key + suffix] for key in factories}
            dip = runs["DIP"]
            runs["SPDP-B"] = min(
                (runs[f"spdp-{pd}"] for pd in STATIC_PD_GRID),
                key=lambda run: run.misses,
            )
            row.final_pd = runs["PDP-8"].extra.get("final_pd")
            for label in (*series, "SPDP-B"):
                run = runs[label]
                samples.setdefault(label, []).append(
                    (
                        miss_reduction_percent(run.misses, dip.misses),
                        percent_change(run.ipc, dip.ipc),
                        run.bypass_fraction,
                    )
                )
        for label, values in samples.items():
            count = len(values)
            row.miss_reduction[label] = sum(v[0] for v in values) / count
            row.ipc_improvement[label] = sum(v[1] for v in values) / count
            row.bypass_fraction[label] = sum(v[2] for v in values) / count
        rows.append(row)
    return rows


def averages(rows: list[Fig10Row]) -> Fig10Row:
    """Suite averages (arithmetic mean, as in the paper's AVG bars)."""
    labels = rows[0].miss_reduction.keys()
    avg = Fig10Row(name="AVERAGE")
    for label in labels:
        avg.miss_reduction[label] = sum(r.miss_reduction[label] for r in rows) / len(rows)
        avg.ipc_improvement[label] = sum(
            r.ipc_improvement[label] for r in rows
        ) / len(rows)
        avg.bypass_fraction[label] = sum(
            r.bypass_fraction[label] for r in rows
        ) / len(rows)
    return avg


def format_report(rows: list[Fig10Row]) -> str:
    labels = list(rows[0].miss_reduction.keys())
    body = [
        [row.name]
        + [f"{row.miss_reduction[label]:6.1f}" for label in labels]
        + [str(row.final_pd)]
        for row in rows
    ]
    avg = averages(rows)
    body.append(
        ["AVERAGE"] + [f"{avg.miss_reduction[label]:6.1f}" for label in labels] + [""]
    )
    table_a = format_table(
        ["benchmark"] + labels + ["PD"],
        body,
        title="Fig. 10a — miss reduction vs DIP (%)",
    )
    ipc_rows = [["AVERAGE"] + [f"{avg.ipc_improvement[label]:+6.2f}" for label in labels]]
    table_b = format_table(
        ["metric"] + labels, ipc_rows, title="Fig. 10b — IPC improvement vs DIP (%)"
    )
    bypass_rows = [
        ["AVERAGE"] + [f"{100 * avg.bypass_fraction[label]:5.1f}%" for label in labels]
    ]
    table_c = format_table(
        ["metric"] + labels, bypass_rows, title="Fig. 10c — bypass fraction of accesses"
    )
    return "\n\n".join((table_a, table_b, table_c))


__all__ = ["Fig10Row", "averages", "format_report", "policy_factories", "run_fig10"]
