"""Benchmark records, trajectories, and the performance observatory.

This module defines the canonical ``BENCH_*.json`` schema shared by the
standalone benchmark scripts (``benchmarks/bench_engine_speed.py``,
``benchmarks/bench_multicore_speed.py``) and the
``tools/bench_regress.py`` regression gate:

.. code-block:: json

    {
      "bench_schema_version": 1,
      "kind": "engine",
      "created_at": "2026-08-06T12:00:00+00:00",
      "git_sha": "abc123...",
      "machine": {"platform": "...", "python": "...", "cpu_count": 8},
      "peak_rss_bytes": 123456789,
      "throughput": {"fast/lru": 1620190, "reference/lru": 367912},
      "raw": { ... the script's full native report ... }
    }

``throughput`` is the comparison surface: accesses/second keyed
``engine/policy``. Everything the script measured stays available under
``raw``; the machine fingerprint and git SHA make records from different
hosts or commits distinguishable inside the appending trajectory file
(:func:`append_trajectory`, one canonical record per line), which turns
one-off snapshots into a living perf history.

:func:`compare_records` implements the CI gate: a key regresses when its
current throughput falls more than ``tolerance`` (default 25%) below the
committed baseline. :func:`render_report` builds a self-contained
markdown (or minimal HTML) report — result tables plus sparkline window
plots — from a manifest directory alone, with zero re-simulation.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.manifest import git_sha as _git_sha
from repro.obs.manifest import load_manifests, summarize_manifests
from repro.obs.spans import read_jsonl
from repro.obs.timeseries import windows_from_payload

#: Schema version of canonical benchmark records; bump on incompatible
#: layout changes.
BENCH_SCHEMA_VERSION = 1

#: Default name of the appending benchmark-trajectory file (JSONL, one
#: canonical record per line).
TRAJECTORY_FILENAME = "BENCH_trajectory.jsonl"

#: Default relative throughput loss tolerated by the regression gate.
DEFAULT_TOLERANCE = 0.25

#: Glyph ramp used for sparkline plots (8 levels, lowest to highest).
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def machine_fingerprint() -> dict:
    """A JSON-native description of the executing machine.

    Enough to tell records from different hosts apart in a trajectory
    (platform triple, python version, CPU count) without recording
    anything privacy-sensitive like hostnames.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process in bytes (None if the
    ``resource`` module is unavailable, e.g. on Windows).

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes; both are
    normalized to bytes here.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — POSIX-only module
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover — macOS units
        return int(peak)
    return int(peak) * 1024


def is_canonical(data: dict) -> bool:
    """Whether ``data`` already carries the canonical bench schema."""
    return isinstance(data, dict) and "bench_schema_version" in data


def throughput_map(raw: dict) -> dict[str, float]:
    """Flatten a native benchmark report's per-kernel throughput into
    the canonical ``{"engine/policy": accesses_per_sec}`` mapping.

    Engines are discovered from the ``{engine}_accesses_per_sec`` keys
    each kernel actually carries, so records stay faithful to whatever
    engine set the producing script measured (reference/fast/vector/...).
    """
    suffix = "_accesses_per_sec"
    throughput: dict[str, float] = {}
    for policy, pair in raw.get("kernels", {}).items():
        for key, value in pair.items():
            if key.endswith(suffix) and value is not None:
                engine = key[: -len(suffix)]
                throughput[f"{engine}/{policy}"] = value
    return throughput


def canonical_record(
    kind: str,
    raw: dict,
    throughput: dict[str, float] | None = None,
    created_at: str | None = None,
) -> dict:
    """Wrap a native benchmark report in the canonical schema.

    Args:
        kind: record family — ``"engine"`` or ``"multicore"``.
        raw: the full native report, preserved verbatim.
        throughput: ``{"engine/policy": accesses_per_sec}``; extracted
            from ``raw["kernels"]`` when omitted.
        created_at: ISO-8601 timestamp; defaults to now (UTC).
    """
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "created_at": created_at
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "machine": machine_fingerprint(),
        "peak_rss_bytes": peak_rss_bytes(),
        "throughput": throughput if throughput is not None else throughput_map(raw),
        "raw": raw,
    }


def _require_canonical(data: dict) -> dict:
    """``data`` itself; ``ValueError`` unless it carries the schema."""
    if not is_canonical(data):
        raise ValueError(
            "not a benchmark record: expected the canonical schema "
            f"(bench_schema_version {BENCH_SCHEMA_VERSION})"
        )
    return data


def load_record(path: str | os.PathLike) -> dict:
    """Load one canonical benchmark record (``ValueError`` otherwise)."""
    return _require_canonical(json.loads(Path(path).read_text()))


def append_trajectory(record: dict, path: str | os.PathLike) -> None:
    """Append one canonical record to the JSONL trajectory file."""
    _require_canonical(record)
    trajectory = Path(path)
    trajectory.parent.mkdir(parents=True, exist_ok=True)
    with trajectory.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_trajectory(path: str | os.PathLike) -> list[dict]:
    """All records of a trajectory file, oldest first ([] when absent).

    A torn final line (an append cut short) is skipped with a warning
    (:func:`repro.obs.spans.read_jsonl`).
    """
    if not Path(path).exists():
        return []
    return read_jsonl(path, what="benchmark trajectory")


def compare_records(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Throughput regressions of ``current`` against ``baseline``.

    A key regresses when ``current < baseline * (1 - tolerance)``; only
    keys present in both records are compared (a renamed or added kernel
    is not a regression). Returns one ``{key, baseline, current, ratio}``
    row per regressed key, worst first — empty means the gate passes.
    Both records must be canonical (``ValueError`` otherwise).
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    base = _require_canonical(baseline)["throughput"]
    curr = _require_canonical(current)["throughput"]
    regressions = []
    for key in sorted(set(base) & set(curr)):
        if not base[key]:
            continue
        ratio = curr[key] / base[key]
        if ratio < 1 - tolerance:
            regressions.append(
                {
                    "key": key,
                    "baseline": base[key],
                    "current": curr[key],
                    "ratio": round(ratio, 4),
                }
            )
    regressions.sort(key=lambda row: row["ratio"])
    return regressions


def sparkline(values: list[float], width: int = 48) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Longer series are downsampled by bucket-averaging to ``width``
    glyphs; the y-axis spans the series' own min..max (a flat series
    renders as a low bar).
    """
    if not values:
        return ""
    if len(values) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            bucket = values[lo:hi]
            bucketed.append(sum(bucket) / len(bucket))
        values = bucketed
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    steps = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[round((value - low) / span * steps)] for value in values
    )


def _window_plots(manifest) -> list[str]:
    """Markdown sparkline lines for one manifest's recorded windows."""
    windows = windows_from_payload(manifest.timeseries)
    if not windows:
        return []
    label = manifest.label or manifest.policy
    lines = [
        f"- `{manifest.workload}` / `{label}` ({len(windows)} windows of "
        f"{manifest.timeseries.get('window_size', '?')} accesses):"
    ]
    hit_rates = [w.hit_rate for w in windows]
    lines.append(
        f"  - hit rate  `{sparkline(hit_rates)}`  "
        f"min {min(hit_rates):.3f} max {max(hit_rates):.3f}"
    )
    byte_rates = [
        w.byte_hit_rate for w in windows if w.bytes_requested is not None
    ]
    if byte_rates:
        lines.append(
            f"  - byte hit  `{sparkline(byte_rates)}`  "
            f"min {min(byte_rates):.3f} max {max(byte_rates):.3f}"
        )
    pds = [w.pd for w in windows if w.pd is not None]
    if pds:
        lines.append(
            f"  - PD        `{sparkline([float(pd) for pd in pds])}`  "
            f"min {min(pds)} max {max(pds)}"
        )
    protected = [w.protected_lines for w in windows if w.protected_lines is not None]
    if protected:
        lines.append(
            f"  - protected `{sparkline([float(p) for p in protected])}`  "
            f"min {min(protected)} max {max(protected)}"
        )
    evictions = [float(w.evictions) for w in windows]
    if any(evictions):
        lines.append(f"  - evictions `{sparkline(evictions)}`")
    return lines


def _metrics_sections(manifests: list) -> list[str]:
    """Cell-latency percentile tables from sweep-manifest metrics blocks.

    A sweep manifest written while the live metrics registry was enabled
    embeds a registry snapshot in its ``metrics`` field; this renders
    each one's latency histograms (``grid.cell_runtime_s`` and friends)
    as a count/mean/p50/p90/p99/max table — post-hoc access to the same
    numbers the daemon's ``stats`` verb serves live.
    """
    from repro.obs.metrics import histogram_percentiles

    lines: list[str] = []
    for manifest in manifests:
        if manifest.kind not in ("matrix", "mix_matrix"):
            continue
        histograms = (manifest.metrics or {}).get("histograms") or {}
        if not histograms:
            continue
        lines += [
            "",
            f"## Cell latency percentiles — {manifest.kind} "
            f"{manifest.workload} ({manifest.run_id})",
            "",
            "| histogram | count | mean | p50 | p90 | p99 | max |",
            "|---|---|---|---|---|---|---|",
        ]
        for name in sorted(histograms):
            payload = histograms[name]
            summary = histogram_percentiles(payload)

            def _fmt(value) -> str:
                return "-" if value is None else f"{value:.4f}s"

            lines.append(
                f"| {name} | {summary['count']} | {_fmt(summary['mean'])} "
                f"| {_fmt(summary['p50'])} | {_fmt(summary['p90'])} "
                f"| {_fmt(summary['p99'])} | {_fmt(payload.get('max'))} |"
            )
    return lines


def _trajectory_section(manifest_dir: Path) -> list[str]:
    """Markdown lines for a trajectory file sitting in the manifest dir
    (or the repo-root one when the directory has none); [] when absent."""
    candidates = [
        manifest_dir / TRAJECTORY_FILENAME,
        Path.cwd() / TRAJECTORY_FILENAME,
    ]
    trajectory = next((path for path in candidates if path.exists()), None)
    if trajectory is None:
        return []
    records = read_trajectory(trajectory)
    if not records:
        return []
    lines = ["", f"## Benchmark trajectory ({len(records)} records)", ""]
    keys = sorted({key for record in records for key in record.get("throughput", {})})
    for key in keys:
        series = [
            float(record["throughput"][key])
            for record in records
            if key in record.get("throughput", {})
        ]
        if not series:
            continue
        lines.append(
            f"- `{key}`  `{sparkline(series)}`  latest {series[-1]:,.0f} acc/s"
        )
    return lines


def _label_pd(label: str | None) -> int | None:
    """The static PD a bypassing static-PDP cell's label encodes, or None.

    Accepts both labeling conventions for static-PD cells: the bare
    distance ``"84"`` (``sweep_static_pd`` names cells by PD) and the
    ``"spdp-84"`` keys of the Fig. 4 / Fig. 10 grids and of
    service-submitted follow-up jobs, with an optional ``@seed<n>``
    suffix. Fig. 4's no-bypass ``"spdp-nb-84"`` cells map to None.
    """
    if not label:
        return None
    try:
        return int(label.split("@", 1)[0].removeprefix("spdp-"))
    except ValueError:
        return None


def _explore_sections(manifests: list) -> list[str]:
    """Markdown lines for explore manifests: frontier tables plus a
    prediction-vs-simulation error table for every simulated static-PD
    cell of the same trace (matched by fingerprint + geometry + PD)."""
    explores = [m for m in manifests if m.kind == "explore"]
    if not explores:
        return []
    lines: list[str] = []
    for manifest in explores:
        stats = manifest.stats
        lines += [
            "",
            f"## Exploration — `{manifest.workload}` "
            f"({stats.get('points', 0)} points, "
            f"{stats.get('geometries', 0)} geometries, "
            f"{manifest.wall_time_s:.2f}s)",
            "",
            "| sets | ways | capacity | best PD | pred hit rate | confidence |",
            "|-----:|-----:|---------:|--------:|--------------:|:-----------|",
        ]
        for entry in manifest.extra.get("frontier", [])[:10]:
            lines.append(
                f"| {entry['num_sets']} | {entry['ways']} "
                f"| {entry['capacity_bytes']:,} B | {entry['best_pd']} "
                f"| {entry['best_hit_rate']:.4f} | {entry['confidence']} |"
            )
        lines += _prediction_error_rows(manifest, manifests)
    return lines


def _prediction_error_rows(explore, manifests: list) -> list[str]:
    """The error-table lines of one explore manifest ([] if no
    simulation of the same trace exists in the directory)."""
    predictions = {
        (p["num_sets"], p["ways"]): p
        for p in explore.extra.get("predictions", [])
    }
    rows = []
    for manifest in manifests:
        if manifest.kind != "llc":
            continue
        if manifest.trace_fingerprint != explore.trace_fingerprint:
            continue
        pd = _label_pd(manifest.label)
        if pd is None:
            continue
        geometry = (
            manifest.config.get("num_sets"), manifest.config.get("ways")
        )
        prediction = predictions.get(geometry)
        if prediction is None or pd not in prediction["pds"]:
            continue
        predicted = prediction["hit_rates"][prediction["pds"].index(pd)]
        simulated = manifest.metrics.get("hit_rate")
        if simulated is None:
            continue
        rows.append((geometry[0], geometry[1], pd, predicted, simulated))
    if not rows:
        return []
    lines = [
        "",
        "### Prediction vs simulation",
        "",
        "| sets | ways | PD | predicted | simulated | error (pts) |",
        "|-----:|-----:|---:|----------:|----------:|------------:|",
    ]
    errors = []
    for num_sets, ways, pd, predicted, simulated in sorted(rows):
        error = (predicted - simulated) * 100.0
        errors.append(abs(error))
        lines.append(
            f"| {num_sets} | {ways} | {pd} | {predicted:.4f} "
            f"| {simulated:.4f} | {error:+.2f} |"
        )
    lines.append(
        f"\nmean abs error {sum(errors) / len(errors):.2f} pts, "
        f"max {max(errors):.2f} pts over {len(errors)} simulated cell(s)"
    )
    return lines


def render_report(
    manifest_dir: str | os.PathLike, html: bool = False
) -> str:
    """Render the observatory report for a manifest directory.

    Built from the manifests alone (no re-simulation): the summary
    table of :func:`repro.obs.manifest.summarize_manifests`, per-explore
    frontier tables with prediction-vs-simulation error rows for every
    static-PD cell sharing the explore's trace fingerprint, cell-latency
    percentile tables for sweep manifests carrying a live-metrics
    snapshot, per-run
    sparkline plots of recorded windows (hit rate, byte hit rate for
    software-cache runs, PD, protected lines, evictions), and — when a trajectory file is present — per-key
    throughput history. ``html=True`` wraps the markdown in a minimal
    self-contained HTML page.
    """
    directory = Path(manifest_dir)
    manifests = load_manifests(directory)
    lines = [f"# Simulation report — {directory}", ""]
    lines.append(summarize_manifests(manifests))
    lines += _explore_sections(manifests)
    lines += _metrics_sections(manifests)
    plotted = [m for m in manifests if m.timeseries.get("windows")]
    if plotted:
        lines += ["", f"## Window plots ({len(plotted)} recorded runs)", ""]
        for manifest in plotted:
            lines += _window_plots(manifest)
    lines += _trajectory_section(directory)
    markdown = "\n".join(lines) + "\n"
    if not html:
        return markdown
    import html as html_escape

    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>Simulation report — {html_escape.escape(str(directory))}"
        "</title></head>\n<body>\n<pre>\n"
        f"{html_escape.escape(markdown)}"
        "</pre>\n</body></html>\n"
    )


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "TRAJECTORY_FILENAME",
    "append_trajectory",
    "canonical_record",
    "compare_records",
    "is_canonical",
    "load_record",
    "machine_fingerprint",
    "peak_rss_bytes",
    "read_trajectory",
    "render_report",
    "sparkline",
    "throughput_map",
]
