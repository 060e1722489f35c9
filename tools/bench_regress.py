"""Benchmark trajectory upkeep, the perf gate, and the report.

The command-line face of :mod:`repro.obs.bench`::

    python tools/bench_regress.py append --record BENCH_engine.json
    python tools/bench_regress.py check --baseline BENCH_engine.json \
        --current /tmp/bench-now.json --tolerance 0.25
    python tools/bench_regress.py report runs/ --html --out report.html

``append`` adds a canonical record to the appending trajectory
file (``BENCH_trajectory.jsonl``). ``check`` is the CI regression gate:
exit 1 when any ``engine/policy`` throughput in the current record falls
more than ``--tolerance`` below the committed baseline. ``report``
renders the self-contained markdown/HTML observatory report from a
manifest directory with zero re-simulation. Every command that reads
a benchmark record requires the canonical schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.bench import (  # noqa: E402
    DEFAULT_TOLERANCE,
    TRAJECTORY_FILENAME,
    append_trajectory,
    compare_records,
    load_record,
    render_report,
)


def _cmd_append(args: argparse.Namespace) -> int:
    """Append one canonical record to the trajectory file."""
    record = load_record(args.record)
    append_trajectory(record, args.trajectory)
    print(
        f"appended {record['kind']} record "
        f"({len(record['throughput'])} throughput keys) to {args.trajectory}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Compare current throughput against the baseline; exit 1 on
    regression beyond the tolerance."""
    baseline = load_record(args.baseline)
    current = load_record(args.current)
    regressions = compare_records(baseline, current, tolerance=args.tolerance)
    shared = sorted(
        set(baseline["throughput"]) & set(current["throughput"])
    )
    for key in shared:
        base = baseline["throughput"][key]
        curr = current["throughput"][key]
        ratio = curr / base if base else float("nan")
        print(f"{key:>24}: {base:>12,.0f} -> {curr:>12,.0f} acc/s ({ratio:.2f}x)")
    if not shared:
        print("WARNING: no shared throughput keys to compare", file=sys.stderr)
    if regressions:
        print(
            f"FAIL: {len(regressions)} throughput regression(s) beyond "
            f"{args.tolerance:.0%} tolerance:",
            file=sys.stderr,
        )
        for row in regressions:
            print(
                f"  {row['key']}: {row['baseline']:,.0f} -> "
                f"{row['current']:,.0f} acc/s ({row['ratio']:.2f}x)",
                file=sys.stderr,
            )
        return 1
    print(f"CHECK OK: no regression beyond {args.tolerance:.0%} tolerance")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the observatory report for a manifest directory."""
    text = render_report(args.manifest_dir, html=args.html)
    if args.out:
        Path(args.out).write_text(text)
        print(f"[written to {args.out}]", file=sys.stderr)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``bench_regress`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    append = sub.add_parser(
        "append", help="append a canonical record to the trajectory file"
    )
    append.add_argument("--record", required=True, help="benchmark JSON file")
    append.add_argument(
        "--trajectory", default=TRAJECTORY_FILENAME,
        help=f"trajectory JSONL path (default {TRAJECTORY_FILENAME})",
    )
    append.set_defaults(func=_cmd_append)

    check = sub.add_parser(
        "check", help="fail when current throughput regresses vs baseline"
    )
    check.add_argument("--baseline", required=True, help="committed baseline JSON")
    check.add_argument("--current", required=True, help="freshly measured JSON")
    check.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed relative loss (default {DEFAULT_TOLERANCE})",
    )
    check.set_defaults(func=_cmd_check)

    report = sub.add_parser(
        "report", help="render the observatory report from a manifest dir"
    )
    report.add_argument("manifest_dir", help="directory of run manifests")
    report.add_argument(
        "--html", action="store_true", help="emit HTML instead of markdown"
    )
    report.add_argument("--out", default=None, help="write report to this path")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
