"""The repo benchmark: five user paths, end to end and layer by layer.

Usage::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

Each workload runs in a fresh child interpreter (``bench/harness.py``)
that scrubs ``REPRO_*`` from its environment. The command prints one
``workload metric value unit`` line per metric, writes the run records
to ``bench/results/<run>/result.json`` (and appends them to ``--out``,
a result set that ``bench/compare.py`` reads), and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the JSON carries the end-to-end metrics, with ``--trace 1``
the per-layer ones, and without ``--trace`` both. It exits non-zero
when any operation failed or any correctness check rejected a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(name: str, args, run_dir: Path, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable, str(BENCH / "harness.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--run-dir", str(run_dir),
    ] + (["--smoke"] if args.smoke else [])
    # Its own session, so a timeout takes down its pool workers and
    # daemon with it. Its stdout goes to ours as stderr: our stdout
    # ends with the one JSON result line.
    child = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return {"workload": name, "correct": False, "attempted": 1, "failed": 1,
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    try:
        with open(run_dir / "result.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        return {"workload": name, "correct": False, "attempted": 1, "failed": 1,
                "failures": [f"child exited {child.returncode} without a result: {exc}"]}


def print_run(record: dict) -> None:
    """The ``workload metric value unit`` lines of one run."""
    name = record["workload"]
    samples = {
        "setup_s": len(record.get("setup_samples", [])),
        "wall_s": record.get("iterations"),
    }
    raw = record.get("raw", {})
    for metric, value in record.get("end_to_end", {}).items():
        note = f" n={samples[metric]}" if metric in samples else ""
        if metric in raw:
            note += f" raw={raw[metric]:.6g}"
        print(f"{name} {metric} {value:.6g} {END_TO_END[metric]}{note}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name} {metric} {value:.6g} {PER_LAYER[metric]}")
    if "sim_digest" in record:
        print(f"{name} sim_digest {record['sim_digest']} -")
    print(f"{name} attempted {record['attempted']} count")
    print(f"{name} failed {record['failed']} count")
    for failure in record.get("failures", []):
        print(f"{name} FAILED {failure}", file=sys.stderr)


def append_runs(path: Path, runs: list[dict]) -> None:
    """Add runs to a result-set file (created when missing)."""
    existing = []
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)["runs"]
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as fh:
        json.dump({"runs": existing + runs}, fh, indent=1, sort_keys=True)
    os.replace(temp, path)


def result_line(runs: list[dict], trace: int | None) -> dict:
    """The contract's final JSON object for these runs."""
    metrics = {}
    for record in runs:
        table = {}
        if trace != 1:
            table.update({m: (v, END_TO_END[m]) for m, v in record.get("end_to_end", {}).items()})
        if trace != 0:
            table.update({m: (v, PER_LAYER[m]) for m, v in record.get("per_layer", {}).items()})
        for metric, (value, unit) in table.items():
            key = metric if len(runs) == 1 else f"{record['workload']}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(record["correct"] for record in runs),
        "attempted": sum(record["attempted"] for record in runs),
        "failed": sum(record["failed"] for record in runs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed-phase length per workload (default 10; 0 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end only; 1: per-layer only; default: both",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    parser.add_argument("--out", type=Path, help="result-set file to append the runs to")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 10.0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    results = BENCH / "results" / f"{stamp}-{os.getpid()}"
    meta = {"git_sha": git_sha(), "nproc": os.cpu_count()}
    runs = []
    for name in args.workload or WORKLOAD_NAMES:
        record = run_child(name, args, results / name, 1 if args.trace is None else args.trace)
        record.update(meta)
        print_run(record)
        runs.append(record)
    append_runs(results / "result.json", runs)
    if args.out is not None:
        append_runs(args.out, runs)
    print(json.dumps(result_line(runs, args.trace)))
    return 0 if all(record["correct"] for record in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
