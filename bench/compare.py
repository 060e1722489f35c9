"""Compare two benchmark result sets: ``python3 bench/compare.py A.json B.json``.

A is the parent (baseline) set, B the change; each is a file that
``bench/run.py --out`` appended runs to. Runs pair up by workload and
seed, in order. For every (workload, end-to-end metric) the table shows
each side's median and quartiles and one verdict:

- *better*: B wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than A's interquartile range;
- *unresolved*: the spread between quartiles of either side, as a share
  of its median, is wider than the metric's bound, unless every B run
  reads better than every A run;
- *worse*: B's median is worse than A's by more than the bound;
- *same*: none of the above.

``sim_hit_rate`` and ``sim_digest`` are simulated results, not timings:
any pair on which they differ rejects the comparison. The exit code is
non-zero when anything is worse, unresolved or rejected.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Results a speed-only change must leave identical, pair by pair.
EXACT = ("sim_hit_rate", "sim_digest")


def load_runs(path: Path) -> dict[str, list[dict]]:
    """A result set's runs grouped by workload (file order kept)."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        grouped[run["workload"]].append(run)
    return grouped


def pair_up(a_runs: list[dict], b_runs: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs of same-seed runs, matched in order."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for run in b_runs:
        by_seed[run["seed"]].append(run)
    pairs = []
    for run in a_runs:
        if by_seed[run["seed"]]:
            pairs.append((run, by_seed[run["seed"]].pop(0)))
    return pairs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], pairs, better: str, bound: float) -> tuple[str, int]:
    """The verdict for one metric (see the module docstring) and the
    number of pairs B won."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = summary(a)
    b_q1, b_med, b_q3 = summary(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (b_med - a_med) < 0
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        return "better", wins
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved", wins
    if sign * (b_med - a_med) / a_med > bound:
        return "worse", wins
    return "same", wins


def compare(a_path: Path, b_path: Path, benchmark: dict) -> tuple[list[str], bool]:
    """The report lines, and whether the comparison passes."""
    a_sets, b_sets = load_runs(a_path), load_runs(b_path)
    lines = [
        f"{'workload':11s} {'metric':17s} {'A median [q1, q3]':34s} "
        f"{'B median [q1, q3]':34s} {'change':>8s} {'wins':>6s}  verdict"
    ]
    ok = True
    for workload in a_sets:
        if workload not in b_sets:
            continue
        pairs = pair_up(a_sets[workload], b_sets[workload])
        for key in EXACT:
            for x, y in pairs:
                if x.get(key) != y.get(key):
                    ok = False
                    lines.append(
                        f"REJECTED {workload} seed {x['seed']}: {key} "
                        f"{x.get(key)} != {y.get(key)}"
                    )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in a_sets[workload] if "end_to_end" in run]
            b = [run["end_to_end"][name] for run in b_sets[workload] if "end_to_end" in run]
            if not a or not b:
                continue
            metric_pairs = [
                (x["end_to_end"][name], y["end_to_end"][name])
                for x, y in pairs
                if "end_to_end" in x and "end_to_end" in y
            ]
            result, wins = verdict(a, b, metric_pairs, metric["better"], metric["bound"])
            if name in EXACT:
                result = "identical" if all(x == y for x, y in metric_pairs) else "differs"
            ok = ok and result in ("better", "same", "identical")
            a_q1, a_med, a_q3 = summary(a)
            b_q1, b_med, b_q3 = summary(b)
            lines.append(
                f"{workload:11s} {name:17s} "
                f"{f'{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]':34s} "
                f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]':34s} "
                f"{100 * (b_med - a_med) / a_med:+7.2f}% "
                f"{wins:>3d}/{len(metric_pairs):<2d}  {result}"
            )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("a", type=Path, help="baseline (parent) result set")
    parser.add_argument("b", type=Path, help="candidate (change) result set")
    parser.add_argument(
        "--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
        help="benchmark definition with the metric bounds",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    lines, ok = compare(args.a, args.b, benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
