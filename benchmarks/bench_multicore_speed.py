"""Multi-core engine speed benchmark: batched shared-LLC kernel vs the
reference loop, plus the parallel (mix x policy) grid runner.

Standalone script (not a pytest benchmark) so CI can run it as a perf
smoke test::

    PYTHONPATH=src python benchmarks/bench_multicore_speed.py --quick --check

Measures, on a 4-thread random mix at the shared experiment geometry
(64 sets x 16 ways):

- interleaved accesses/second for LRU, TA-DRRIP, PDP, UCP and PIPP
  under all three ``run_shared_llc`` engines (the headline
  fast-vs-reference speedup, the acceptance bar being >= 1.5x on the
  full-length TA-DRRIP run, and the vector-vs-reference speedup; every
  one of them has a vector kernel, set-batched or, for TA-DRRIP and
  PIPP, in arrival order);
- a (2 mixes x 3 policies) Fig. 12-style grid three ways: serial with
  the reference engine (the pre-fast-path pipeline), serial with the
  batched kernel, and ``run_mix_matrix``. On a single-CPU host the grid
  runner falls back to serial and only the engine speedup shows; on
  multicore hosts the worker scaling appears on top of it.

``--check`` exits non-zero if the fast or the vector engine is slower
than the reference for any measured policy. Results land in
``BENCH_multicore.json`` at the repo root (override with ``--out``),
wrapped in the canonical benchmark schema of :mod:`repro.obs.bench`;
``--trajectory FILE`` additionally appends the record to the JSONL
perf-trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pdp_policy import PDPPolicy  # noqa: E402
from repro.experiments.common import TIMING  # noqa: E402
from repro.obs.bench import append_trajectory, canonical_record  # noqa: E402
from repro.experiments.fig12_partitioning import shared_geometry  # noqa: E402
from repro.partitioning.pipp import PIPPPolicy  # noqa: E402
from repro.partitioning.ucp import UCPPolicy  # noqa: E402
from repro.policies.lru import LRUPolicy  # noqa: E402
from repro.policies.ta_drrip import TADRRIPPolicy  # noqa: E402
from repro.sim.multi_core import (  # noqa: E402
    run_shared_llc,
    single_thread_baselines,
)
from repro.sim.parallel import run_mix_matrix  # noqa: E402
from repro.workloads.mixes import generate_mixes, make_mix_traces  # noqa: E402

CORES = 4


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def _mix_traces(length: int, num_mixes: int):
    geometry = shared_geometry(CORES)
    mixes = generate_mixes(num_mixes, cores=CORES, seed=7)
    return geometry, {
        mix.name: make_mix_traces(
            mix, length_per_thread=length, num_sets=geometry.num_sets
        )
        for mix in mixes
    }


ENGINES = ("reference", "fast", "vector")


def _engine_pair(traces, geometry, singles, factory, repeats: int) -> dict:
    """Best-of-``repeats`` interleaved accesses/second for every engine;
    ``speedup`` is fast over reference, ``vector_speedup`` vector over
    reference."""
    times = dict.fromkeys(ENGINES, float("inf"))
    stats = {}
    for _ in range(repeats):
        for engine in ENGINES:
            result, elapsed = _timed(
                run_shared_llc, traces, factory(), geometry,
                timing=TIMING, singles=singles, engine=engine,
            )
            times[engine] = min(times[engine], elapsed)
            stats[engine] = [
                (t.accesses, t.hits, t.misses, t.bypasses) for t in result.threads
            ]
    for engine in ENGINES:
        assert stats[engine] == stats["reference"], f"{engine} engine diverged"
    # The interleaved run is len(longest thread) x threads accesses long.
    n = max(len(trace) for trace in traces) * len(traces)
    report = {"interleaved_accesses": n}
    for engine in ENGINES:
        report[f"{engine}_seconds"] = round(times[engine], 4)
        report[f"{engine}_accesses_per_sec"] = round(n / times[engine])
    report["speedup"] = round(times["reference"] / times["fast"], 2)
    report["vector_speedup"] = round(times["reference"] / times["vector"], 2)
    return report


def _grid_triple(mixes, geometry, workers: int, repeats: int) -> dict:
    """A Fig. 12-style grid: serial-reference vs serial-fast vs parallel."""
    factories = {
        "lru": LRUPolicy,
        "ta-drrip": partial(TADRRIPPolicy, num_threads=CORES),
        "pdp": partial(PDPPolicy, recompute_interval=8192),
    }
    singles = {
        name: single_thread_baselines(traces, geometry, timing=TIMING)
        for name, traces in mixes.items()
    }
    serial_ref = serial_fast = parallel = float("inf")
    for _ in range(repeats):
        _, t = _timed(
            run_mix_matrix, mixes, factories, geometry,
            timing=TIMING, singles=singles, max_workers=1, engine="reference",
        )
        serial_ref = min(serial_ref, t)
        _, t = _timed(
            run_mix_matrix, mixes, factories, geometry,
            timing=TIMING, singles=singles, max_workers=1, engine="fast",
        )
        serial_fast = min(serial_fast, t)
        _, t = _timed(
            run_mix_matrix, mixes, factories, geometry,
            timing=TIMING, singles=singles, max_workers=workers, engine="fast",
        )
        parallel = min(parallel, t)
    return {
        "mixes": len(mixes),
        "policies": len(factories),
        "workers": workers,
        "serial_reference_seconds": round(serial_ref, 4),
        "serial_fast_seconds": round(serial_fast, 4),
        "parallel_seconds": round(parallel, 4),
        "parallel_speedup_vs_serial_reference": round(serial_ref / parallel, 2),
        "parallel_speedup_vs_serial_fast": round(serial_fast / parallel, 2),
    }


def run_benchmark(length: int, repeats: int, workers: int) -> dict:
    geometry, mixes = _mix_traces(length, num_mixes=2)
    first = next(iter(mixes.values()))
    singles = single_thread_baselines(first, geometry, timing=TIMING)
    return {
        "cores": CORES,
        "geometry": f"{geometry.num_sets} sets x {geometry.ways} ways",
        "length_per_thread": length,
        "cpu_count": os.cpu_count(),
        "kernels": {
            "lru": _engine_pair(first, geometry, singles, LRUPolicy, repeats),
            "ta_drrip": _engine_pair(
                first, geometry, singles,
                partial(TADRRIPPolicy, num_threads=CORES), repeats,
            ),
            "pdp": _engine_pair(
                first, geometry, singles,
                partial(PDPPolicy, recompute_interval=8192), repeats,
            ),
            "ucp": _engine_pair(
                first, geometry, singles,
                partial(UCPPolicy, num_threads=CORES), repeats,
            ),
            "pipp": _engine_pair(
                first, geometry, singles,
                partial(PIPPPolicy, num_threads=CORES), repeats,
            ),
        },
        "grid": _grid_triple(mixes, geometry, workers, repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="short threads, single repeat (CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the fast or vector engine is slower than "
        "the reference",
    )
    parser.add_argument(
        "--length", type=int, default=None,
        help="per-thread trace length (default 50000, or 8000 with --quick)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="grid worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default BENCH_multicore.json at the repo "
        "root; '-' skips writing)",
    )
    parser.add_argument(
        "--trajectory", default=None,
        help="also append the canonical record to this JSONL trajectory file",
    )
    args = parser.parse_args(argv)

    length = args.length or (8_000 if args.quick else 50_000)
    repeats = 1 if args.quick else 3
    workers = args.workers or (os.cpu_count() or 1)
    report = run_benchmark(length, repeats, workers)
    record = canonical_record("multicore", report)

    print(json.dumps(report, indent=2))
    if args.out != "-":
        out = Path(args.out) if args.out else (
            Path(__file__).resolve().parent.parent / "BENCH_multicore.json"
        )
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"[written to {out}]", file=sys.stderr)
    if args.trajectory:
        append_trajectory(record, args.trajectory)
        print(f"[appended to {args.trajectory}]", file=sys.stderr)

    if args.check:
        slow = [
            f"{engine}/{name}"
            for name, pair in report["kernels"].items()
            for engine, key in (("fast", "speedup"), ("vector", "vector_speedup"))
            if pair[key] < 1.0
        ]
        if slow:
            print(f"FAIL: slower than the reference engine: {slow}",
                  file=sys.stderr)
            return 1
        print("CHECK OK: fast and vector engines >= reference for all policies",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
