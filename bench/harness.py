"""Run one benchmark workload in this interpreter, in four phases.

1. Set-up: generate the inputs (and, for ``daemon``, start the service)
   :data:`SETUP_REPEATS` times; ``setup_s`` is the median.
2. Timed iterations, tracing off: at least :data:`MIN_ITERATIONS`, and
   more until ``--seconds`` have passed; ``wall_s`` is the median.
3. One traced iteration (``--trace 1``): every layer binding listed in
   :func:`install_wrappers` records spans, written to ``spans.jsonl``.
4. Correctness: counter invariants on every result, every iteration
   reproducing the first, and each workload's independent-path check.

``bench/run.py`` starts this file once per workload as a fresh child
interpreter; the result lands in ``<run-dir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
import zlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Workload names, in the order ``bench/run.py`` runs them.
WORKLOAD_NAMES = ("pd-sweep", "llc-single", "shared-mix", "objstore", "daemon")

#: End-to-end metrics and their units (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "acc_per_s": "acc/s",
    "peak_rss_mb": "MiB",
    "sim_hit_rate": "fraction",
}

#: Per-layer metrics of the traced iteration, named after the module
#: they measure, and their units.
PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.job_gen_s": "s",
    "traces.payload_write_s": "s",
    "traces.payload_bytes": "bytes",
    "traces.chunk_s": "s",
    "memory.columnar.busy_s": "s",
    "memory.columnar.accesses": "count",
    "memory.columnar.acc_per_busy_s": "acc/s",
    "memory.fastpath.busy_s": "s",
    "memory.fastpath.accesses": "count",
    "memory.fastpath.shared_busy_s": "s",
    "memory.fastpath.shared_accesses": "count",
    "core.pd_recompute.calls": "count",
    "core.pd_recompute.busy_s": "s",
    "core.find_best_pd.calls": "count",
    "core.find_best_pd.busy_s": "s",
    "sim.single_core.self_s": "s",
    "sim.multi_core.baselines_s": "s",
    "sim.multi_core.interleave_s": "s",
    "sim.multi_core.self_s": "s",
    "sim.parallel.workers": "count",
    "sim.parallel.cells": "count",
    "sim.parallel.first_dispatch_s": "s",
    "sim.parallel.cell_wall_p50_s": "s",
    "sim.parallel.serial_wall_s": "s",
    "sim.parallel.pool_speedup": "ratio",
    "swcache.requests": "count",
    "swcache.self_s": "s",
    "swcache.byte_hit_rate": "fraction",
    "explore.profile_s": "s",
    "explore.predict_s": "s",
    "service.job_latency_p50_s": "s",
    "service.submit_rtt_s": "s",
    "service.job_runtime_p50_s": "s",
    "service.job_queue_wait_p50_s": "s",
    "service.overhead_p50_s": "s",
    "service.cells_ran": "count",
    "service.cells_skipped": "count",
    "service.resume_skip_frac": "fraction",
    "obs.manifest_write_s": "s",
    "obs.manifests_written": "count",
    "bench.tracing_overhead_frac": "fraction",
}

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = 5

#: Timed iterations run even when ``--seconds`` is already spent.
MIN_ITERATIONS = 3


class SpeedProbe:
    """Normalises host times to a fixed reference machine speed.

    The CPUs of a shared host run tens of percent slower for tens of
    seconds at a time, which would swamp any comparison between runs.
    The probe's index is the geometric mean of three fixed micro-kernels
    timed in this process: an interpreter loop, zlib level 9 and a numpy
    sort, the three kinds of work the workloads spend their time in. A
    time measured between two probes is reported in reference seconds:
    multiplied by :data:`REFERENCE_INDEX_S` over the mean of the two
    indexes. The raw times are kept beside the normalised ones.
    """

    #: The index on the reference host (2-CPU x86-64, Python 3.11).
    REFERENCE_INDEX_S = 0.005

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._payload = (rng.integers(0, 1 << 16, 1024) * 64).astype(np.int64).tobytes()
        self._keys = rng.integers(0, 1 << 30, 60_000)
        self._argsort = np.argsort

    def index(self) -> float:
        """Time the three micro-kernels once; their geometric mean."""
        start = perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        loop = perf_counter() - start
        start = perf_counter()
        zlib.compress(self._payload, 9)
        packed = perf_counter() - start
        start = perf_counter()
        self._argsort(self._keys, kind="stable")
        sort = perf_counter() - start
        return (loop * packed * sort) ** (1 / 3)

    def timed(self, fn):
        """Run ``fn()`` between two probes: ``(result, raw seconds,
        scale)``, where raw seconds times scale is reference seconds."""
        before = self.index()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        return result, raw, self.REFERENCE_INDEX_S / ((before + self.index()) / 2)


def install_wrappers(recorder) -> None:
    """Wrap every layer binding the traced iteration measures.

    Each function is wrapped where its caller looks it up, e.g.
    ``run_trace_vector`` in ``repro.sim.single_core`` (which calls it)
    rather than in ``repro.memory.columnar`` (which defines it).
    """
    import repro.core.hit_rate_model as hit_rate_model
    import repro.explore.explorer as explorer
    import repro.memory.columnar as columnar
    import repro.sim.multi_core as multi_core
    import repro.sim.parallel as parallel
    import repro.sim.single_core as single_core
    import repro.swcache.driver as swdriver
    import repro.swcache.policies as swpolicies
    from repro.core.pd_engine import PDEngine
    from repro.obs.manifest import Manifest
    from repro.traces.trace import Trace

    def accesses(args, kwargs, result):
        return {"accesses": len(args[1])}

    def payload_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    wrap = recorder.wrap
    wrap(single_core, "run_trace_vector", "memory.columnar.run_trace_vector", accesses)
    wrap(single_core, "run_trace", "memory.fastpath.run_trace", accesses)
    wrap(columnar, "run_trace", "memory.fastpath.run_trace", accesses)
    wrap(multi_core, "run_shared_trace", "memory.fastpath.run_shared_trace", accesses)
    wrap(PDEngine, "recompute", "core.pd_recompute")
    wrap(hit_rate_model, "find_best_pd", "core.find_best_pd")
    wrap(swpolicies, "find_best_pd", "core.find_best_pd")
    for module in (single_core, multi_core, parallel):
        wrap(module, "run_llc", "sim.single_core.run_llc")
    wrap(multi_core, "single_thread_baselines", "sim.multi_core.single_thread_baselines")
    wrap(multi_core, "interleave_traces", "sim.multi_core.interleave_traces")
    wrap(parallel, "run_shared_llc", "sim.multi_core.run_shared_llc")
    wrap(parallel, "run_matrix", "sim.parallel.run_matrix")
    wrap(parallel, "run_mix_matrix", "sim.parallel.run_mix_matrix")
    wrap(swdriver, "run_object_cache", "swcache.run_object_cache")
    wrap(explorer, "explore", "explore.explore")
    wrap(explorer, "profile_trace", "explore.profile_trace")
    wrap(Trace, "save", "traces.save", payload_bytes)
    wrap(Manifest, "save", "obs.manifest_save")


def layer_metrics(spans: list[dict], extras: dict) -> dict:
    """Every :data:`PER_LAYER` metric from the traced spans plus the
    workload's own measurements (0 for a layer the workload never
    reaches)."""
    from tracing import self_accesses, self_times

    own = self_times(spans)
    handled = self_accesses(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def duration(name: str) -> float:
        return sum(span["duration_s"] for span in by_name[name])

    def busy(name: str) -> float:
        return sum(own[span["span_id"]] for span in by_name[name])

    def served(name: str) -> int:
        return sum(handled[span["span_id"]] for span in by_name[name])

    columnar_busy = busy("memory.columnar.run_trace_vector")
    columnar_accesses = served("memory.columnar.run_trace_vector")
    job_gens = len(by_name["workloads.job_gen"])
    metrics = {
        "workloads.gen_s": duration("workloads.gen"),
        "workloads.job_gen_s": duration("workloads.job_gen") / job_gens if job_gens else 0.0,
        "traces.payload_write_s": duration("traces.save"),
        "traces.payload_bytes": sum(
            span["attributes"].get("bytes", 0) for span in by_name["traces.save"]
        ),
        "traces.chunk_s": duration("traces.chunk"),
        "memory.columnar.busy_s": columnar_busy,
        "memory.columnar.accesses": columnar_accesses,
        "memory.columnar.acc_per_busy_s": (
            columnar_accesses / columnar_busy if columnar_busy else 0.0
        ),
        "memory.fastpath.busy_s": busy("memory.fastpath.run_trace"),
        "memory.fastpath.accesses": served("memory.fastpath.run_trace"),
        "memory.fastpath.shared_busy_s": busy("memory.fastpath.run_shared_trace"),
        "memory.fastpath.shared_accesses": served("memory.fastpath.run_shared_trace"),
        "core.pd_recompute.calls": len(by_name["core.pd_recompute"]),
        "core.pd_recompute.busy_s": busy("core.pd_recompute"),
        "core.find_best_pd.calls": len(by_name["core.find_best_pd"]),
        "core.find_best_pd.busy_s": busy("core.find_best_pd"),
        "sim.single_core.self_s": busy("sim.single_core.run_llc"),
        "sim.multi_core.baselines_s": duration("sim.multi_core.single_thread_baselines"),
        "sim.multi_core.interleave_s": duration("sim.multi_core.interleave_traces"),
        "sim.multi_core.self_s": busy("sim.multi_core.run_shared_llc"),
        "swcache.self_s": busy("swcache.run_object_cache"),
        "explore.profile_s": duration("explore.profile_trace"),
        "explore.predict_s": busy("explore.explore"),
        "obs.manifest_write_s": duration("obs.manifest_save"),
        "obs.manifests_written": len(by_name["obs.manifest_save"]),
    }
    metrics.update(extras)
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, run_dir: Path
) -> dict:
    """Run the four phases of one workload; returns the run record.

    ``correct`` is False when any operation raised or any check failed;
    ``failures`` names each failed operation.
    """
    from repro.obs.bench import machine_fingerprint
    from tracing import SpanRecorder
    from workloads import WORKLOADS, digest, invariant_violations

    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, run_dir)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
        "sizes": workload.size,
        "machine": machine_fingerprint(),
    }
    failures: list[str] = []
    iterations: list = []
    inputs = None
    try:
        probe = SpeedProbe()
        setup, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            if inputs is not None:
                workload.stop(inputs)
                inputs = None
            inputs, raw, scale = probe.timed(lambda: workload.start(workload.generate()))
            setup_raw.append(raw)
            setup.append(raw * scale)

        walls, walls_raw = [], []
        started = perf_counter()
        while len(walls) < MIN_ITERATIONS or perf_counter() - started < seconds:
            ops, raw, scale = probe.timed(lambda: workload.iterate(inputs, len(walls)))
            iterations.append(ops)
            walls_raw.append(raw)
            walls.append(raw * scale)
        peak = workload.peak_rss_mb(inputs)
        timed = list(iterations)

        if traced:
            recorder = SpanRecorder(run_dir / "worker-spans")
            install_wrappers(recorder)
            try:
                with recorder.span("setup", root=True):
                    with recorder.span("workloads.gen"):
                        workload.generate()
                with recorder.span(f"iteration:{name}", root=True):
                    ops, raw, scale = probe.timed(
                        lambda: workload.iterate(inputs, len(timed), recorder)
                    )
                iterations.append(ops)
                traced_wall = raw * scale
                workload.replay(inputs, len(timed), recorder)
            finally:
                recorder.unwrap_all()
            recorder.collect()
            recorder.write(run_dir / "spans.jsonl")

        for ops in iterations:
            for op in ops:
                if op.error:
                    failures.append(f"{op.key}: {op.error}")
                if op.stats is not None:
                    failures += invariant_violations(op.key, op.stats)
        if workload.deterministic():
            for index, ops in enumerate(iterations[1:], start=1):
                for first, op in zip(iterations[0], ops):
                    if op.stats != first.stats:
                        failures.append(f"iteration {index} {op.key}: differs from iteration 0")
        failures += workload.check(inputs, iterations)

        sim = workload.sim_stats(inputs, iterations[0])
        accesses = sum(stats["accesses"] for stats in sim)
        wall = statistics.median(walls)
        record.update(
            {
                "iterations": len(walls),
                "setup_samples": setup,
                "wall_samples": walls,
                "sim_digest": digest(sim),
                "end_to_end": {
                    "setup_s": statistics.median(setup),
                    "wall_s": wall,
                    "acc_per_s": workload.accesses() / wall,
                    "peak_rss_mb": peak,
                    "sim_hit_rate": sum(stats["hits"] for stats in sim) / accesses,
                },
                "raw": {
                    "setup_s": statistics.median(setup_raw),
                    "wall_s": statistics.median(walls_raw),
                },
            }
        )
        if traced:
            extras = workload.layer_extras(inputs, timed, iterations[-1])
            extras["bench.tracing_overhead_frac"] = traced_wall / wall - 1.0
            record["per_layer"] = layer_metrics(recorder.spans, extras)
    except Exception:  # noqa: BLE001 — reported as a failed operation
        record["error"] = traceback.format_exc()
        failures.append(f"raised: {record['error'].strip().splitlines()[-1]}")
    finally:
        if inputs is not None:
            workload.stop(inputs)
        workload.cleanup()
    attempted = sum(len(ops) for ops in iterations) + (1 if "error" in record else 0)
    record.update(
        {
            "attempted": max(1, attempted),
            "failed": min(max(1, attempted), len(failures)),
            "failures": failures,
            "correct": not failures,
        }
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    # Scrub before the first repro import: the library reads REPRO_*
    # (worker count, telemetry, trace cache) at import and call time.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # Pool payloads go to the temp dir: keep them inside the run's
    # scratch space, which the workload deletes at the end.
    temp = args.run_dir / "scratch" / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temp)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.run_dir
    )
    with open(args.run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
