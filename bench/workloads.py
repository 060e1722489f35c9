"""The benchmark's five workloads, each a user path through the library.

A workload generates its inputs from the seed (:meth:`Workload.generate`),
optionally starts a service on them (:meth:`Workload.start`), runs one
iteration as a list of operations (:meth:`Workload.iterate`) and checks
the outputs against an independent path (:meth:`Workload.check`). Every
library call goes through a module attribute (``parallel.run_matrix``,
not an imported name), so the traced iteration's wrappers see it.

Why these five, and which layer each one stresses, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, sleep

import repro.experiments.fig12_partitioning as fig12
import repro.explore.explorer as explorer
import repro.sim.multi_core as multi_core
import repro.sim.parallel as parallel
import repro.sim.single_core as single_core
import repro.swcache.driver as swdriver
import repro.workloads.mixes as mixes_module
import repro.workloads.objectstore as objectstore
import repro.workloads.phased as phased
import repro.workloads.spec_like as spec_like
from repro.core.pdp_policy import PDPPolicy
from repro.experiments.common import EXPERIMENT_GEOMETRY, TIMING
from repro.obs.manifest import scan_manifests
from repro.policies.base import make_policy
from repro.policies.lru import LRUPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.service.protocol import ServiceClient
from repro.swcache.policies import SOFTWARE_POLICIES

#: The library sources the benchmark runs (and starts ``repro serve`` from).
SRC = Path(__file__).resolve().parent.parent / "src"

#: Benchmark every single-core workload simulates (a Fig. 4 trace).
BENCHMARK = "403.gcc"

#: generate_mixes seed of the shared-mix composition. The composition is
#: pinned (Fig. 12's default seed) because a seed-drawn one swings the
#: per-iteration host time and the hit rate by more than the metric
#: bounds across seeds; the run's seed feeds the per-thread traces.
MIX_SEED = 7


@dataclass
class Op:
    """One operation of an iteration: a cell, a run, a replay or a job."""

    key: str
    stats: dict | None = None
    error: str | None = None
    info: dict = field(default_factory=dict)


def llc_stats(result) -> dict:
    """The simulated statistics of a :class:`SingleCoreResult`."""
    return {
        "accesses": result.accesses,
        "hits": result.hits,
        "misses": result.misses,
        "bypasses": result.bypasses,
        "evictions": result.evictions,
        "instructions": result.instructions,
        "ipc": result.ipc,
    }


def shared_stats(result) -> dict:
    """The simulated statistics of a :class:`MultiCoreResult`."""
    threads = [
        {
            "accesses": t.accesses,
            "hits": t.hits,
            "misses": t.misses,
            "bypasses": t.bypasses,
            "instructions": t.instructions,
            "ipc": t.ipc,
        }
        for t in result.threads
    ]
    return {
        "accesses": sum(t["accesses"] for t in threads),
        "hits": sum(t["hits"] for t in threads),
        "threads": threads,
        "weighted": result.weighted,
        "throughput": result.throughput,
        "hmean": result.hmean,
    }


def object_stats(result) -> dict:
    """The simulated statistics of an :class:`ObjectCacheResult`."""
    names = (
        "accesses", "hits", "misses", "bypasses", "evictions", "fills",
        "expirations", "invalidations", "writes", "bytes_requested",
        "bytes_hit", "bytes_missed", "bytes_admitted", "bytes_evicted",
    )
    return {name: getattr(result.stats, name) for name in names}


def invariant_violations(key: str, stats: dict) -> list[str]:
    """Counter identities every simulated result must satisfy."""
    problems = []
    for index, row in enumerate(stats.get("threads") or [stats]):
        where = f"{key}" if "threads" not in stats else f"{key} thread {index}"
        if row["hits"] + row["misses"] != row["accesses"]:
            problems.append(f"{where}: hits + misses != accesses")
        if row["bypasses"] > row["misses"]:
            problems.append(f"{where}: bypasses > misses")
    if "bytes_requested" in stats:
        if stats["misses"] != stats["fills"] + stats["bypasses"]:
            problems.append(f"{key}: misses != fills + bypasses")
        if stats["bytes_requested"] != stats["bytes_hit"] + stats["bytes_missed"]:
            problems.append(f"{key}: bytes_requested != bytes_hit + bytes_missed")
    return problems


def digest(stats: list[dict]) -> str:
    """A short hash of simulated statistics (order-sensitive)."""
    payload = json.dumps(stats, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def mismatches(label: str, expected: dict, actual: dict) -> list[str]:
    """One message when two paths' statistics differ, else none."""
    differing = [key for key in expected if actual.get(key) != expected[key]]
    if not differing:
        return []
    return [f"{label}: {', '.join(differing)} differ"]


class GridWatch:
    """``on_event`` callback timing one grid call from the outside:
    call to first dispatch, and each cell's started-to-finished wall."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.first_dispatch_s: float | None = None
        self.grid_s = 0.0
        self.fallback = False
        self._started: dict[str, float] = {}
        self.cell_walls: dict[str, float] = {}

    def __call__(self, event) -> None:
        now = perf_counter()
        if event.kind == "started":
            self._started[event.key] = now
            if self.first_dispatch_s is None:
                self.first_dispatch_s = now - self.start
        elif event.kind in ("finished", "failed"):
            self.cell_walls[event.key] = now - self._started.get(event.key, self.start)
        elif event.kind == "warning":
            self.fallback = True

    def done(self) -> None:
        """Mark the grid call returned."""
        self.grid_s = perf_counter() - self.start


class Workload:
    """Base class: sizes, scratch space and the per-layer hooks."""

    name = ""
    #: sizes for a full run and for ``--smoke``.
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, smoke: bool, run_dir: Path) -> None:
        self.seed = seed
        self.size = self.SIZES["smoke" if smoke else "full"]
        self.run_dir = run_dir
        self._scratch = run_dir / "scratch"

    def scratch(self, name: str) -> str:
        """A fresh directory under the run's scratch space."""
        path = self._scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    def generate(self):
        """Generate the inputs from the seed."""
        raise NotImplementedError

    def start(self, inputs):
        """Bring up whatever serves the inputs (default: nothing)."""
        return inputs

    def stop(self, inputs) -> None:
        """Release what :meth:`start` brought up."""

    def accesses(self) -> int:
        """Simulated accesses (requests) per iteration."""
        raise NotImplementedError

    def peak_rss_mb(self, inputs) -> float:
        """Peak RSS in MiB of this process and its reaped children (the
        pool workers of a grid)."""
        return max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024

    def iterate(self, inputs, index: int, recorder=None) -> list[Op]:
        """Run one iteration; ``recorder`` is set on the traced one."""
        raise NotImplementedError

    def deterministic(self) -> bool:
        """Whether every iteration must reproduce the first's statistics."""
        return True

    def sim_stats(self, inputs, first: list[Op]) -> list[dict]:
        """The simulated statistics the hit rate and digest cover."""
        return [op.stats for op in first]

    def check(self, inputs, iterations: list[list[Op]]) -> list[str]:
        """Independent-path checks; one message per failed operation."""
        return []

    def replay(self, inputs, index: int, recorder) -> None:
        """Re-run, in-process and traced, work the traced iteration did
        out of reach of the wrappers (default: none)."""

    def layer_extras(self, inputs, timed: list[list[Op]], traced: list[Op]) -> dict:
        """Per-layer metrics measured outside the wrapped bindings."""
        return {}

    def cleanup(self) -> None:
        """Delete the scratch space."""
        shutil.rmtree(self._scratch, ignore_errors=True)


class _GridWorkload(Workload):
    """Shared bookkeeping of the two ``sim.parallel`` grid workloads."""

    STATS = staticmethod(llc_stats)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.watches: list[GridWatch] = []
        self.serial_wall_s = 0.0

    def _before_grid(self, inputs) -> dict:
        """Work an iteration does before the grid call; returns extra
        grid arguments (default: none)."""
        return {}

    def _grid(self, inputs, index, **kwargs) -> dict:
        raise NotImplementedError

    def iterate(self, inputs, index, recorder=None):
        extra = self._before_grid(inputs)
        watch = GridWatch()
        results = self._grid(inputs, index, on_event=watch, **extra)
        watch.done()
        self.watches.append(watch)
        return [
            Op(str(key), self.STATS(result)) for key, result in results.items()
        ]

    def check(self, inputs, iterations):
        extra = self._before_grid(inputs)
        start = perf_counter()
        serial = self._grid(inputs, "serial", max_workers=1, **extra)
        self.serial_wall_s = perf_counter() - start
        serial = {str(key): self.STATS(result) for key, result in serial.items()}
        problems = []
        for op in iterations[0]:
            problems += mismatches(f"serial replay {op.key}", op.stats, serial.get(op.key, {}))
        return problems

    def layer_extras(self, inputs, timed, traced) -> dict:
        watch = self.watches[-1]
        pooled = statistics.median(w.grid_s for w in self.watches[:-1])
        workers = 1 if watch.fallback else min(
            parallel.resolve_max_workers(None), len(watch.cell_walls)
        )
        return {
            "sim.parallel.workers": workers,
            "sim.parallel.cells": len(watch.cell_walls),
            "sim.parallel.first_dispatch_s": watch.first_dispatch_s or 0.0,
            "sim.parallel.cell_wall_p50_s": statistics.median(watch.cell_walls.values()),
            "sim.parallel.serial_wall_s": self.serial_wall_s,
            "sim.parallel.pool_speedup": self.serial_wall_s / pooled if pooled else 0.0,
        }


class PDSweep(_GridWorkload):
    """Fig. 4 grid: static-PD cells through the library-default pool."""

    name = "pd-sweep"
    SIZES = {
        "full": {"length": 125_000, "pds": list(range(16, 257, 16))},
        "smoke": {"length": 6_000, "pds": [64, 256]},
    }

    def generate(self):
        return spec_like.make_benchmark_trace(
            BENCHMARK,
            length=self.size["length"],
            num_sets=EXPERIMENT_GEOMETRY.num_sets,
            seed=self.seed,
        )

    def _factories(self) -> dict:
        return {f"spdp-{pd}": partial(PDPPolicy, static_pd=pd) for pd in self.size["pds"]}

    def accesses(self) -> int:
        return self.size["length"] * len(self.size["pds"])

    def _grid(self, trace, index, **kwargs):
        return parallel.run_matrix(
            trace, self._factories(), EXPERIMENT_GEOMETRY,
            manifest_dir=self.scratch(f"sweep-{index}"), **kwargs,
        )


class LLCSingle(Workload):
    """`run_llc` of LRU, dynamic PDP and DRRIP on phase-changing traces."""

    name = "llc-single"
    SIZES = {
        "full": {"phase_length": 40_000, "prefix": 20_000},
        "smoke": {"phase_length": 2_000, "prefix": 2_000},
    }
    POLICIES = {"lru": LRUPolicy, "pdp": PDPPolicy, "drrip": DRRIPPolicy}
    TRACES = ("403.gcc", "429.mcf")

    def generate(self):
        profiles = phased.phase_changing_profiles(self.size["phase_length"])
        return [
            profiles[name].generate(num_sets=EXPERIMENT_GEOMETRY.num_sets, seed=self.seed)
            for name in self.TRACES
        ]

    def accesses(self) -> int:
        return 3 * self.size["phase_length"] * len(self.TRACES) * len(self.POLICIES)

    def iterate(self, traces, index, recorder=None):
        ops = []
        for trace in traces:
            for key, policy in self.POLICIES.items():
                result = single_core.run_llc(trace, policy(), EXPERIMENT_GEOMETRY)
                ops.append(Op(f"{trace.name}/{key}", llc_stats(result)))
        return ops

    def check(self, traces, iterations):
        problems = []
        for trace in traces:
            prefix = trace.slice(0, self.size["prefix"])
            for key, policy in self.POLICIES.items():
                fast = single_core.run_llc(prefix, policy(), EXPERIMENT_GEOMETRY)
                reference = single_core.run_llc(
                    prefix, policy(), EXPERIMENT_GEOMETRY, engine="reference"
                )
                problems += mismatches(
                    f"reference engine {trace.name}/{key}",
                    llc_stats(reference),
                    llc_stats(fast),
                )
        return problems


class SharedMix(_GridWorkload):
    """Fig. 12 composition: baselines plus a mix x policy grid."""

    name = "shared-mix"
    SIZES = {
        "full": {"per_thread": 12_500, "mixes": 2, "cores": 4, "reference": 5_000},
        "smoke": {"per_thread": 1_000, "mixes": 1, "cores": 4, "reference": 500},
    }

    def _geometry(self):
        return fig12.shared_geometry(self.size["cores"])

    def _factories(self) -> dict:
        cores = self.size["cores"]
        return {
            fig12.BASELINE: partial(TADRRIPPolicy, num_threads=cores),
            **fig12.partition_policies(cores),
        }

    def generate(self):
        mixes = mixes_module.generate_mixes(
            self.size["mixes"], cores=self.size["cores"], seed=MIX_SEED
        )
        return {
            mix.name: [
                spec_like.make_benchmark_trace(
                    name,
                    length=self.size["per_thread"],
                    num_sets=self._geometry().num_sets,
                    seed=1000 * self.seed + 97 * slot,
                )
                for slot, name in enumerate(mix.benchmarks)
            ]
            for mix in mixes
        }

    def accesses(self) -> int:
        # Each cell simulates the interleaved mix; each baseline one thread.
        per_mix = self.size["per_thread"] * self.size["cores"]
        return self.size["mixes"] * per_mix * (len(self._factories()) + 1)

    STATS = staticmethod(shared_stats)

    def _before_grid(self, traces) -> dict:
        return {
            "singles": {
                key: multi_core.single_thread_baselines(
                    threads, self._geometry(), timing=TIMING
                )
                for key, threads in traces.items()
            }
        }

    def _grid(self, traces, index, **kwargs):
        return parallel.run_mix_matrix(
            traces, self._factories(), self._geometry(), timing=TIMING, **kwargs
        )

    def check(self, traces, iterations):
        problems = super().check(traces, iterations)
        mix_key, threads = next(iter(traces.items()))
        short = [trace.slice(0, self.size["reference"]) for trace in threads]
        factory = self._factories()["PDP"]
        fast, reference = (
            shared_stats(
                multi_core.run_shared_llc(
                    short, factory(), self._geometry(), timing=TIMING, engine=engine
                )
            )
            for engine in ("fast", "reference")
        )
        problems += mismatches(f"reference engine {mix_key}/PDP", reference, fast)
        return problems


class ObjStore(Workload):
    """`run_object_cache` of the four software policies over one stream."""

    name = "objstore"
    SIZES = {
        "full": {"requests": 100_000, "catalog": 100_000, "capacity": 16 << 20},
        "smoke": {"requests": 4_000, "catalog": 5_000, "capacity": 4 << 20},
    }

    def generate(self):
        stream = objectstore.make_object_stream(
            self.size["requests"], num_objects=self.size["catalog"], seed=self.seed
        )
        # Validate the generated stream once, so no replay meets a
        # malformed request.
        produced = 0
        for chunk in stream.chunks():
            if len(chunk) and int(chunk.sizes.min()) <= 0:
                raise ValueError("object stream produced a non-positive size")
            produced += len(chunk)
        if produced != self.size["requests"]:
            raise ValueError(f"object stream produced {produced} requests")
        return stream

    def accesses(self) -> int:
        return self.size["requests"] * len(SOFTWARE_POLICIES)

    def iterate(self, stream, index, recorder=None):
        source = stream if recorder is None else recorder.traced_stream(stream)
        ops = []
        for name, policy in SOFTWARE_POLICIES.items():
            result = swdriver.run_object_cache(source, policy(), self.size["capacity"])
            ops.append(Op(name, object_stats(result)))
        return ops

    def layer_extras(self, stream, timed, traced) -> dict:
        requested = sum(op.stats["bytes_requested"] for op in traced)
        return {
            "swcache.requests": sum(op.stats["accesses"] for op in traced),
            "swcache.byte_hit_rate": (
                sum(op.stats["bytes_hit"] for op in traced) / requested if requested else 0.0
            ),
        }


@dataclass
class Daemon:
    """A running ``repro serve`` subprocess and its one client."""

    process: subprocess.Popen
    client: ServiceClient
    root: Path
    log: object


class DaemonJobs(Workload):
    """Closed loop, one client, against a ``repro serve`` subprocess."""

    name = "daemon"
    SIZES = {
        "full": {"length": 100_000, "policies": ["lru", "pdp"]},
        "smoke": {"length": 4_000, "policies": ["lru", "pdp"]},
    }
    #: Seconds to wait for the daemon's first successful ping.
    START_TIMEOUT_S = 60.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.jobs: list[Op] = []

    def _specs(self, cycle: int) -> dict:
        common = {
            "namespace": f"cycle-{cycle}",
            "benchmark": BENCHMARK,
            "length": self.size["length"],
            "seed": self.seed + cycle,
            "workers": 1,
        }
        matrix = {"kind": "matrix", "policies": list(self.size["policies"]), **common}
        return {
            "fresh": matrix,
            "resubmit": dict(matrix),
            "predict": {"kind": "predict", "top_k": 0, **common},
        }

    def generate(self):
        return None

    def start(self, inputs):
        root = self.run_dir / "svc"
        root.mkdir(parents=True, exist_ok=True)
        # The daemon serves its root as "." and the client connects by a
        # relative path, keeping the socket path under the 108-byte
        # AF_UNIX limit wherever the checkout lives.
        socket_path = os.path.relpath(root / "service.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = open(self.run_dir / "daemon.log", "a", encoding="utf-8")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", "."],
            cwd=root, env=env, stdout=log, stderr=log,
        )
        deadline = perf_counter() + self.START_TIMEOUT_S
        while True:
            client = ServiceClient(socket_path)
            try:
                client.ping()
                return Daemon(process, client, root, log)
            except OSError:
                client.close()
            if process.poll() is not None or perf_counter() > deadline:
                self._terminate(process)
                log.close()
                raise RuntimeError("repro serve did not answer ping (see daemon.log)")
            sleep(0.01)

    @staticmethod
    def _terminate(process: subprocess.Popen) -> None:
        if process.poll() is None:
            process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def stop(self, daemon: Daemon) -> None:
        try:
            daemon.client.shutdown()
        except OSError:
            pass
        finally:
            daemon.client.close()
            try:
                daemon.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._terminate(daemon.process)
            daemon.log.close()

    def peak_rss_mb(self, daemon: Daemon) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{daemon.process.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def accesses(self) -> int:
        # Only the fresh matrix job simulates; the resubmit skips every
        # cell and predict is analytical.
        return self.size["length"] * len(self.size["policies"])

    def deterministic(self) -> bool:
        return False  # each cycle simulates its own seed

    def _job(self, daemon: Daemon, key: str, spec: dict, recorder) -> Op:
        span = recorder.span(f"service.job:{key}", root=True) if recorder else nullcontext()
        with span:
            start = perf_counter()
            job = daemon.client.submit(spec)
            submit_rtt = perf_counter() - start
            final = None
            for response in daemon.client.watch(job["job_id"]):
                final = response.get("done", final)
            latency = perf_counter() - start
        error = None
        if final is None or final["state"] != "done":
            error = f"job ended {None if final is None else final['state']}"
        return Op(
            key, None, error,
            info={
                "job_id": job["job_id"],
                "latency_s": latency,
                "submit_rtt_s": submit_rtt,
                "record": final,
            },
        )

    def iterate(self, daemon, index, recorder=None):
        ops = [
            self._job(daemon, key, spec, recorder)
            for key, spec in self._specs(index).items()
        ]
        self.jobs += ops
        return ops

    def _fresh_cells(self, daemon: Daemon, cycle: int) -> list[dict]:
        report = scan_manifests(daemon.root / "namespaces" / f"cycle-{cycle}")
        cells = sorted(
            (m for m in report.manifests if m.kind == "llc"), key=lambda m: m.label
        )
        return [
            {"label": m.label, **m.stats, "ipc": m.metrics["ipc"]} for m in cells
        ]

    def sim_stats(self, daemon, first):
        return self._fresh_cells(daemon, 0)

    def check(self, daemon, iterations):
        problems = []
        for cycle, ops in enumerate(iterations):
            fresh, resubmit = ops[0], ops[1]
            for op, expected_ran in ((fresh, len(self.size["policies"])), (resubmit, 0)):
                record = op.info["record"]
                if record and record["ran_cells"] != expected_ran:
                    problems.append(f"cycle {cycle}: {op.key} job ran {record['ran_cells']} cells")
            spec = self._specs(cycle)["fresh"]
            trace = spec_like.make_benchmark_trace(
                BENCHMARK, length=spec["length"], num_sets=EXPERIMENT_GEOMETRY.num_sets,
                seed=spec["seed"],
            )
            cells = {cell.pop("label"): cell for cell in self._fresh_cells(daemon, cycle)}
            for name in spec["policies"]:
                expected = llc_stats(
                    single_core.run_llc(trace, make_policy(name), EXPERIMENT_GEOMETRY)
                )
                problems += mismatches(f"cycle {cycle} {name}", expected, cells.get(name, {}))
        return problems

    def replay(self, daemon, index, recorder) -> None:
        # The daemon regenerates every job's trace and runs the predict
        # job's explore call; repeat both here, where the wrappers are.
        regenerated = None
        for spec in self._specs(index).values():
            with recorder.span("workloads.job_gen", root=True):
                regenerated = spec_like.make_benchmark_trace(
                    BENCHMARK, length=spec["length"],
                    num_sets=EXPERIMENT_GEOMETRY.num_sets, seed=spec["seed"],
                )
        with recorder.span("explore.replay", root=True):
            explorer.explore(regenerated)

    def layer_extras(self, daemon, timed, traced) -> dict:
        records = {job["job_id"]: job for job in daemon.client.jobs()}
        rows = [(op, records.get(op.info["job_id"])) for op in self.jobs]
        rows = [(op, record) for op, record in rows if record and record["runtime_s"] is not None]
        ran = sum(record["ran_cells"] for _, record in rows)
        skipped = sum(record["skipped_cells"] for _, record in rows)

        def p50(values) -> float:
            values = list(values)
            return statistics.median(values) if values else 0.0

        return {
            "service.job_latency_p50_s": p50(op.info["latency_s"] for op in self.jobs),
            "service.submit_rtt_s": p50(op.info["submit_rtt_s"] for op in self.jobs),
            "service.job_runtime_p50_s": p50(record["runtime_s"] for _, record in rows),
            "service.job_queue_wait_p50_s": p50(
                record["queue_wait_s"] or 0.0 for _, record in rows
            ),
            "service.overhead_p50_s": p50(
                op.info["latency_s"] - record["runtime_s"] for op, record in rows
            ),
            "service.cells_ran": ran,
            "service.cells_skipped": skipped,
            "service.resume_skip_frac": skipped / (ran + skipped) if ran + skipped else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in (PDSweep, LLCSingle, SharedMix, ObjStore, DaemonJobs)}
