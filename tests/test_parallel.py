"""Parallel sweep runner: worker resolution, equivalence, fallbacks."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.obs.spans import SPANS_FILENAME, read_spans, render_span_tree
from repro.policies.lip_bip_dip import DIPPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.sim.parallel import (
    ENV_MAX_WORKERS,
    resolve_max_workers,
    run_matrix,
    run_mix_matrix,
)
from repro.sim.runner import sweep_static_pd
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=16)
PD_GRID = list(range(16, 144, 16))  # 8 points


class ExplodingPolicy(LRUPolicy):
    """Raises from inside the simulation — a stand-in for a policy bug."""

    def on_fill(self, set_index, way, access):
        raise RuntimeError("policy exploded")


@pytest.fixture(scope="module")
def trace() -> Trace:
    rng = np.random.default_rng(5)
    hot = rng.integers(0, 400, size=6000)
    cold = rng.integers(400, 20_000, size=6000)
    addresses = np.where(rng.random(6000) < 0.6, hot, cold)
    return Trace(addresses, name="parallel-test")


def _summaries(results):
    return {key: (r.hits, r.misses, r.bypasses) for key, r in results.items()}


def _serial_reference(trace, factories):
    """One in-process ``run_llc`` per factory, independent of run_matrix."""
    return {
        key: run_llc(trace, factory(), GEOMETRY)
        for key, factory in factories.items()
    }


def _static_pd_factories(pds):
    return {pd: partial(PDPPolicy, static_pd=pd, bypass=True) for pd in pds}


def test_resolve_max_workers(monkeypatch):
    monkeypatch.delenv(ENV_MAX_WORKERS, raising=False)
    assert resolve_max_workers(4) == 4
    assert resolve_max_workers(0) == 1
    assert resolve_max_workers() >= 1
    monkeypatch.setenv(ENV_MAX_WORKERS, "3")
    assert resolve_max_workers() == 3
    assert resolve_max_workers(2) == 2  # explicit argument beats the env
    monkeypatch.setenv(ENV_MAX_WORKERS, "lots")
    with pytest.raises(ValueError, match="REPRO_MAX_WORKERS"):
        resolve_max_workers()


def test_parallel_sweep_matches_serial(trace):
    assert len(PD_GRID) >= 8
    serial = _serial_reference(trace, _static_pd_factories(PD_GRID))
    parallel = sweep_static_pd(trace, GEOMETRY, PD_GRID, bypass=True, max_workers=3)
    assert list(parallel) == PD_GRID  # insertion order preserved
    assert _summaries(parallel) == _summaries(serial)


def test_parallel_sweep_accepts_trace_stream(trace, tmp_path):
    """A chunked TraceStream source sweeps identically to the in-memory
    trace: every worker iterates the stream it inherited chunked
    (O(chunk) per process)."""
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    path = tmp_path / "payload.trz"
    write_stream(as_stream(trace), path)
    stream = open_trace(path, chunk_size=1_024)
    serial = _serial_reference(trace, _static_pd_factories(PD_GRID[:4]))
    streamed = sweep_static_pd(
        stream, GEOMETRY, PD_GRID[:4], bypass=True, max_workers=2
    )
    assert _summaries(streamed) == _summaries(serial)


def test_parallel_compare_matches_serial(trace):
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    serial = _serial_reference(trace, factories)
    parallel = run_matrix(trace, factories, GEOMETRY, max_workers=2)
    assert _summaries(parallel) == _summaries(serial)


def test_unpicklable_factory_falls_back_to_serial(trace):
    # lambdas cannot cross processes; two cells so the pool is attempted
    factories = {"lru": lambda: LRUPolicy(), "drrip": lambda: DRRIPPolicy()}
    with pytest.warns(RuntimeWarning, match="running serially"):
        results = run_matrix(trace, factories, GEOMETRY, max_workers=2)
    reference = run_matrix(
        trace, {"lru": LRUPolicy, "drrip": DRRIPPolicy}, GEOMETRY, max_workers=1
    )
    assert _summaries(results) == _summaries(reference)


def test_serial_fallback_emits_warning_event_and_manifest_workers(trace, tmp_path):
    """The silent-fallback bug: degrading to serial must be loud — a
    RuntimeWarning, a ``warning`` progress event, and the requested vs
    effective worker counts recorded in the sweep manifest."""
    from repro.obs.manifest import load_manifests

    events = []
    factories = {"lru": lambda: LRUPolicy(), "drrip": lambda: DRRIPPolicy()}
    with pytest.warns(RuntimeWarning, match="not picklable"):
        run_matrix(
            trace, factories, GEOMETRY, max_workers=4,
            manifest_dir=tmp_path, on_event=events.append,
        )
    warnings_seen = [e for e in events if e.kind == "warning"]
    assert len(warnings_seen) == 1
    assert "4 workers" in warnings_seen[0].error
    sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"][0]
    assert sweep.config["workers_requested"] == 4
    assert sweep.config["workers_effective"] == 1
    (span,) = [
        s for s in read_spans(tmp_path / SPANS_FILENAME)
        if s["name"] == "warning:serial-fallback"
    ]
    assert span["duration_s"] == 0.0
    assert span["attributes"]["message"] == warnings_seen[0].error


@pytest.mark.parametrize("entry", ["run_matrix", "run_mix_matrix", "run_resumable_matrix"])
def test_serial_fallback_warning_points_at_the_caller(trace, tmp_path, entry):
    """Every entry point reaches the pool through the one runner, so the
    fallback warning lands on the line that called the entry point."""
    from tests.test_service import run_resumable_matrix

    lambdas = {"lru": lambda: LRUPolicy(), "drrip": lambda: DRRIPPolicy()}
    calls = {
        "run_matrix": lambda: run_matrix(trace, lambdas, GEOMETRY, max_workers=2),
        "run_mix_matrix": lambda: run_mix_matrix(
            _mixes(), lambdas, GEOMETRY, max_workers=2
        ),
        "run_resumable_matrix": lambda: run_resumable_matrix(
            trace, lambdas, GEOMETRY, tmp_path, max_workers=2
        ),
    }
    with pytest.warns(RuntimeWarning, match="running serially") as record:
        calls[entry]()
    assert [w.filename for w in record] == [__file__]


def test_pooled_matrix_records_effective_workers(trace, tmp_path):
    """The healthy pooled path records effective == min(requested, cells)
    and emits no warning events."""
    from repro.obs.manifest import load_manifests

    events = []
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(
        trace, factories, GEOMETRY, max_workers=3,
        manifest_dir=tmp_path, on_event=events.append,
    )
    assert [e for e in events if e.kind == "warning"] == []
    sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"][0]
    assert sweep.config["workers_requested"] == 3
    assert sweep.config["workers_effective"] == 2  # capped by 2 cells


@pytest.mark.parametrize("max_workers", [1, 2])
def test_stream_sweep_manifest_records_fingerprint(trace, tmp_path, max_workers):
    """The fingerprint-hole bug: a stream-sourced sweep manifest must
    carry the chunk-size-invariant trace fingerprint, equal to the
    in-memory trace's digest, not None — also when pool workers make
    every pass over the stream and the parent never iterates it. A
    stream opened from a file has no known length, so the manifest
    credits each cell with the accesses its run simulated."""
    from repro.obs.manifest import load_manifests, trace_fingerprint
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    path = tmp_path / "source.trz"
    write_stream(as_stream(trace), path)
    out = tmp_path / "manifests"
    run_matrix(
        open_trace(path), {"lru": LRUPolicy, "drrip": DRRIPPolicy}, GEOMETRY,
        max_workers=max_workers, manifest_dir=out,
    )
    sweep = [m for m in load_manifests(out) if m.kind == "matrix"][0]
    assert sweep.config["workers_effective"] == max_workers
    assert sweep.trace_fingerprint == trace_fingerprint(trace)
    assert sweep.accesses == 2 * len(trace)


def test_pooled_stream_matrix_resubmit_skips_every_cell(trace, tmp_path):
    """Resume matching over a pooled stream grid: the resubmitted matrix
    finds every cell's manifest and runs none of them."""
    from tests.test_service import run_resumable_matrix
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    path = tmp_path / "source.trz"
    write_stream(as_stream(trace), path)
    out = tmp_path / "manifests"
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    first, plan1 = run_resumable_matrix(
        open_trace(path), factories, GEOMETRY, out, max_workers=2
    )
    second, plan2 = run_resumable_matrix(
        open_trace(path), factories, GEOMETRY, out, max_workers=2
    )
    assert plan1.to_run == list(factories) and not plan1.skipped
    assert not plan2.to_run and len(plan2.skipped) == len(factories)
    assert _summaries(second) == _summaries(first)


def _fields(results):
    """Every result field a cell reports, windows included, bitwise."""
    return {
        key: (
            r.name, r.accesses, r.hits, r.misses, r.bypasses,
            r.instructions, r.ipc, r.evictions, r.extra.get("timeseries"),
        )
        for key, r in results.items()
    }


def test_pooled_grids_write_no_trace_payload(trace, monkeypatch):
    """Pool workers receive the grid's inputs through the pool
    initializer, not through trace files: with ``Trace.save`` broken,
    pooled windowed and mix grids still run on the pool (no fallback
    warning) and match serial bit-identically."""
    import warnings

    def refuse_save(self, path):
        raise AssertionError("a pooled grid wrote a trace payload")

    monkeypatch.setattr(Trace, "save", refuse_save)
    factories = {
        "lru": LRUPolicy,
        "drrip": DRRIPPolicy,
        "spdp": partial(PDPPolicy, static_pd=64),
    }
    mix_factories = {
        "lru": LRUPolicy,
        "ta-drrip": partial(TADRRIPPolicy, num_threads=2),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        serial = run_matrix(
            trace, factories, GEOMETRY, max_workers=1, window_size=1_000
        )
        pooled = run_matrix(
            trace, factories, GEOMETRY, max_workers=2, window_size=1_000
        )
        assert _fields(pooled) == _fields(serial)
        serial_mix = run_mix_matrix(_mixes(), mix_factories, GEOMETRY, max_workers=1)
        pooled_mix = run_mix_matrix(_mixes(), mix_factories, GEOMETRY, max_workers=2)
    assert _mix_summaries(pooled_mix) == _mix_summaries(serial_mix)


def test_spawn_pool_pickles_inputs_or_falls_back_loudly(trace, tmp_path, monkeypatch):
    """Off fork the inputs are pickled once per worker: an in-memory
    trace grid still pools and matches serial, while a file-backed
    stream (its chunk factory is a closure) takes the loud serial
    fallback up front instead of crashing at submit."""
    import multiprocessing
    import warnings

    import repro.sim.parallel as parallel
    from repro.obs.manifest import load_manifests
    from repro.traces.formats import open_trace, write_stream
    from repro.traces.stream import as_stream

    monkeypatch.setattr(
        parallel, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    serial = run_matrix(trace, factories, GEOMETRY, max_workers=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pooled = run_matrix(trace, factories, GEOMETRY, max_workers=2)
    assert _summaries(pooled) == _summaries(serial)

    path = tmp_path / "source.trz"
    write_stream(as_stream(trace), path)
    out = tmp_path / "manifests"
    events = []
    with pytest.warns(RuntimeWarning, match="grid inputs are not picklable"):
        streamed = run_matrix(
            open_trace(path), factories, GEOMETRY, max_workers=2,
            manifest_dir=out, on_event=events.append,
        )
    assert _summaries(streamed) == _summaries(serial)
    assert [e.kind for e in events].count("warning") == 1
    sweep = [m for m in load_manifests(out) if m.kind == "matrix"][0]
    assert sweep.config["workers_effective"] == 1


def test_runner_delegates_to_parallel(trace):
    serial = sweep_static_pd(trace, GEOMETRY, PD_GRID[:3])
    delegated = sweep_static_pd(trace, GEOMETRY, PD_GRID[:3], max_workers=2)
    assert _summaries(delegated) == _summaries(serial)


def test_engines_agree_through_matrix(trace):
    factories = {"lru": LRUPolicy}
    fast = run_matrix(trace, factories, GEOMETRY, max_workers=1, engine="fast")
    ref = run_matrix(trace, factories, GEOMETRY, max_workers=1, engine="reference")
    assert _summaries(fast) == _summaries(ref)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_worker_simulation_error_propagates(trace, tmp_path, max_workers):
    """Regression: a genuine simulation error raised inside a worker must
    surface to the caller — not be swallowed by a silent serial re-run
    (which would both mask the bug and double the runtime). The failed
    cell's span carries the progress event's error text."""
    events = []
    factories = {"boom": ExplodingPolicy, "lru": LRUPolicy}
    with pytest.raises(RuntimeError, match="policy exploded"):
        run_matrix(
            trace, factories, GEOMETRY, max_workers=max_workers,
            manifest_dir=tmp_path, on_event=events.append,
        )
    (failed,) = [e for e in events if e.kind == "failed"]
    spans = {s["name"]: s for s in read_spans(tmp_path / SPANS_FILENAME)}
    assert spans["cell:boom"]["attributes"]["status"] == "failed"
    assert spans["cell:boom"]["attributes"]["error"] == failed.error
    assert "error" not in spans["cell:lru"]["attributes"]


@pytest.mark.parametrize("max_workers", [1, 2])
def test_progress_events_ordered(trace, max_workers):
    """Every task's started event precedes its finished event, and the
    done counter is monotonic — also under the process pool, where
    completions arrive via as_completed."""
    events = []
    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(
        trace, factories, GEOMETRY, max_workers=max_workers, on_event=events.append
    )
    kinds = [(e.kind, e.key) for e in events]
    for key in factories:
        assert kinds.count(("started", key)) == 1
        assert kinds.count(("finished", key)) == 1
        assert kinds.index(("started", key)) < kinds.index(("finished", key))
    dones = [e.done for e in events]
    assert dones == sorted(dones)
    assert events[-1].done == events[-1].total == len(factories)


def test_run_matrix_manifest_dir_writes_cells_and_spans(trace, tmp_path):
    from repro.obs.manifest import load_manifests

    factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
    run_matrix(trace, factories, GEOMETRY, max_workers=2, manifest_dir=tmp_path)
    manifests = load_manifests(tmp_path)
    cells = [m for m in manifests if m.kind == "llc"]
    sweeps = [m for m in manifests if m.kind == "matrix"]
    assert sorted(m.label for m in cells) == ["drrip", "lru"]
    assert len(sweeps) == 1
    assert {t["status"] for t in sweeps[0].tasks} == {"finished"}
    assert sorted(path.name for path in tmp_path.iterdir()
                  if path.suffix != ".json") == [SPANS_FILENAME]
    spans = read_spans(tmp_path / SPANS_FILENAME)
    finished = [s for s in spans if s["attributes"].get("status") == "finished"]
    assert sorted(s["name"] for s in finished) == ["cell:drrip", "cell:lru"]


_KILLED_GRID = textwrap.dedent(
    """
    import os, signal, sys

    import numpy as np

    from repro.memory.cache import CacheGeometry
    from repro.policies.lru import LRUPolicy
    from repro.sim.parallel import run_matrix
    from repro.traces.trace import Trace

    def kill_self():
        os.kill(os.getpid(), signal.SIGKILL)

    run_matrix(
        Trace(np.arange(3000) % 500, name="doomed"),
        {"first": LRUPolicy, "second": kill_self},
        CacheGeometry(num_sets=16, ways=4),
        max_workers=1,
        manifest_dir=sys.argv[1],
    )
    """
)


def test_killed_grid_leaves_in_flight_cell_open(tmp_path):
    """Durability: a cell's span is on disk from dispatch, so a sweep
    SIGKILLed while cell 2 runs still shows cell 1 finished and cell 2
    in flight."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_GRID, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    spans = {s["name"]: s for s in read_spans(tmp_path / SPANS_FILENAME)}
    assert spans["cell:first"]["attributes"]["status"] == "finished"
    assert spans["cell:second"]["duration_s"] is None
    assert spans["matrix"]["duration_s"] is None
    assert "cell:second  [open]" in render_span_tree(list(spans.values()))


def _mixes() -> dict[str, list[Trace]]:
    def thread_trace(seed: int, n: int) -> Trace:
        rng = np.random.default_rng(seed)
        hot = rng.integers(0, 100, size=n)
        cold = rng.integers(100, 4000, size=n)
        addresses = np.where(rng.random(n) < 0.5, hot, cold)
        return Trace(addresses, name=f"t{seed}")

    return {
        "mix0": [thread_trace(1, 900), thread_trace(2, 700)],
        "mix1": [thread_trace(3, 800), thread_trace(4, 800)],
    }


def _mix_summaries(results):
    return {
        key: (
            [(t.accesses, t.hits, t.misses, t.bypasses) for t in r.threads],
            r.weighted,
            r.throughput,
            r.hmean,
        )
        for key, r in results.items()
    }


def test_run_mix_matrix_parallel_matches_serial():
    mixes = _mixes()
    factories = {
        "lru": LRUPolicy,
        "ta-drrip": partial(TADRRIPPolicy, num_threads=2),
    }
    serial = run_mix_matrix(mixes, factories, GEOMETRY, max_workers=1)
    parallel = run_mix_matrix(mixes, factories, GEOMETRY, max_workers=2)
    assert list(parallel) == [
        (mix, policy) for mix in mixes for policy in factories
    ]
    assert _mix_summaries(parallel) == _mix_summaries(serial)


def test_run_mix_matrix_precomputed_singles():
    mixes = _mixes()
    singles = {"mix0": [1.0, 1.0], "mix1": [1.0, 1.0]}
    results = run_mix_matrix(
        mixes, {"lru": LRUPolicy}, GEOMETRY, singles=singles, max_workers=2
    )
    assert all(r.extra["singles"] == [1.0, 1.0] for r in results.values())
    with pytest.raises(ValueError, match="singles"):
        run_mix_matrix(
            mixes, {"lru": LRUPolicy}, GEOMETRY, singles={"mix0": [1.0, 1.0]}
        )


def test_run_mix_matrix_unpicklable_falls_back_to_serial():
    mixes = _mixes()
    lambdas = {"lru": lambda: LRUPolicy()}  # lambdas cannot cross processes
    with pytest.warns(RuntimeWarning, match="running serially"):
        results = run_mix_matrix(mixes, lambdas, GEOMETRY, max_workers=2)
    reference = run_mix_matrix(mixes, {"lru": LRUPolicy}, GEOMETRY, max_workers=1)
    assert _mix_summaries(results) == _mix_summaries(reference)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_run_mix_matrix_worker_error_propagates(max_workers):
    factories = {"boom": ExplodingPolicy}
    with pytest.raises(RuntimeError, match="policy exploded"):
        run_mix_matrix(_mixes(), factories, GEOMETRY, max_workers=max_workers)


class TestWorkerTelemetry:
    """Metrics recorded inside pool workers must reach the parent registry.

    Before the per-task snapshot plumbing, pooled sweeps silently lost
    every counter incremented in a worker process: the kernels recorded
    into the *worker's* global sink and the parent's stayed empty. Each
    task now ships its :data:`repro.obs.metrics.METRICS` snapshot back
    with the result and the parent merges it (and embeds the merged
    totals in the sweep manifest).
    """

    @pytest.fixture(autouse=True)
    def _clean_metrics(self):
        from repro.obs.metrics import METRICS

        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        yield
        METRICS.enabled = was_enabled
        METRICS.reset()

    def test_pooled_matrix_counters_reach_parent(self, trace):
        from repro.obs.metrics import METRICS

        factories = {"lru": LRUPolicy, "dip": DIPPolicy}
        run_matrix(trace, factories, GEOMETRY, max_workers=2)
        # Under the default vector engine, LRU runs the columnar kernel
        # and DIP falls back to the fast path; both tiers count, once.
        accesses = METRICS.counters.get(
            "fastpath.accesses", 0
        ) + METRICS.counters.get("columnar.accesses", 0)
        assert accesses == len(trace) * len(factories)
        histograms = METRICS.histograms
        assert histograms["columnar.run_trace_s"][0] == 1
        assert histograms["fastpath.run_trace_s"][0] == 1

    def test_serial_and_pooled_totals_agree(self, trace):
        from repro.obs.metrics import METRICS

        factories = {"lru": LRUPolicy, "drrip": DRRIPPolicy}
        run_matrix(trace, factories, GEOMETRY, max_workers=1)
        serial = dict(METRICS.counters)
        METRICS.reset()
        run_matrix(trace, factories, GEOMETRY, max_workers=2)
        assert dict(METRICS.counters) == serial

    def test_sweep_manifest_embeds_merged_telemetry(self, trace, tmp_path):
        from repro.obs.manifest import load_manifests

        run_matrix(
            trace, {"lru": LRUPolicy}, GEOMETRY, max_workers=2,
            manifest_dir=tmp_path,
        )
        sweep = [m for m in load_manifests(tmp_path) if m.kind == "matrix"]
        assert len(sweep) == 1
        counters = sweep[0].metrics.get("counters", {})
        assert counters.get("columnar.accesses", 0) >= len(trace)
