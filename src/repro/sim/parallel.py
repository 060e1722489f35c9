"""The grid runner: :func:`run_cells` over a process pool, with resume.

A grid is a list of *cells* run against shared *inputs*. Three cell
kinds exist: :class:`LLCCell`, one single-core ``run_llc`` of a policy
over the grid's trace (the Fig. 4 static-PD sweep);
:class:`SharedLLCCell`, one shared-LLC ``run_shared_llc`` of a policy
over one mix of the grid's per-thread traces (the Fig. 12 mixes); and
:class:`repro.explore.explorer.ExploreCell`, one analytical
``explore`` pass over the grid's trace (a daemon ``predict`` job). Each
cell carries its key, a ``run(inputs)``, its resume identity (manifest
``kind``, label ``str(key)``, ``workload``, ``engine``, ``config``,
``window_size`` and the trace fingerprint) and the rebuild of its result
from a manifest. :func:`run_cells` runs any list of them;
:func:`run_matrix` and :func:`run_mix_matrix` build a cell list with
:func:`llc_cells` / :func:`mix_cells` and call it once, and the sweep
daemon calls it with ``resume=True`` for every job kind.

The grid's inputs — the :class:`Trace`, the
:class:`repro.traces.stream.TraceStream`, or every mix's per-thread
traces — reach each worker once, through the pool's initializer
(:func:`_install_grid`). Under the ``fork`` start method (the default
where available) workers inherit them copy-on-write at no cost; under
any other start method they are pickled once per worker. Tasks carry
only the cell, so a 32-point PD sweep neither writes nor re-ships the
trace. A stream source (an external trace file opened via
:func:`repro.traces.formats.open_trace`) stays a chunked stream inside
every worker, so the parallel path never materializes a huge trace
either.

Everything that crosses into a worker must pickle. Cells always do when
their policy factories do — module-level callables, classes, or
``functools.partial`` of those; lambdas and closures trigger the serial
fallback. The inputs must pickle only when the pool does not fork; a
stream from ``open_trace`` holds a closure, so off fork a
stream-sourced grid runs serially.

Worker count resolution (``resolve_max_workers``): an explicit
``max_workers`` argument wins, then the ``REPRO_MAX_WORKERS`` environment
variable, then ``os.cpu_count()``. A resolved count of 1 — or any failure
to stand up the pool (unpicklable cells or inputs, sandboxed
environments without process support) — falls back to running serially
in-process, so the runner is always safe to call. The fallback is *loud*:
it raises a :class:`RuntimeWarning` attributed to the entry point's
caller, emits a ``warning`` progress event, and the sweep manifest
records ``workers_requested`` vs ``workers_effective`` so a degraded
sweep is diagnosable from its manifest alone.

Observability: ``on_event`` receives started/finished/failed/skipped
:class:`repro.obs.progress.ProgressEvent` records, emitted from the
*parent* process as tasks dispatch and complete. With a manifest
directory, every cell writes its own provenance manifest (inside the
worker, via the driver's ``manifest_dir=`` parameter), a sweep-level
manifest records per-task status — including failed tasks with policy,
workload and a traceback summary — and ``spans.jsonl`` is the grid's
run log, rendered by ``repro obs trace``: one ``cell:<key>`` span per
cell under the grid's root span, opened at dispatch (so a killed sweep
still shows its in-flight cells) and closed at completion with its
status, queue wait, runtime and, for a failed cell, the error; one
zero-duration ``skipped`` span per resumed cell; one
``warning:serial-fallback`` span per degradation. A partially failed
grid is therefore diagnosable from the manifest directory alone. Each
cell's wall time splits into queue wait and in-worker runtime
(histograms in the process-wide :data:`repro.obs.metrics.METRICS`
registry, served live by the sweep daemon's ``stats`` verb); the sweep
manifest embeds the metrics snapshot when the registry is enabled.

Resume (``run_cells(..., resume=True)``): the per-cell manifests in the
manifest directory are the source of truth for which cells already ran.
A cell whose identity matches a manifest
(:func:`manifest_satisfies_cell`, the one rule) is skipped — announced by a
``skipped`` progress event and span — and its result rebuilt from the
manifest, so an interrupted sweep restarts where it died and the merged
output is bit-identical to an uninterrupted run for everything a
manifest persists (counters, derived metrics, the windowed time-series
payload). The remaining cells, whichever they are, run as one grid.
Trust rules: a manifest exists only if its run completed (manifests are
written atomically after a successful simulation); a namespace holding
unparseable manifest files is refused with :class:`CorruptManifestError`
unless ``force=True``; a job that asks for a windowed time-series is not
satisfied by a manifest without that exact window.

Failure semantics: only *infrastructure* failures fall back to the serial
path — pool setup errors and a broken pool
(``BrokenProcessPool``: a worker process died). An exception raised by
the simulation itself inside a worker (a policy bug surfacing as
``RuntimeError``, ``ValueError``, ...) propagates to the caller; it is
never silently masked by a serial re-run. The runner lets the remaining
tasks of the grid complete (their results still land in per-cell
manifests), records every failure, writes the sweep manifest, then
re-raises the first one.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel
from repro.obs.manifest import (
    FingerprintAccumulator,
    Manifest,
    ManifestLoadReport,
    TaskFailure,
    fingerprint_source,
    scan_manifests,
    trace_fingerprint,
)
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.spans import SpanTracer
from repro.sim.multi_core import MultiCoreResult, ThreadOutcome, run_shared_llc
from repro.sim.single_core import SingleCoreResult, run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces

#: Environment variable overriding the default worker count.
ENV_MAX_WORKERS = "REPRO_MAX_WORKERS"

#: Inside a pool worker, the running grid's inputs as published by
#: :func:`_install_grid`: the trace (or stream) of an :class:`LLCCell`
#: grid, or the ``{mix_key: thread traces}`` of a :class:`SharedLLCCell`
#: one.
_GRID_INPUTS = None


def _install_grid(inputs) -> None:
    """Pool initializer: publish the grid's inputs to this worker."""
    global _GRID_INPUTS
    _GRID_INPUTS = inputs


def resolve_max_workers(max_workers: int | None = None) -> int:
    """Effective worker count: argument, else $REPRO_MAX_WORKERS, else
    ``os.cpu_count()``; always at least 1 (1 means run serially)."""
    if max_workers is None:
        env = os.environ.get(ENV_MAX_WORKERS, "").strip()
        if env:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_MAX_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            max_workers = os.cpu_count() or 1
    return max(1, int(max_workers))


def _pool_context():
    """Fork where available (cheap, inherits the interpreter and the
    grid's inputs); the default start method elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _unpicklable(cells: list, inputs) -> str | None:
    """Why a grid cannot cross into pool workers, or None if it can.

    Cells (and with them the policy factories) travel pickled with every
    task. The inputs travel pickled (once per worker) only when the pool
    does not fork — a forked worker inherits them — so only then must
    they pickle.
    """
    try:
        pickle.dumps(cells)
    except Exception as exc:
        return f"policy factories are not picklable ({type(exc).__name__}: {exc})"
    if _pool_context().get_start_method() != "fork":
        try:
            pickle.dumps(inputs)
        except Exception as exc:
            return f"grid inputs are not picklable ({type(exc).__name__}: {exc})"
    return None


def _task_obs_begin() -> float:
    """Start a clean per-task observability scope inside a pool worker.

    Workers are reused across tasks (and fork inherits the parent's
    accumulated state), so without a reset each snapshot would bleed the
    previous tasks' counters into the next result. Returns the task's
    ``perf_counter`` start so :func:`_task_obs_finish` can measure the
    in-worker runtime (the parent subtracts it from dispatch-to-completion
    wall time to estimate pool queue wait).
    """
    if METRICS.enabled:
        METRICS.reset()
    return perf_counter()


def _task_obs_finish(start: float) -> dict:
    """The worker's observability payload for the task just run.

    ``{"metrics": snapshot-or-None, "runtime_s": in-worker seconds,
    "fingerprint": digest-or-None}`` — shipped back with the result so
    the parent merges the worker's metrics losslessly and can split wall
    time into queue wait vs runtime. The fingerprint is this worker's
    digest of a stream source once one of its passes completed (see
    :class:`_FingerprintingStream`); the parent never iterates a pooled
    stream itself, so it adopts the workers' digest for the sweep
    manifest.
    """
    return {
        "metrics": METRICS.snapshot() if METRICS.enabled else None,
        "runtime_s": perf_counter() - start,
        "fingerprint": (
            _GRID_INPUTS.fingerprint
            if isinstance(_GRID_INPUTS, _FingerprintingStream)
            else None
        ),
    }


def _pool_task(cell):
    """Worker entry: ``cell.run`` against the inputs :func:`_install_grid`
    published, in a clean observability scope; returns ``(result,
    obs_payload)``."""
    start = _task_obs_begin()
    result = cell.run(_GRID_INPUTS)
    return result, _task_obs_finish(start)


class _FingerprintingStream(TraceStream):
    """A pass-through :class:`TraceStream` that fingerprints its first
    complete pass.

    Single-core grids wrap stream sources in one of these so the sweep
    manifest and the resume scan get a real, chunk-size-invariant trace
    fingerprint — the grid already iterates the stream at least once per
    cell, so the digest comes for free instead of needing a second scan
    of the file. On the pooled path each worker iterates its own copy;
    the digest travels back in the task's observability payload and the
    parent takes it via :meth:`adopt`. Only a pass that ran to
    exhaustion finalizes the digest; an aborted iteration (a failing
    cell) leaves the accumulator to retry on the next pass.
    """

    def __init__(self, inner: TraceStream) -> None:
        self._inner = inner
        self._digest: str | None = None
        super().__init__(
            self._fingerprinting_chunks,
            name=inner.name,
            instructions_per_access=inner.instructions_per_access,
            length=inner.length,
            source=inner.source,
            format=inner.format,
        )

    def _fingerprinting_chunks(self):
        """Yield the inner chunks, accumulating the digest en route."""
        if self._digest is not None:
            yield from self._inner.chunks()
            return
        accumulator = FingerprintAccumulator()
        for chunk in self._inner.chunks():
            accumulator.update(chunk)
            yield chunk
        self._digest = accumulator.digest(self.name, self.instructions_per_access)

    @property
    def fingerprint(self) -> str | None:
        """The digest of one full pass, or None if no pass completed."""
        return self._digest

    def adopt(self, digest: str) -> None:
        """Take the digest a pool worker's copy of this stream computed,
        unless this copy already has one."""
        if self._digest is None:
            self._digest = digest


def _grid_fingerprint(inputs) -> str | None:
    """The sweep manifest's trace fingerprint: the digest of a one-trace
    grid's trace (a stream's from its first full pass), or None for a
    mix grid, whose cell manifests carry one fingerprint per mix."""
    if isinstance(inputs, _FingerprintingStream):
        return inputs.fingerprint
    if isinstance(inputs, Trace):
        return trace_fingerprint(inputs)
    return None


# -- resume identity and rebuild -------------------------------------------


class CorruptManifestError(RuntimeError):
    """Refusal to resume over a namespace with unparseable manifests.

    ``skipped`` carries the offending
    :class:`repro.obs.manifest.SkippedManifest` records; pass
    ``force=True`` (after inspecting or deleting the files) to resume
    anyway, treating the corrupt files as absent.
    """

    def __init__(self, skipped) -> None:
        paths = ", ".join(s.path for s in skipped)
        super().__init__(
            f"refusing to resume over {len(skipped)} corrupt manifest "
            f"file(s) (pass force=True to override): {paths}"
        )
        self.skipped = list(skipped)


@dataclass
class ResumePlan:
    """Outcome of matching a grid against existing manifests.

    ``skipped`` maps already-complete cell keys to results reconstructed
    from their manifests; ``to_run`` lists the keys the grid simulated,
    in original grid order.
    """

    skipped: dict = field(default_factory=dict)
    to_run: list = field(default_factory=list)

    @property
    def total(self) -> int:
        """Cells in the full grid."""
        return len(self.skipped) + len(self.to_run)


def check_resume_substrate(
    manifest_dir: str | os.PathLike, force: bool = False
) -> ManifestLoadReport:
    """Scan a namespace, refusing corrupt state unless forced."""
    report = scan_manifests(manifest_dir)
    if report.skipped and not force:
        raise CorruptManifestError(report.skipped)
    return report


def manifest_satisfies_cell(
    manifest: Manifest, cell, fingerprint: str | None, match_git_sha: bool = False
) -> bool:
    """The cell-identity match: does this manifest prove the cell ran?

    The one resume rule, for every cell kind. The manifest's kind,
    label, workload and engine must equal the cell's ``kind``,
    ``str(key)``, ``workload`` and ``engine``; its trace fingerprint
    must equal ``fingerprint``, and a None fingerprint never matches (an
    unidentifiable trace must re-run); its ``config`` must hold every
    entry of ``cell.config`` (a manifest without a config dict holds
    none). A cell with a ``window_size`` is met only by a manifest
    carrying a time-series of exactly that window (the resumed merge
    would otherwise lose windows). ``match_git_sha=True`` adds the
    code-state dimension: the manifest's recorded SHA must equal the
    current HEAD.
    """
    if (manifest.kind, manifest.label, manifest.workload, manifest.engine) != (
        cell.kind, str(cell.key), cell.workload, cell.engine
    ):
        return False
    if fingerprint is None or manifest.trace_fingerprint != fingerprint:
        return False
    config = manifest.config if isinstance(manifest.config, dict) else {}
    if any(key not in config or config[key] != value
           for key, value in cell.config.items()):
        return False
    if cell.window_size is not None:
        timeseries = manifest.timeseries if isinstance(manifest.timeseries, dict) else {}
        if timeseries.get("window_size") != cell.window_size:
            return False
    return not match_git_sha or manifest.git_sha == _git_sha()


def single_core_result_from_manifest(manifest: Manifest) -> SingleCoreResult:
    """Rebuild a :class:`SingleCoreResult` from an ``llc`` cell manifest.

    Counters come back bit-identical (they are JSON integers) and
    derived floats (IPC) round-trip exactly (JSON floats preserve the
    full ``repr``). ``extra`` carries only what manifests persist: the
    windowed time-series payload, when one was recorded.
    """
    stats = manifest.stats
    extra: dict = {}
    if manifest.timeseries:
        extra["timeseries"] = manifest.timeseries
    return SingleCoreResult(
        name=manifest.workload,
        accesses=stats["accesses"],
        hits=stats["hits"],
        misses=stats["misses"],
        bypasses=stats["bypasses"],
        instructions=stats["instructions"],
        ipc=manifest.metrics["ipc"],
        evictions=stats.get("evictions", 0),
        extra=extra,
    )


def multi_core_result_from_manifest(manifest: Manifest) -> MultiCoreResult:
    """Rebuild a :class:`MultiCoreResult` from a ``shared_llc`` manifest."""
    threads = [ThreadOutcome(**t) for t in manifest.stats["threads"]]
    extra: dict = {"singles": list(manifest.stats.get("singles", []))}
    if manifest.timeseries:
        extra["timeseries"] = manifest.timeseries
    return MultiCoreResult(
        name=manifest.workload,
        threads=threads,
        weighted=manifest.metrics["weighted"],
        throughput=manifest.metrics["throughput"],
        hmean=manifest.metrics["hmean"],
        extra=extra,
    )


# -- cell kinds -------------------------------------------------------------


def _geometry_config(geometry: CacheGeometry) -> dict:
    """A simulation cell's ``config``: the geometry its manifest records."""
    return {
        "num_sets": geometry.num_sets,
        "ways": geometry.ways,
        "line_size": geometry.line_size,
    }


@dataclass(frozen=True)
class LLCCell:
    """One single-core grid cell: ``run_llc`` of ``factory()`` over the
    grid's trace (an in-memory :class:`Trace` or a stream).

    ``workload`` is the trace's name and ``accesses`` its length when
    known before the run (0 for a stream of unknown length).
    """

    key: object
    workload: str
    factory: Callable[[], object]
    geometry: CacheGeometry
    timing: TimingModel | None = None
    engine: str = "vector"
    manifest_dir: str | None = None
    window_size: int | None = None
    accesses: int = 0

    #: Manifest kind the cell writes, and matches on resume.
    kind = "llc"
    from_manifest = staticmethod(single_core_result_from_manifest)

    @property
    def policy(self) -> str:
        """The policy key, as recorded in a :class:`TaskFailure`."""
        return str(self.key)

    @property
    def config(self) -> dict:
        """The geometry entries a satisfying manifest's config holds."""
        return _geometry_config(self.geometry)

    def fingerprint(self, trace) -> str | None:
        """The trace fingerprint the cell's manifest records."""
        return _grid_fingerprint(trace) or fingerprint_source(trace)

    def credited(self, result: SingleCoreResult | None) -> int:
        """Accesses the sweep manifest credits the cell with: what its
        run simulated, or ``accesses`` if it failed."""
        return self.accesses if result is None else result.accesses

    def run(self, trace):
        """Simulate the cell over ``trace``."""
        return run_llc(
            trace,
            self.factory(),
            self.geometry,
            timing=self.timing,
            engine=self.engine,
            manifest_dir=self.manifest_dir,
            run_label=str(self.key),
            window_size=self.window_size,
        )


@dataclass(frozen=True)
class SharedLLCCell:
    """One shared-LLC grid cell keyed ``(mix_key, policy_key)``:
    ``run_shared_llc`` of ``factory()`` over the grid's ``mixes[mix_key]``.

    ``singles`` are the mix's precomputed stand-alone LRU IPCs (None
    recomputes them); ``accesses`` is the mix's total thread length.
    """

    key: tuple[str, str]
    factory: Callable[[], object]
    geometry: CacheGeometry
    timing: TimingModel | None = None
    singles: list[float] | None = None
    engine: str = "fast"
    manifest_dir: str | None = None
    accesses: int = 0

    #: Manifest kind the cell writes, and matches on resume.
    kind = "shared_llc"
    window_size = None
    from_manifest = staticmethod(multi_core_result_from_manifest)

    @property
    def workload(self) -> str:
        """The mix key, the ``workload`` of the cell's manifest."""
        return self.key[0]

    @property
    def policy(self) -> str:
        """The policy key, as recorded in a :class:`TaskFailure`."""
        return str(self.key[1])

    @property
    def config(self) -> dict:
        """The geometry entries a satisfying manifest's config holds."""
        return _geometry_config(self.geometry)

    def credited(self, result: MultiCoreResult | None) -> int:
        """Accesses the sweep manifest credits the cell with: the mix's
        total thread length, known before the run."""
        return self.accesses

    def fingerprint(self, mixes: dict) -> str:
        """Fingerprint of the mix's round-robin interleaved trace — what
        ``run_shared_llc`` records in the cell's manifest."""
        return trace_fingerprint(interleave_traces(mixes[self.workload])[0])

    def run(self, mixes: dict) -> MultiCoreResult:
        """Simulate the mix under a fresh policy."""
        return run_shared_llc(
            mixes[self.workload],
            self.factory(),
            self.geometry,
            timing=self.timing,
            singles=self.singles,
            name=self.workload,
            engine=self.engine,
            manifest_dir=self.manifest_dir,
            run_label=str(self.key),
        )


# -- dispatch ---------------------------------------------------------------


def _warn_serial_fallback(
    observer: "_GridObserver", label: str, requested: int, reason: str
) -> None:
    """Surface a parallel-to-serial degradation instead of hiding it.

    A user who asked for N workers and got 1 deserves a signal: emit a
    :class:`RuntimeWarning`, a ``warning`` progress event and a
    ``warning:serial-fallback`` span. The sweep manifest additionally
    records ``workers_requested`` vs ``workers_effective`` so the
    degradation is diagnosable post hoc.
    """
    message = (
        f"{label}: requested {requested} workers but running serially — "
        f"{reason}"
    )
    # Attribute the warning to the caller of the entry point (this
    # function <- _run_grid <- run_cells <- the entry point <- caller).
    warnings.warn(message, RuntimeWarning, stacklevel=5)
    observer.warning("serial-fallback", message)


class _GridObserver:
    """Per-grid progress/run-log/failure/latency bookkeeping.

    Wraps a :class:`ProgressReporter` over the whole grid, resumed cells
    included, and accumulates per-task status plus :class:`TaskFailure`
    records for the sweep-level manifest.

    It also writes the grid's run log through ``tracer``, as children of
    whatever span is open (the grid's root span, or ``resume-scan`` for
    skipped cells): each cell's ``cell:<key>`` span is opened at
    dispatch and closed at completion. Dispatch times are remembered so
    each completion can be split into queue wait (wall time minus
    in-worker runtime) and runtime — recorded on the span and into the
    ``grid.cell_queue_wait_s`` / ``grid.cell_runtime_s`` histograms of
    the process-wide :data:`repro.obs.metrics.METRICS` registry.
    """

    def __init__(
        self,
        total: int,
        on_event: Callable[[ProgressEvent], None] | None,
        label: str,
        tracer: SpanTracer,
    ) -> None:
        self.statuses: dict[str, str] = {}
        self.failures: list[TaskFailure] = []
        self.reporter = ProgressReporter(total, on_event=on_event, label=label)
        self._dispatched: dict[str, tuple] = {}
        self.tracer = tracer

    def started(self, cell) -> None:
        """Record and broadcast task dispatch; open the cell's span."""
        key = str(cell.key)
        self.statuses[key] = "started"
        dispatched = perf_counter()
        self._dispatched[key] = (
            dispatched, self.tracer.start(f"cell:{key}", dispatched)
        )
        self.reporter.started(cell.key)

    def _observe_cell(
        self, key, status: str, runtime_s: float | None, error: str | None = None
    ) -> None:
        """Record one completed cell's latency split and close its span.

        Wall time runs dispatch to completion; ``runtime_s`` is the
        in-worker (or in-process) execution time when known, and their
        difference is the time the task spent queued behind the pool.
        """
        dispatched, span = self._dispatched.pop(str(key), (None, None))
        if dispatched is None:
            return
        wall = perf_counter() - dispatched
        runtime = wall if runtime_s is None else min(runtime_s, wall)
        queue_wait = max(0.0, wall - runtime)
        if METRICS.enabled:
            METRICS.observe("grid.cell_runtime_s", runtime)
            METRICS.observe("grid.cell_queue_wait_s", queue_wait)
            METRICS.inc(f"grid.cells_{status}")
        attributes = {
            "status": status,
            "runtime_s": runtime,
            "queue_wait_s": queue_wait,
        }
        if error is not None:
            attributes["error"] = error
        self.tracer.finish(span, wall, attributes)

    def finished(self, cell, runtime_s: float | None = None) -> None:
        """Record and broadcast successful completion."""
        self.statuses[str(cell.key)] = "finished"
        self._observe_cell(cell.key, "finished", runtime_s)
        self.reporter.finished(cell.key)

    def failed(self, cell, exc: BaseException) -> None:
        """Record and broadcast a task failure (kept for the manifest);
        the cell's span carries the progress event's error text."""
        self.statuses[str(cell.key)] = "failed"
        self.failures.append(
            TaskFailure.from_exception(
                cell.key, exc, policy=cell.policy, workload=cell.workload
            )
        )
        event = self.reporter.failed(cell.key, exc)
        self._observe_cell(cell.key, "failed", None, error=event.error)

    def skipped(self, key) -> None:
        """Broadcast a resumed cell as a zero-duration ``skipped`` span."""
        self.tracer.emit(
            f"cell:{key}", perf_counter(), 0.0, {"status": "skipped"}
        )
        self.reporter.skipped(key)

    def warning(self, key, message: str) -> None:
        """Broadcast a grid-level warning (no per-task status change) as
        a zero-duration ``warning:<key>`` span."""
        self.tracer.emit(
            f"warning:{key}", perf_counter(), 0.0, {"message": message}
        )
        self.reporter.warning(key, message)

    def task_records(self) -> list[dict]:
        """JSON-ready ``{key, status}`` rows for the sweep manifest."""
        return [
            {"key": key, "status": status}
            for key, status in self.statuses.items()
        ]

    def close(self) -> None:
        """Close the span log."""
        self.tracer.close()


def _run_serial_tasks(cells: list, inputs, observer: _GridObserver):
    """Run each cell against ``inputs`` in-process.

    Returns ``(results, failures)`` where failures are ``(cell, exc)``
    pairs; the grid keeps going past a failed task so every cell's
    outcome is known (matching the pooled path).
    """
    results: dict = {}
    failures: list[tuple] = []
    for cell in cells:
        observer.started(cell)
        start = perf_counter()
        try:
            results[cell.key] = cell.run(inputs)
        except Exception as exc:  # noqa: BLE001 — recorded, then re-raised
            failures.append((cell, exc))
            observer.failed(cell, exc)
        else:
            observer.finished(cell, runtime_s=perf_counter() - start)
    return results, failures


def _run_pooled(cells: list, inputs, workers: int, observer: _GridObserver):
    """Fan the cells over a process pool.

    The pool's initializer publishes ``inputs`` to every worker
    (:func:`_install_grid`) and each task runs :func:`_pool_task`.
    Returns ``(results, failures)``, or None on an infrastructure
    failure (pool setup, a broken pool) so the caller can re-run the
    grid serially; exceptions raised *by a task* are collected as
    failures for the caller to record and re-raise. Each task's
    observability payload (:func:`_task_obs_finish`) is folded in as its
    future completes: a non-None metrics snapshot merges into this
    process's :data:`METRICS` registry, so counters recorded inside
    workers are not lost (the serial path records into it directly); the
    runtime feeds the observer's queue-wait/runtime split; and a stream
    digest is adopted by the parent's :class:`_FingerprintingStream`.
    """
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_install_grid,
            initargs=(inputs,),
        )
    except (OSError, RuntimeError, PermissionError):
        # No usable process pool (restricted sandbox, missing /dev/shm,
        # exhausted pids, ...): run in-process.
        return None
    results: dict = {}
    failures: list[tuple] = []
    with pool:
        future_cells = {}
        for cell in cells:
            observer.started(cell)
            future_cells[pool.submit(_pool_task, cell)] = cell
        try:
            for future in as_completed(future_cells):
                cell = future_cells[future]
                try:
                    result, obs_payload = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # noqa: BLE001 — see docstring
                    failures.append((cell, exc))
                    observer.failed(cell, exc)
                else:
                    results[cell.key] = result
                    if obs_payload["metrics"] is not None:
                        METRICS.merge_snapshot(obs_payload["metrics"])
                    if obs_payload["fingerprint"] is not None:
                        inputs.adopt(obs_payload["fingerprint"])
                    observer.finished(cell, runtime_s=obs_payload["runtime_s"])
        except BrokenProcessPool:
            # A worker *process* died (OOM-kill, sandbox teardown) —
            # infrastructure, not a simulation error.
            return None
    return results, failures


def _run_grid(
    label: str, cells: list, inputs, workers: int, observer: _GridObserver
):
    """Run the cells over a process pool when one can help, else serially.

    The serial path runs when one worker or one cell is requested, and
    — loudly, see :func:`_warn_serial_fallback` — when the cells or
    inputs cannot reach the workers or the pool fails as infrastructure.
    Returns ``(results, failures, workers_effective)``.
    """
    if workers > 1 and len(cells) > 1:
        reason = _unpicklable(cells, inputs)
        if reason is None:
            effective = min(workers, len(cells))
            pooled = _run_pooled(cells, inputs, effective, observer)
            if pooled is not None:
                return (*pooled, effective)
            reason = "process pool unavailable (infrastructure failure)"
        _warn_serial_fallback(observer, label, workers, reason)
    return (*_run_serial_tasks(cells, inputs, observer), 1)


# -- the runner -------------------------------------------------------------


def _resume_scan(
    cells: list, inputs, manifest_dir: Path, force: bool, match_git_sha: bool
) -> dict:
    """``{key: result rebuilt from its manifest}`` for every cell that a
    manifest in ``manifest_dir`` satisfies (:func:`manifest_satisfies_cell`).

    Each workload is fingerprinted once, and only when the namespace
    holds a manifest of its cell's kind; the newest matching manifest
    wins. Raises :class:`CorruptManifestError` over unparseable files
    unless ``force``.
    """
    manifests = check_resume_substrate(manifest_dir, force=force).manifests
    kinds = {m.kind for m in manifests}
    fingerprints: dict = {}
    skipped: dict = {}
    for cell in cells:
        if cell.kind not in kinds:
            continue
        if cell.workload not in fingerprints:
            fingerprints[cell.workload] = cell.fingerprint(inputs)
        match = next(
            (
                m
                for m in reversed(manifests)
                if manifest_satisfies_cell(
                    m, cell, fingerprints[cell.workload], match_git_sha
                )
            ),
            None,
        )
        if match is not None:
            skipped[cell.key] = cell.from_manifest(match)
    if skipped:
        METRICS.inc("scheduler.cells_skipped", len(skipped))
    return skipped


def _sweep_manifest(
    kind: str,
    ran: list,
    fresh: dict,
    inputs,
    wall: float,
    observer: _GridObserver,
    config: dict,
) -> Manifest:
    """The sweep-level manifest of the cells that ran: their workloads,
    policies and credited accesses (over their ``fresh`` results),
    per-task status and failures, the first cell's ``config`` plus
    ``config``, and the metrics snapshot (when enabled)."""
    accesses = sum(cell.credited(fresh.get(cell.key)) for cell in ran)
    return Manifest(
        kind=kind,
        workload=",".join(dict.fromkeys(cell.workload for cell in ran)),
        policy=",".join(dict.fromkeys(cell.policy for cell in ran)),
        engine=ran[0].engine,
        config={**ran[0].config, **config},
        trace_fingerprint=_grid_fingerprint(inputs),
        git_sha=_git_sha(),
        wall_time_s=wall,
        accesses=accesses,
        accesses_per_sec=accesses / wall if wall > 0 else 0.0,
        tasks=observer.task_records(),
        failures=list(observer.failures),
        metrics=METRICS.snapshot() if METRICS.enabled else {},
    )


def run_cells(
    kind: str,
    cells: list,
    inputs,
    config: dict | None = None,
    max_workers: int | None = None,
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
    resume: bool = False,
    force: bool = False,
    match_git_sha: bool = False,
) -> tuple[dict, ResumePlan]:
    """Run a grid of cells against shared ``inputs``: the one grid runner.

    In order: with ``resume``, scan ``manifest_dir`` and skip every cell
    a manifest satisfies (one ``skipped`` event each); run the remaining
    cells as one grid — pooled when possible, serially otherwise; with a
    manifest directory, write one sweep manifest of ``kind`` describing
    the cells that ran; finally re-raise the first cell failure.

    Args:
        kind: the sweep manifest's kind (``"matrix"``, ``"mix_matrix"``,
            ``"predict"``); also names the grid's root span and progress
            label.
        cells: :class:`LLCCell` / :class:`SharedLLCCell` /
            :class:`repro.explore.explorer.ExploreCell` records with
            distinct keys.
        inputs: what every cell's ``run`` receives — the trace (or
            stream) of an :class:`LLCCell` or ``ExploreCell`` grid, the
            ``{mix_key: thread traces}`` of a :class:`SharedLLCCell` one.
        config: extra entries for the sweep manifest's ``config``.
        max_workers: worker processes; None resolves via
            :func:`resolve_max_workers`, 0/1 forces serial.
        manifest_dir: where cells write their manifests, spans append
            to ``spans.jsonl``, and the sweep manifest lands. Required
            with ``resume``.
        on_event: callback receiving every :class:`ProgressEvent`; the
            counts cover the whole grid, resumed cells included.
        resume: skip cells already satisfied by a manifest. The spans
            then nest as ``job`` → ``resume-scan``, then the grid span.
        force: resume over unparseable manifest files instead of raising
            :class:`CorruptManifestError`.
        match_git_sha: a manifest satisfies a cell only if written at the
            current git SHA (:func:`manifest_satisfies_cell`).

    Returns:
        ``(results, plan)``: ``{cell.key: result}`` in cell order, and a
        :class:`ResumePlan` (every key in ``to_run`` without ``resume``).
    """
    if resume and manifest_dir is None:
        raise ValueError("resume requires a manifest_dir")
    workers = resolve_max_workers(max_workers)
    manifest_out = Path(manifest_dir) if manifest_dir is not None else None
    tracer = SpanTracer.for_dir(manifest_out)
    observer = _GridObserver(len(cells), on_event, kind, tracer)
    plan = ResumePlan()
    try:
        with tracer.span("job", kind=kind) if resume else nullcontext():
            if resume:
                with tracer.span("resume-scan") as scan:
                    plan.skipped = _resume_scan(
                        cells, inputs, manifest_out, force, match_git_sha
                    )
                    for key in plan.skipped:
                        observer.skipped(key)
                    scan.set("skipped", len(plan.skipped))
            ran = [cell for cell in cells if cell.key not in plan.skipped]
            plan.to_run = [cell.key for cell in ran]
            results = dict(plan.skipped)
            if ran:
                start = perf_counter()
                with tracer.span(kind, cells=len(ran)):
                    fresh, failures, effective = _run_grid(
                        kind, ran, inputs, workers, observer
                    )
                if manifest_out is not None:
                    _sweep_manifest(
                        kind, ran, fresh, inputs, perf_counter() - start,
                        observer,
                        {
                            "workers_requested": workers,
                            "workers_effective": effective,
                            **(config or {}),
                        },
                    ).save(manifest_out)
                if failures:
                    raise failures[0][1]
                results.update(fresh)
    finally:
        observer.close()
    return {cell.key: results[cell.key] for cell in cells}, plan


# -- entry points -----------------------------------------------------------


def llc_cells(
    trace: Trace | TraceStream,
    factories: dict,
    geometry: CacheGeometry,
    timing: TimingModel | None,
    engine: str,
    manifest_dir,
    window_size: int | None,
) -> tuple:
    """``(trace, cells)`` of a trace x policy-factory grid.

    A stream source comes back wrapped in a :class:`_FingerprintingStream`
    so the grid identifies the trace without a second scan.
    """
    if isinstance(trace, TraceStream):
        trace = _FingerprintingStream(trace)
        length = trace.length or 0
    else:
        length = len(trace)
    cells = [
        LLCCell(
            key,
            workload=trace.name,
            factory=factory,
            geometry=geometry,
            timing=timing,
            engine=engine,
            manifest_dir=None if manifest_dir is None else str(manifest_dir),
            window_size=window_size,
            accesses=length,
        )
        for key, factory in factories.items()
    ]
    return trace, cells


def mix_cells(
    mixes: dict[str, list[Trace]],
    factories: dict,
    geometry: CacheGeometry,
    timing: TimingModel | None,
    singles: dict[str, list[float]] | None,
    engine: str,
    manifest_dir,
) -> list[SharedLLCCell]:
    """The mixes-major ``(mix_key, policy_key)`` cells of a mix grid."""
    if singles is not None and set(singles) != set(mixes):
        raise ValueError("singles must provide baselines for exactly the mixes")
    return [
        SharedLLCCell(
            (mix_key, policy_key),
            factory=factory,
            geometry=geometry,
            timing=timing,
            singles=None if singles is None else singles[mix_key],
            engine=engine,
            manifest_dir=None if manifest_dir is None else str(manifest_dir),
            accesses=sum(len(trace) for trace in traces),
        )
        for mix_key, traces in mixes.items()
        for policy_key, factory in factories.items()
    ]


def run_matrix(
    trace: Trace | TraceStream,
    factories: dict,
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    max_workers: int | None = None,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
    window_size: int | None = None,
) -> dict:
    """Run a trace x policy-factory matrix, in parallel when possible.

    Args:
        trace: the access stream every task simulates — an in-memory
            :class:`Trace`, or a chunked :class:`TraceStream` (e.g. an
            external trace file): every worker iterates the stream
            chunked, so even the parallel path stays O(chunk) per
            process.
        factories: {key: zero-arg policy factory}; keys are preserved in
            the result dict, insertion order retained.
        geometry / timing / engine: forwarded to :func:`run_llc`.
        max_workers: worker processes; None resolves via
            :func:`resolve_max_workers`, 0/1 forces serial.
        manifest_dir: when set, each cell writes a per-run manifest, the
            cells' spans land in ``spans.jsonl``, and a sweep-level
            manifest (kind ``"matrix"``) records per-task status and any
            failures.
        on_event: optional callback receiving started/finished/failed
            :class:`ProgressEvent` records (emitted in this process).
        window_size: when set, record a windowed time-series of this
            window size for every cell (``result.extra["timeseries"]``).

    Returns:
        {key: SingleCoreResult} for every entry in ``factories``.

    Raises:
        Whatever the first failing simulation task raised (after the
        remaining tasks complete and the sweep manifest is written);
        only infrastructure failures fall back to the serial path.
    """
    trace, cells = llc_cells(
        trace, factories, geometry, timing, engine, manifest_dir, window_size
    )
    results, _ = run_cells(
        "matrix",
        cells,
        trace,
        max_workers=max_workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )
    return results


def run_mix_matrix(
    mixes: dict[str, list[Trace]],
    factories: dict[str, Callable[[], object]],
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    singles: dict[str, list[float]] | None = None,
    max_workers: int | None = None,
    engine: str = "fast",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
) -> dict[tuple[str, str], MultiCoreResult]:
    """Run a (mix x policy-factory) grid of shared-LLC runs in parallel.

    The multi-core counterpart of :func:`run_matrix`: each task is one
    :func:`repro.sim.multi_core.run_shared_llc` call. Every mix's
    per-thread traces reach each worker once, through the pool
    initializer, so an 80-mix x 4-policy Fig. 12 grid never ships a
    trace per task.

    Args:
        mixes: {mix_key: per-thread traces} (private address spaces, as
            fed to ``run_shared_llc``).
        factories: {policy_key: zero-arg factory for a fresh shared-LLC
            policy}; must be picklable for the parallel path.
        singles: optional {mix_key: stand-alone LRU IPCs}. When omitted
            every task recomputes its mix's baselines — pass precomputed
            values (``single_thread_baselines`` once per mix) to avoid
            the duplicate work.
        max_workers: worker processes; None resolves via
            :func:`resolve_max_workers`, 0/1 forces serial.
        manifest_dir / on_event: the :func:`run_matrix` observability
            contract; the sweep-level manifest kind is ``"mix_matrix"``.

    Returns:
        {(mix_key, policy_key): MultiCoreResult} for the full grid, in
        mixes-major insertion order.

    Raises:
        Whatever the first failing simulation task raised (after the
        remaining tasks complete and the sweep manifest is written);
        only infrastructure failures fall back to the serial path.
    """
    cells = mix_cells(
        mixes, factories, geometry, timing, singles, engine, manifest_dir
    )
    results, _ = run_cells(
        "mix_matrix",
        cells,
        mixes,
        config={"mixes": len(mixes)},
        max_workers=max_workers,
        manifest_dir=manifest_dir,
        on_event=on_event,
    )
    return results


__all__ = [
    "ENV_MAX_WORKERS",
    "CorruptManifestError",
    "LLCCell",
    "ResumePlan",
    "SharedLLCCell",
    "check_resume_substrate",
    "llc_cells",
    "manifest_satisfies_cell",
    "mix_cells",
    "multi_core_result_from_manifest",
    "resolve_max_workers",
    "run_cells",
    "run_matrix",
    "run_mix_matrix",
    "single_core_result_from_manifest",
]
