"""Parallel sweep / comparison runners built on ``ProcessPoolExecutor``.

The unit of work is one (trace, policy-factory) simulation — or, for the
multi-core grid, one (mix, policy-factory) shared-LLC run. The grid's
inputs — the :class:`Trace`, the
:class:`repro.traces.stream.TraceStream`, or every mix's per-thread
traces — reach each worker once, through the pool's initializer
(:func:`_install_grid`). Under the ``fork`` start method (the default
where available) workers inherit them copy-on-write at no cost; under
any other start method they are pickled once per worker. Tasks carry
only the cell key, its policy factory and a few small arguments, so a
32-point PD sweep neither writes nor re-ships the trace. A stream
source (an external trace file opened via
:func:`repro.traces.formats.open_trace`) stays a chunked stream inside
every worker, so the parallel path never materializes a huge trace
either.

Everything that crosses into a worker must pickle. Factories always do
— module-level callables, classes, or ``functools.partial`` of those;
lambdas and closures trigger the serial fallback. The inputs must pickle
only when the pool does not fork; a stream from ``open_trace`` holds a
closure, so off fork a stream-sourced grid runs serially.

Worker count resolution (``resolve_max_workers``): an explicit
``max_workers`` argument wins, then the ``REPRO_MAX_WORKERS`` environment
variable, then ``os.cpu_count()``. A resolved count of 1 — or any failure
to stand up the pool (unpicklable factories or inputs, sandboxed
environments without process support) — falls back to running serially
in-process, so these entry points are always safe to call. The fallback is *loud*: it
raises a :class:`RuntimeWarning`, emits a ``warning`` progress event
through the grid observer, and the sweep manifest records
``workers_requested`` vs ``workers_effective`` so a degraded sweep is
diagnosable from its manifest alone.

Observability: both grid runners accept ``on_event`` (a callback fed
started/finished/failed :class:`repro.obs.progress.ProgressEvent`
records, emitted from the *parent* process as tasks dispatch and
complete) and ``manifest_dir``. With a manifest directory configured,
every cell writes its own provenance manifest (inside the worker, via
the driver's ``manifest_dir=`` parameter), the runner appends all
progress events to ``events.jsonl``, and a sweep-level manifest records
per-task status — including failed tasks with policy, workload and a
traceback summary — so a partially failed grid is diagnosable from the
manifest directory alone. The runners additionally split each cell's
wall time into queue wait and in-worker runtime (histograms in the
process-wide :data:`repro.obs.metrics.METRICS` registry, served live by
the sweep daemon's ``stats`` verb) and — with a manifest directory —
write one span per cell under a grid root span to ``spans.jsonl``,
rendered by ``repro obs trace``; the sweep manifest embeds the metrics
snapshot when the registry is enabled.

Failure semantics: only *infrastructure* failures fall back to the serial
path — pool setup errors and a broken pool
(``BrokenProcessPool``: a worker process died). An exception raised by
the simulation itself inside a worker (a policy bug surfacing as
``RuntimeError``, ``ValueError``, ...) propagates to the caller; it is
never silently masked by a serial re-run. The runners let the remaining
tasks of the grid complete (their results still land in per-cell
manifests), record every failure, then re-raise the first one.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from time import perf_counter

from repro.memory.cache import CacheGeometry
from repro.memory.columnar import merge_shard_parts, run_llc_shard, set_shardable
from repro.memory.timing import TimingModel
from repro.obs.manifest import (
    FingerprintAccumulator,
    Manifest,
    TaskFailure,
    trace_fingerprint,
)
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.spans import SpanTracer
from repro.obs.trace_log import EVENTS_FILENAME, TraceLog
from repro.sim.multi_core import MultiCoreResult, run_shared_llc
from repro.sim.single_core import SingleCoreResult, run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace

#: Environment variable overriding the default worker count.
ENV_MAX_WORKERS = "REPRO_MAX_WORKERS"

#: Inside a pool worker, the running grid's inputs as published by
#: :func:`_install_grid`: the trace (or stream) of a ``run_matrix`` grid,
#: or the ``{mix_key: thread traces}`` of a ``run_mix_matrix`` one.
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


def _unpicklable(factories: list, inputs) -> str | None:
    """Why a grid cannot cross into pool workers, or None if it can.

    Factories travel pickled with every task. The inputs travel pickled
    (once per worker) only when the pool does not fork — a forked worker
    inherits them — so only then must they pickle.
    """
    try:
        pickle.dumps(factories)
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


def _pool_task(cell: Callable, key, args: tuple):
    """Worker entry: ``cell(inputs, key, *args)`` against the inputs
    :func:`_install_grid` published, in a clean observability scope;
    returns ``(key, result, obs_payload)``."""
    start = _task_obs_begin()
    result = cell(_GRID_INPUTS, key, *args)
    return key, result, _task_obs_finish(start)


def _matrix_cell(
    trace: Trace | TraceStream,
    key,
    factory: Callable[[], object],
    shard_spec: tuple[int, int, int] | None,
    geometry: CacheGeometry,
    timing: TimingModel | None,
    engine: str,
    manifest_dir: str | None,
    window_size: int | None,
):
    """One ``run_matrix`` task: simulate ``trace`` under ``factory()``.

    With ``shard_spec=(shard, num_shards, total_length)`` the task runs
    only the sets assigned to that shard (vector engine, no per-cell
    manifest) and returns a part dict for :func:`merge_shard_parts`
    instead of a :class:`SingleCoreResult`.
    """
    if shard_spec is not None:
        shard, num_shards, total_length = shard_spec
        return run_llc_shard(
            trace,
            factory(),
            geometry,
            shard,
            num_shards,
            total_length,
            window_size=window_size,
        )
    return run_llc(
        trace,
        factory(),
        geometry,
        timing=timing,
        engine=engine,
        manifest_dir=manifest_dir,
        run_label=str(key),
        window_size=window_size,
    )


def _mix_cell(
    mixes: dict[str, list[Trace]],
    key: tuple[str, str],
    factory: Callable[[], object],
    geometry: CacheGeometry,
    timing: TimingModel | None,
    singles: list[float] | None,
    engine: str,
    manifest_dir: str | None,
) -> MultiCoreResult:
    """One ``run_mix_matrix`` task: the shared-LLC run of cell
    ``key = (mix_key, policy_key)`` over ``mixes[mix_key]``."""
    mix_key = key[0]
    return run_shared_llc(
        mixes[mix_key],
        factory(),
        geometry,
        timing=timing,
        singles=singles,
        name=mix_key,
        engine=engine,
        manifest_dir=manifest_dir,
        run_label=str(key),
    )


class _FingerprintingStream(TraceStream):
    """A pass-through :class:`TraceStream` that fingerprints its first
    complete pass.

    ``run_matrix`` wraps stream sources in one of these so the sweep
    manifest can carry a real, chunk-size-invariant trace fingerprint —
    the grid already iterates the stream at least once per cell, so the
    digest comes for free instead of needing a second scan of the file.
    On the pooled path each worker iterates its own copy; the digest
    travels back in the task's observability payload and the parent
    takes it via :meth:`adopt`. Only a pass that ran to exhaustion
    finalizes the digest; an aborted iteration (a failing cell) leaves
    the accumulator to retry on the next pass.
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


def _warn_serial_fallback(
    observer: "_GridObserver | None", label: str, requested: int, reason: str
) -> None:
    """Surface a parallel-to-serial degradation instead of hiding it.

    A user who asked for N workers and got 1 deserves a signal: emit a
    :class:`RuntimeWarning` and — when the grid has an observer — a
    ``warning`` progress event (which also lands in ``events.jsonl``).
    The sweep manifest additionally records ``workers_requested`` vs
    ``workers_effective`` so the degradation is diagnosable post hoc.
    """
    message = (
        f"{label}: requested {requested} workers but running serially — "
        f"{reason}"
    )
    # Attribute the warning to the caller of run_matrix/run_mix_matrix
    # (this function <- _run_grid <- the runner <- the caller).
    warnings.warn(message, RuntimeWarning, stacklevel=4)
    if observer is not None:
        observer.warning("serial-fallback", message)


class _GridObserver:
    """Per-grid progress/event-log/failure/latency bookkeeping.

    Wraps a :class:`ProgressReporter` (teeing every event into the
    manifest directory's ``events.jsonl`` when one is configured) and
    accumulates per-task status plus :class:`TaskFailure` records for
    the sweep-level manifest.

    It is also the grid's latency observer: task dispatch times are
    remembered so each completion can be split into queue wait (wall
    time minus in-worker runtime) and runtime, recorded into the
    ``grid.cell_queue_wait_s`` / ``grid.cell_runtime_s`` histograms of
    the process-wide :data:`repro.obs.metrics.METRICS` registry — and,
    when a manifest directory is configured, emitted as one per-cell
    span (child of the grid's root span) in ``spans.jsonl``.
    """

    def __init__(
        self,
        total: int,
        on_event: Callable[[ProgressEvent], None] | None,
        manifest_dir: Path | None,
        label: str,
        failure_context: Callable[[object], tuple[str, str]],
    ) -> None:
        self._log = (
            TraceLog(manifest_dir / EVENTS_FILENAME)
            if manifest_dir is not None
            else None
        )
        self._failure_context = failure_context
        self.statuses: dict[str, str] = {}
        self.failures: list[TaskFailure] = []
        self.reporter = ProgressReporter(
            total, on_event=self._dispatch, label=label
        )
        self._on_event = on_event
        self._dispatched: dict[str, float] = {}
        self.tracer = SpanTracer.for_dir(manifest_dir)
        # Root span for the whole grid: entering it makes every cell
        # span emitted below a child of it (and, transitively, of any
        # scheduler span already active); close() exits and records it.
        self._grid_span = self.tracer.span(label, cells=total)
        self._grid_span.__enter__()

    def _dispatch(self, event: ProgressEvent) -> None:
        """Tee one event into the JSONL log and the user callback."""
        if self._log is not None:
            self._log.emit_progress(event)
        if self._on_event is not None:
            self._on_event(event)

    def started(self, key) -> None:
        """Record and broadcast task dispatch."""
        self.statuses[str(key)] = "started"
        self._dispatched[str(key)] = perf_counter()
        self.reporter.started(key)

    def _observe_cell(self, key, status: str, runtime_s: float | None) -> None:
        """Record one completed cell's latency split and span.

        Wall time runs dispatch to completion; ``runtime_s`` is the
        in-worker (or in-process) execution time when known, and their
        difference is the time the task spent queued behind the pool.
        """
        dispatched = self._dispatched.pop(str(key), None)
        if dispatched is None:
            return
        wall = perf_counter() - dispatched
        runtime = wall if runtime_s is None else min(runtime_s, wall)
        queue_wait = max(0.0, wall - runtime)
        if METRICS.enabled:
            METRICS.observe("grid.cell_runtime_s", runtime)
            METRICS.observe("grid.cell_queue_wait_s", queue_wait)
            METRICS.inc(f"grid.cells_{status}")
        self.tracer.emit(
            f"cell:{key}",
            start_s=dispatched,
            duration_s=wall,
            attributes={
                "status": status,
                "runtime_s": runtime,
                "queue_wait_s": queue_wait,
            },
        )

    def finished(self, key, runtime_s: float | None = None) -> None:
        """Record and broadcast successful completion."""
        self.statuses[str(key)] = "finished"
        self._observe_cell(key, "finished", runtime_s)
        self.reporter.finished(key)

    def failed(self, key, exc: BaseException) -> None:
        """Record and broadcast a task failure (kept for the manifest)."""
        self.statuses[str(key)] = "failed"
        self._observe_cell(key, "failed", None)
        policy, workload = self._failure_context(key)
        self.failures.append(
            TaskFailure.from_exception(key, exc, policy=policy, workload=workload)
        )
        self.reporter.failed(key, exc)

    def warning(self, key, message: str) -> None:
        """Broadcast a grid-level warning (no per-task status change)."""
        self.reporter.warning(key, message)

    def task_records(self) -> list[dict]:
        """JSON-ready ``{key, status}`` rows for the sweep manifest."""
        return [
            {"key": key, "status": status}
            for key, status in self.statuses.items()
        ]

    def close(self) -> None:
        """Finish the grid span and close the event/span logs."""
        self._grid_span.__exit__(None, None, None)
        self.tracer.close()
        if self._log is not None:
            self._log.close()


def _run_serial_tasks(cell: Callable, inputs, tasks, observer: _GridObserver | None):
    """Run ``cell(inputs, key, *args)`` for each ``(key, args)`` task
    in-process.

    Returns ``(results, failures)`` where failures are ``(key, exc)``
    pairs; the grid keeps going past a failed task so every cell's
    outcome is known (matching the pooled path).
    """
    results: dict = {}
    failures: list[tuple] = []
    for key, args in tasks:
        if observer is not None:
            observer.started(key)
        start = perf_counter()
        try:
            results[key] = cell(inputs, key, *args)
        except Exception as exc:  # noqa: BLE001 — recorded, then re-raised
            failures.append((key, exc))
            if observer is not None:
                observer.failed(key, exc)
        else:
            if observer is not None:
                observer.finished(key, runtime_s=perf_counter() - start)
    return results, failures


def _run_pooled(cell: Callable, inputs, tasks, workers: int, observer):
    """Fan the ``(key, args)`` tasks over a process pool.

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
    runtime feeds the observer's queue-wait/runtime split; and a stream digest is adopted by the
    parent's :class:`_FingerprintingStream`.
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
        future_keys = {}
        for key, args in tasks:
            if observer is not None:
                observer.started(key)
            future_keys[pool.submit(_pool_task, cell, key, args)] = key
        try:
            for future in as_completed(future_keys):
                key = future_keys[future]
                try:
                    result_key, result, obs_payload = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # noqa: BLE001 — see docstring
                    failures.append((key, exc))
                    if observer is not None:
                        observer.failed(key, exc)
                else:
                    results[result_key] = result
                    if obs_payload["metrics"] is not None:
                        METRICS.merge_snapshot(obs_payload["metrics"])
                    if obs_payload["fingerprint"] is not None:
                        inputs.adopt(obs_payload["fingerprint"])
                    if observer is not None:
                        observer.finished(key, runtime_s=obs_payload["runtime_s"])
        except BrokenProcessPool:
            # A worker *process* died (OOM-kill, sandbox teardown) —
            # infrastructure, not a simulation error.
            return None
    return results, failures


def _run_grid(
    label: str,
    cell: Callable,
    inputs,
    tasks: list[tuple],
    factories: list,
    workers: int,
    observer: _GridObserver | None,
):
    """Run the grid's ``(key, args)`` tasks — each ``cell(inputs, key,
    *args)`` — over a process pool when one can help, else serially.

    The serial path runs when one worker or one task is requested, and
    — loudly, see :func:`_warn_serial_fallback` — when the factories or
    inputs cannot reach the workers or the pool fails as infrastructure.
    Returns ``(results, failures, workers_effective)``.
    """
    if workers > 1 and len(tasks) > 1:
        reason = _unpicklable(factories, inputs)
        if reason is None:
            effective = min(workers, len(tasks))
            pooled = _run_pooled(cell, inputs, tasks, effective, observer)
            if pooled is not None:
                return (*pooled, effective)
            reason = "process pool unavailable (infrastructure failure)"
        _warn_serial_fallback(observer, label, workers, reason)
    return (*_run_serial_tasks(cell, inputs, tasks, observer), 1)


def _finish_grid(
    observer: _GridObserver | None,
    manifest_out: Path | None,
    failures: list[tuple],
    sweep_manifest: Callable[[_GridObserver], Manifest] | None,
):
    """Close the observer, write the sweep manifest, re-raise failures.

    The sweep manifest is written *before* re-raising so a partially
    failed grid still leaves a complete post-mortem record (the
    ``run_matrix`` failure-diagnosability contract).
    """
    if observer is not None:
        observer.close()
    if manifest_out is not None and observer is not None and sweep_manifest:
        sweep_manifest(observer).save(manifest_out)
    if failures:
        raise failures[0][1]


def run_matrix(
    trace: Trace | TraceStream,
    factories: dict,
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    max_workers: int | None = None,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    on_event: Callable[[ProgressEvent], None] | None = None,
    set_partitions: int | None = None,
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
        manifest_dir: when set, each cell writes a per-run manifest, all
            progress events land in ``events.jsonl``, and a sweep-level
            manifest (kind ``"matrix"``) records per-task status and any
            failures. Set-partitioned cells do not write per-cell
            manifests (a merged cell has no single worker run to
            describe); the sweep-level manifest still records every
            shard task.
        on_event: optional callback receiving started/finished/failed
            :class:`ProgressEvent` records (emitted in this process).
        set_partitions: when > 1 (vector engine, in-memory trace only),
            split each cell whose policy is
            :func:`repro.memory.columnar.set_shardable` into that many
            set-partitioned shard tasks — shard ``k`` simulates only the
            sets with ``set_index % K == k`` — and merge the per-shard
            statistics and windowed time-series bit-identically to the
            unsharded run. Cells whose policy couples sets (e.g. PDP
            with a dynamic ``pd_engine``) run unsharded. Values are
            clamped to ``geometry.num_sets``.
        window_size: when set, record a windowed time-series of this
            window size for every cell (``result.extra["timeseries"]``),
            sharded or not.

    Returns:
        {key: SingleCoreResult} for every entry in ``factories``.

    Raises:
        ValueError: ``set_partitions`` with a non-vector engine or a
            :class:`TraceStream` source (shard slicing needs the
            materialized address column).
        Whatever the first failing simulation task raised (after the
        remaining tasks complete and the sweep manifest is written);
        only infrastructure failures fall back to the serial path.
    """
    workers = resolve_max_workers(max_workers)
    items = list(factories.items())
    stream_source = isinstance(trace, TraceStream)
    if stream_source:
        # Fingerprint the stream on its first full pass (the first cell,
        # here or in a pool worker) so the sweep manifest can identify
        # the trace — resume matching needs it (see
        # repro.service.scheduler).
        trace = _FingerprintingStream(trace)
    partitions = 0
    if set_partitions is not None:
        if set_partitions < 1:
            raise ValueError(
                f"set_partitions must be >= 1, got {set_partitions}"
            )
        if set_partitions > 1:
            if engine != "vector":
                raise ValueError(
                    "set_partitions requires engine='vector' "
                    f"(got engine={engine!r})"
                )
            if stream_source:
                raise ValueError(
                    "set_partitions requires an in-memory Trace source"
                )
            partitions = min(set_partitions, geometry.num_sets)
    # Shard only the cells whose policy state is provably per-set;
    # everything else (dynamic-PD samplers, unknown policies) keeps the
    # exact unsharded path.
    sharded = {
        key: partitions
        for key, factory in items
        if partitions > 1 and set_shardable(factory())
    }
    total_length = 0 if stream_source else len(trace)

    manifest_out = Path(manifest_dir) if manifest_dir is not None else None
    manifest_arg = str(manifest_out) if manifest_out is not None else None
    # Task list of (key, _matrix_cell args): plain cells keyed by their
    # factory key; sharded cells expand to (key, shard) tasks whose
    # parts merge after the grid.
    cell_args = (geometry, timing, engine, manifest_arg, window_size)
    task_items: list[tuple] = []
    for key, factory in items:
        if key in sharded:
            for shard in range(partitions):
                shard_spec = (shard, partitions, total_length)
                task_items.append(((key, shard), (factory, shard_spec, *cell_args)))
        else:
            task_items.append((key, (factory, None, *cell_args)))

    observer = None
    if manifest_out is not None or on_event is not None:
        observer = _GridObserver(
            total=len(task_items),
            on_event=on_event,
            manifest_dir=manifest_out,
            label="matrix",
            failure_context=lambda key: (str(key), trace.name),
        )

    start = perf_counter()
    results, failures, workers_effective = _run_grid(
        "matrix",
        _matrix_cell,
        trace,
        task_items,
        [factory for _, factory in items],
        workers,
        observer,
    )

    # Merge shard parts back into one SingleCoreResult per sharded cell.
    # A cell with any failed shard is left out of `results` (its failure
    # re-raises below, and the sweep manifest records each shard task).
    merge_timing = timing or TimingModel()
    if sharded and not failures:
        for key in sharded:
            parts = [results.pop((key, shard)) for shard in range(partitions)]
            results[key] = merge_shard_parts(
                parts,
                trace.name,
                total_length,
                trace.instructions_per_access,
                merge_timing,
                window_size=window_size,
            )

    def sweep_manifest(obs: _GridObserver) -> Manifest:
        wall = perf_counter() - start
        # Stream sources fingerprint during their first full pass (see
        # _FingerprintingStream) — no extra scan of the file, and the
        # sweep manifest can identify the trace for resume matching.
        fingerprint = trace.fingerprint if stream_source else trace_fingerprint(trace)
        length = (trace.length or 0) if stream_source else len(trace)
        config = {
            "num_sets": geometry.num_sets,
            "ways": geometry.ways,
            "line_size": geometry.line_size,
            "workers": workers,
            "workers_requested": workers,
            "workers_effective": workers_effective,
        }
        if sharded:
            config["set_partitions"] = partitions
            config["sharded_cells"] = sorted(str(key) for key in sharded)
        return Manifest(
            kind="matrix",
            workload=trace.name,
            policy=f"{len(items)} policies",
            engine=engine,
            config=config,
            trace_fingerprint=fingerprint,
            git_sha=_git_sha(),
            wall_time_s=wall,
            accesses=length * len(items),
            accesses_per_sec=(length * len(items)) / wall if wall > 0 else 0.0,
            tasks=obs.task_records(),
            failures=list(obs.failures),
            metrics=METRICS.snapshot() if METRICS.enabled else {},
        )

    _finish_grid(observer, manifest_out, failures, sweep_manifest)
    return {key: results[key] for key, _ in items}


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
    if singles is not None and set(singles) != set(mixes):
        raise ValueError("singles must provide baselines for exactly the mixes")
    workers = resolve_max_workers(max_workers)
    grid = [(mix_key, policy_key) for mix_key in mixes for policy_key in factories]
    manifest_out = Path(manifest_dir) if manifest_dir is not None else None
    manifest_arg = str(manifest_out) if manifest_out is not None else None
    observer = None
    if manifest_out is not None or on_event is not None:
        observer = _GridObserver(
            total=len(grid),
            on_event=on_event,
            manifest_dir=manifest_out,
            label="mix-matrix",
            # grid keys are (mix, policy) pairs
            failure_context=lambda key: (str(key[1]), str(key[0])),
        )

    tasks = [
        (
            (mix_key, policy_key),
            (
                factories[policy_key],
                geometry,
                timing,
                None if singles is None else singles[mix_key],
                engine,
                manifest_arg,
            ),
        )
        for mix_key, policy_key in grid
    ]
    start = perf_counter()
    results, failures, workers_effective = _run_grid(
        "mix-matrix",
        _mix_cell,
        mixes,
        tasks,
        list(factories.values()),
        workers,
        observer,
    )

    def sweep_manifest(obs: _GridObserver) -> Manifest:
        wall = perf_counter() - start
        total_accesses = sum(
            len(trace) for traces in mixes.values() for trace in traces
        ) * len(factories)
        return Manifest(
            kind="mix_matrix",
            workload=",".join(mixes),
            policy=",".join(str(key) for key in factories),
            engine=engine,
            config={
                "num_sets": geometry.num_sets,
                "ways": geometry.ways,
                "line_size": geometry.line_size,
                "workers": workers,
                "workers_requested": workers,
                "workers_effective": workers_effective,
                "mixes": len(mixes),
            },
            git_sha=_git_sha(),
            wall_time_s=wall,
            accesses=total_accesses,
            accesses_per_sec=total_accesses / wall if wall > 0 else 0.0,
            tasks=obs.task_records(),
            failures=list(obs.failures),
            metrics=METRICS.snapshot() if METRICS.enabled else {},
        )

    _finish_grid(observer, manifest_out, failures, sweep_manifest)
    return {key: results[key] for key in grid}


__all__ = [
    "ENV_MAX_WORKERS",
    "resolve_max_workers",
    "run_matrix",
    "run_mix_matrix",
]
