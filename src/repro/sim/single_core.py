"""Single-core simulation drivers.

``run_llc`` drives a trace straight into the LLC — the standard mode for
the paper's experiments, where traces stand for the post-L1/L2 access
stream. ``run_hierarchy`` drives the full three-level hierarchy for
end-to-end studies.

Both drivers accept either an in-memory :class:`Trace` or a chunked
:class:`repro.traces.stream.TraceStream` (e.g. from
:func:`repro.traces.formats.open_trace`): chunks are fed through the
selected engine back to back, and because all simulation state lives in
the cache and policy objects, the accumulated statistics are
bit-identical to a one-shot run of the concatenated trace while peak
memory stays O(chunk) (``tests/test_streaming.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.columnar import run_trace_vector
from repro.memory.fastpath import run_hierarchy_trace, run_trace
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.stats import OccupancyTracker
from repro.memory.timing import TimingModel
from repro.obs.manifest import FingerprintAccumulator, Manifest, fingerprint_source
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.timeseries import WindowedRecorder, _WindowFeed, _resolve_recorder
from repro.traces.stream import TraceStream, as_stream
from repro.traces.trace import Trace

#: Engine modes accepted by the drivers: "vector" (columnar set-batched
#: kernels with per-policy fallback to the fast path — the ``run_llc``
#: default), "fast" (batched kernel) and "reference" (the original
#: per-Access loop, kept for equivalence testing — see
#: tests/test_fastpath.py and tests/test_conformance.py).
ENGINES = ("vector", "fast", "reference")


def _check_engine(engine: str) -> None:
    """Reject unknown engine names early, before any setup work."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _emit_run_manifest(
    manifest_dir: str | os.PathLike,
    kind: str,
    trace: Trace | TraceStream,
    policy_name: str,
    geometry: CacheGeometry,
    engine: str,
    result: SingleCoreResult,
    wall_time_s: float,
    run_label: str | None = None,
    run_meta: dict | None = None,
    fingerprint: str | None = None,
    timeseries: dict | None = None,
) -> None:
    """Write one per-run provenance manifest (see ``repro.obs.manifest``).

    Used by :func:`run_llc` / :func:`run_hierarchy`. ``fingerprint``
    lets a streaming run pass the digest it accumulated while simulating
    (avoiding a second pass over the file); when omitted it is computed
    here — for a :class:`TraceStream` that means one extra chunked scan.
    """
    meta = dict(run_meta or {})
    if fingerprint is None:
        fingerprint = fingerprint_source(trace)
    Manifest(
        kind=kind,
        workload=trace.name,
        policy=policy_name,
        engine=engine,
        label=run_label,
        seed=meta.pop("seed", None),
        config={
            "num_sets": geometry.num_sets,
            "ways": geometry.ways,
            "line_size": geometry.line_size,
        },
        trace_fingerprint=fingerprint,
        git_sha=_git_sha(),
        wall_time_s=wall_time_s,
        accesses=result.accesses,
        accesses_per_sec=result.accesses / wall_time_s if wall_time_s > 0 else 0.0,
        stats={
            "accesses": result.accesses,
            "hits": result.hits,
            "misses": result.misses,
            "bypasses": result.bypasses,
            "evictions": result.evictions,
            "instructions": result.instructions,
        },
        metrics={
            "hit_rate": result.hit_rate,
            "mpki": result.mpki,
            "ipc": result.ipc,
            "bypass_fraction": result.bypass_fraction,
        },
        timeseries=timeseries or {},
        extra=meta,
    ).save(manifest_dir)


@dataclass(slots=True)
class SingleCoreResult:
    """Outcome of one single-core run."""

    name: str
    accesses: int
    hits: int
    misses: int
    bypasses: int
    instructions: int
    ipc: float
    evictions: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 on an empty run)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def mpki(self) -> float:
        """Misses per thousand instructions."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    @property
    def bypass_fraction(self) -> float:
        """Fraction of accesses that bypassed the LLC."""
        return self.bypasses / self.accesses if self.accesses else 0.0


def run_llc(
    trace: Trace | TraceStream,
    policy,
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    track_occupancy: bool = False,
    occupancy_threshold: int = 16,
    engine: str = "vector",
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
    timeseries: WindowedRecorder | None = None,
    window_size: int | None = None,
) -> SingleCoreResult:
    """Drive ``trace`` into an LLC governed by ``policy``.

    Args:
        trace: LLC-level access stream — an in-memory :class:`Trace`
            (simulated in one shot, exactly as before) or a chunked
            :class:`TraceStream` (simulated chunk by chunk in O(chunk)
            memory, with bit-identical statistics).
        policy: a fresh (unattached) replacement policy instance.
        geometry: LLC shape.
        timing: IPC model; defaults to :class:`TimingModel` defaults.
        track_occupancy: attach an occupancy tracker (Fig. 5a data).
        engine: "vector" (columnar set-batched kernels, falling back to
            the fast path per policy — the default), "fast" (batched
            kernel) or "reference" (per-Access loop); all three produce
            identical results.
        manifest_dir: when set, write a provenance manifest for this run
            into the directory (see :mod:`repro.obs.manifest`). Never
            read from the environment here — nested helper runs must not
            emit surprise manifests. Streaming runs fingerprint their
            chunks while simulating — no second pass over the file.
        run_label: display label recorded in the manifest (e.g. the
            sweep cell key); defaults to the policy class name.
        run_meta: extra JSON-native context for the manifest; a ``seed``
            key is lifted into the manifest's ``seed`` field.
        timeseries: a :class:`repro.obs.timeseries.WindowedRecorder` to
            fill with per-window statistics. The simulation is split at
            absolute window boundaries, so the recorded windows are
            bit-identical across engines and chunk sizes; a disabled (or
            absent) recorder keeps the exact pre-existing code path.
            The window payload lands in ``result.extra["timeseries"]``
            and in the manifest when one is written.
        window_size: convenience alternative to ``timeseries``: record
            with a fresh default-budget recorder of this window size
            (mutually exclusive with ``timeseries``).
    """
    _check_engine(engine)
    recorder = _resolve_recorder(timeseries, window_size)
    timing = timing or TimingModel()
    start = perf_counter()
    stream = as_stream(trace)
    cache = SetAssociativeCache(geometry, policy)
    tracker = None
    if track_occupancy:
        tracker = OccupancyTracker(short_threshold=occupancy_threshold)
        cache.observers.append(tracker)
    if recorder is not None:
        recorder.attach(cache, policy)
    feed = _WindowFeed(recorder)
    fingerprinter = FingerprintAccumulator() if manifest_dir is not None else None
    total_accesses = 0
    kernel = run_trace_vector if engine == "vector" else run_trace
    for chunk in stream.chunks():
        for sub, take in feed.slices(chunk):
            if engine == "reference":
                for access in sub:
                    cache.access(access)
            else:
                kernel(cache, sub)
            feed.account(take)
        total_accesses += len(chunk)
        if fingerprinter is not None:
            fingerprinter.update(chunk)
    feed.finish()
    stats = cache.stats
    instructions = int(round(total_accesses * stream.instructions_per_access))
    ipc = timing.ipc(
        instructions,
        l2_hits=0,
        llc_hits=stats.hits,
        memory_accesses=stats.misses,
    )
    extra: dict = {}
    if tracker is not None:
        extra["occupancy"] = tracker.breakdown
    # NB: named pd_engine, not engine — reusing the name would clobber
    # the engine-mode parameter (tests/test_fastpath.py pins this).
    pd_engine = getattr(policy, "engine", None)
    if pd_engine is not None:
        extra["pd_history"] = list(pd_engine.pd_history)
        extra["final_pd"] = pd_engine.current_pd
    if hasattr(policy, "current_pd"):
        extra["current_pd"] = policy.current_pd
    if recorder is not None:
        extra["timeseries"] = recorder.to_dict()
    result = SingleCoreResult(
        name=stream.name,
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        bypasses=stats.bypasses,
        instructions=instructions,
        ipc=ipc,
        evictions=stats.evictions,
        extra=extra,
    )
    if manifest_dir is not None:
        _emit_run_manifest(
            manifest_dir,
            "llc",
            stream,
            type(policy).__name__,
            geometry,
            engine,
            result,
            perf_counter() - start,
            run_label,
            run_meta,
            fingerprint=fingerprinter.digest(
                stream.name, stream.instructions_per_access
            ),
            timeseries=recorder.to_dict() if recorder is not None else None,
        )
    return result


def run_hierarchy(
    trace: Trace | TraceStream,
    llc_policy,
    machine=None,
    timing: TimingModel | None = None,
    engine: str = "fast",
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
    timeseries: WindowedRecorder | None = None,
    window_size: int | None = None,
) -> SingleCoreResult:
    """Drive ``trace`` through L1 -> L2 -> LLC (Table 1 defaults).

    Accepts an in-memory :class:`Trace` or a chunked
    :class:`TraceStream` (the :func:`run_llc` streaming contract).
    ``manifest_dir`` / ``run_label`` / ``run_meta`` follow the
    :func:`run_llc` contract (manifest ``kind`` is ``"hierarchy"``).
    ``timeseries`` / ``window_size`` follow :func:`run_llc` too, with one
    twist: the recorder observes the **LLC**, so window boundaries count
    trace (L1) positions while the counters are LLC-stat deltas — windows
    where the upper levels absorb everything are legitimately all-zero.
    ``engine="vector"`` is accepted as an alias for the fast hierarchy
    kernel (hierarchy traffic is filtered through L1/L2, so the columnar
    LLC kernels do not apply).
    """
    from repro.sim.config import MachineConfig

    _check_engine(engine)
    recorder = _resolve_recorder(timeseries, window_size)
    machine = machine or MachineConfig()
    start = perf_counter()
    timing = timing or machine.timing()
    stream = as_stream(trace)
    hierarchy = CacheHierarchy(
        llc_policy,
        l1_geometry=machine.l1d,
        l2_geometry=machine.l2,
        llc_geometry=machine.llc,
    )
    if recorder is not None:
        recorder.attach(hierarchy.llc, llc_policy)
    feed = _WindowFeed(recorder)
    fingerprinter = FingerprintAccumulator() if manifest_dir is not None else None
    total_accesses = 0
    for chunk in stream.chunks():
        for sub, take in feed.slices(chunk):
            if engine in ("fast", "vector"):
                run_hierarchy_trace(hierarchy, sub)
            else:
                hierarchy.run(iter(sub))
            feed.account(take)
        total_accesses += len(chunk)
        if fingerprinter is not None:
            fingerprinter.update(chunk)
    feed.finish()
    result = hierarchy.result
    instructions = int(round(total_accesses * stream.instructions_per_access))
    ipc = timing.ipc(
        instructions,
        l2_hits=result.l2_hits,
        llc_hits=result.llc_hits,
        memory_accesses=result.memory_accesses,
    )
    hierarchy_extra: dict = {"hierarchy": result}
    if recorder is not None:
        hierarchy_extra["timeseries"] = recorder.to_dict()
    outcome = SingleCoreResult(
        name=stream.name,
        accesses=result.accesses,
        hits=result.l1_hits + result.l2_hits + result.llc_hits,
        misses=result.memory_accesses,
        bypasses=result.llc_bypasses,
        instructions=instructions,
        ipc=ipc,
        extra=hierarchy_extra,
    )
    if manifest_dir is not None:
        _emit_run_manifest(
            manifest_dir,
            "hierarchy",
            stream,
            type(llc_policy).__name__,
            machine.llc,
            engine,
            outcome,
            perf_counter() - start,
            run_label,
            run_meta,
            fingerprint=fingerprinter.digest(
                stream.name, stream.instructions_per_access
            ),
            timeseries=recorder.to_dict() if recorder is not None else None,
        )
    return outcome


__all__ = [
    "ENGINES",
    "SingleCoreResult",
    "run_hierarchy",
    "run_llc",
]
