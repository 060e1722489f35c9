"""The single-core simulation driver.

``run_llc`` drives a trace straight into the LLC — the standard mode for
the paper's experiments, where traces stand for the post-L1/L2 access
stream.

It accepts either an in-memory :class:`Trace` or a chunked
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
from repro.memory.columnar import engine_tier, run_trace_vector
from repro.memory.fastpath import run_trace
from repro.memory.stats import OccupancyTracker
from repro.memory.timing import TimingModel
from repro.obs.manifest import FingerprintAccumulator, Manifest
from repro.obs.timeseries import WindowedRecorder, _WindowFeed
from repro.traces.stream import TraceStream, as_stream
from repro.traces.trace import Trace

#: Engine modes accepted by the drivers: "vector" (columnar set-batched
#: kernels — the ``run_llc`` default; ``columnar.engine_tier`` runs any
#: policy without a kernel on "fast" and the manifest's ``engine_ran``
#: records it), "fast" (batched kernel) and "reference" (the original
#: per-Access loop, kept for equivalence testing — see
#: tests/test_fastpath.py and tests/test_conformance.py).
ENGINES = ("vector", "fast", "reference")


def _check_engine(engine: str) -> None:
    """Reject unknown engine names early, before any setup work."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _geometry_config(geometry: CacheGeometry) -> dict:
    """The ``config`` of a simulation manifest: the cache geometry."""
    return {
        "num_sets": geometry.num_sets,
        "ways": geometry.ways,
        "line_size": geometry.line_size,
    }


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
        engine: "vector" (columnar set-batched kernels — the
            default), "fast" (batched kernel) or "reference"
            (per-Access loop); all three produce identical results.
            :func:`repro.memory.columnar.engine_tier` decides once, after
            the cache attaches ``policy``, which tier runs: a policy with
            no vector kernel runs ``"fast"``. The manifest records the
            request as ``engine`` and the tier as ``engine_ran``.
        manifest_dir: when set, write a provenance manifest for this run
            into the directory (see :mod:`repro.obs.manifest`). Never
            read from the environment here — nested helper runs must not
            emit surprise manifests. Streaming runs fingerprint their
            chunks while simulating — no second pass over the file.
        run_label: display label recorded in the manifest (e.g. the
            sweep cell key); defaults to the policy class name.
        run_meta: extra JSON-native context for the manifest; a ``seed``
            key is lifted into the manifest's ``seed`` field.
        window_size: when set, record per-window statistics with a
            default-budget :class:`repro.obs.timeseries.WindowedRecorder`
            of this window size. The simulation is split at absolute
            window boundaries, so the recorded windows are bit-identical
            across engines and chunk sizes; None keeps the exact
            unrecorded code path. The window payload lands in
            ``result.extra["timeseries"]`` and in the manifest when one
            is written.
    """
    _check_engine(engine)
    recorder = None if window_size is None else WindowedRecorder(window_size)
    timing = timing or TimingModel()
    start = perf_counter()
    stream = as_stream(trace)
    cache = SetAssociativeCache(geometry, policy)
    tier = engine_tier(cache, engine)
    tracker = None
    if track_occupancy:
        tracker = OccupancyTracker(short_threshold=occupancy_threshold)
        cache.observers.append(tracker)
    if recorder is not None:
        recorder.attach(cache, policy)
    feed = _WindowFeed(recorder)
    fingerprinter = FingerprintAccumulator() if manifest_dir is not None else None
    total_accesses = 0
    kernel = run_trace_vector if tier == "vector" else run_trace
    for chunk in stream.chunks():
        for sub, take in feed.slices(chunk):
            if tier == "reference":
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
        Manifest.for_run(
            "llc",
            stream.name,
            type(policy).__name__,
            perf_counter() - start,
            result.accesses,
            run_meta,
            engine=engine,
            engine_ran=tier,
            label=run_label,
            config=_geometry_config(geometry),
            trace_fingerprint=fingerprinter.digest(
                stream.name, stream.instructions_per_access
            ),
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
            timeseries=extra.get("timeseries", {}),
        ).save(manifest_dir)
    return result


__all__ = [
    "ENGINES",
    "SingleCoreResult",
    "run_llc",
]
