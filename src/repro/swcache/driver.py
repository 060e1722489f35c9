"""Streaming driver for the software object cache.

:func:`run_object_cache` is the software-tier sibling of
:func:`repro.sim.single_core.run_llc`: it feeds a chunked object-trace
stream into one :class:`repro.swcache.model.ObjectCache` in O(chunk)
memory, optionally splitting the stream at absolute window boundaries
for a :class:`repro.obs.timeseries.WindowedRecorder` (which picks up the
byte-hit axis automatically from the cache's byte-capable stats),
fingerprinting the chunks it simulates, and emitting a
``kind="objectstore"`` provenance manifest. Plain CPU traces are
accepted too — they are coerced per chunk via
:meth:`repro.traces.objects.ObjectTrace.from_trace`, so any existing
workload doubles as a line-sized object stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

from repro.obs.manifest import FingerprintAccumulator, Manifest
from repro.obs.manifest import git_sha as _git_sha
from repro.obs.metrics import METRICS
from repro.obs.timeseries import WindowedRecorder, _WindowFeed, _resolve_recorder
from repro.swcache.model import ObjectCache, ObjectCacheStats, SoftwareCachePolicy
from repro.traces.objects import ObjectTrace
from repro.traces.stream import TraceStream, as_stream
from repro.traces.trace import Trace


@dataclass(slots=True)
class ObjectCacheResult:
    """Outcome of one software-cache run.

    ``stats`` is the cache's full counter set (byte counters included);
    the flat fields mirror :class:`repro.sim.single_core.SingleCoreResult`
    so experiment tables and manifest emission share shape. ``extra``
    carries the PD trajectory for PDP runs and the windowed time-series
    payload when recording was on.
    """

    name: str
    policy: str
    capacity_bytes: int
    stats: ObjectCacheStats
    accesses: int
    wall_time_s: float
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Object hit ratio of the run."""
        return self.stats.hit_rate

    @property
    def byte_hit_rate(self) -> float:
        """Byte hit ratio of the run (read ops)."""
        return self.stats.byte_hit_rate

    @property
    def bypass_fraction(self) -> float:
        """Admission-rejected fraction of all requests."""
        return self.stats.bypass_fraction


def _simulate_slice(cache: ObjectCache, sub: ObjectTrace) -> None:
    """Present one boundary-respecting trace slice to the cache."""
    access = cache.access
    columns = zip(
        sub.keys.tolist(),
        sub.sizes.tolist(),
        sub.ops.tolist(),
        sub.timestamps.tolist(),
    )
    for key, size, op, timestamp in columns:
        access(key, size, op, float(timestamp))


def run_object_cache(
    trace: Trace | TraceStream,
    policy: SoftwareCachePolicy,
    capacity_bytes: int,
    ttl: float | None = None,
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
    timeseries: WindowedRecorder | None = None,
    window_size: int | None = None,
) -> ObjectCacheResult:
    """Drive an object-request stream into a byte-budget cache.

    Args:
        trace: an :class:`ObjectTrace` / object-trace stream, or any
            plain trace (coerced chunk by chunk to line-sized GETs).
            Streams are consumed in O(chunk) memory.
        policy: a fresh :class:`SoftwareCachePolicy` instance.
        capacity_bytes: the cache's byte budget.
        ttl: object time-to-live in trace time units (None = no expiry).
        manifest_dir: when set, write a ``kind="objectstore"``
            provenance manifest (fingerprint accumulated while
            simulating — no second pass over the file).
        run_label: display label for the manifest; defaults to the
            policy's registry name.
        run_meta: extra JSON-native manifest context (a ``seed`` key is
            lifted into the manifest's ``seed`` field).
        timeseries: a :class:`WindowedRecorder` to fill; windows carry
            ``bytes_requested``/``bytes_hit`` on top of the standard
            counters, and PDP's PD/protected-object series for free.
        window_size: record with a fresh default-budget recorder of
            this window size (mutually exclusive with ``timeseries``).
    """
    recorder = _resolve_recorder(timeseries, window_size)
    start = perf_counter()
    stream = as_stream(trace)
    cache = ObjectCache(capacity_bytes, policy, ttl=ttl)
    if recorder is not None:
        recorder.attach(cache, policy)
    feed = _WindowFeed(recorder)
    fingerprinter = FingerprintAccumulator() if manifest_dir is not None else None
    total_accesses = 0
    # Per-chunk (not per-access) latency gating: one METRICS.enabled test
    # per run and at most one histogram observation per chunk, so the
    # disabled path stays inside the metrics overhead budget.
    observe_chunks = METRICS.enabled
    for chunk in stream.chunks():
        chunk_start = perf_counter() if observe_chunks else 0.0
        obj_chunk = ObjectTrace.from_trace(chunk, position_offset=total_accesses)
        for sub, take in feed.slices(obj_chunk):
            _simulate_slice(cache, sub)
            feed.account(take)
        total_accesses += len(obj_chunk)
        if fingerprinter is not None:
            fingerprinter.update(obj_chunk)
        if observe_chunks:
            METRICS.observe("swcache.chunk_s", perf_counter() - chunk_start)
    feed.finish()
    wall_time_s = perf_counter() - start
    extra: dict = {}
    if hasattr(policy, "pd_history"):
        extra["pd_history"] = list(policy.pd_history)
    if hasattr(policy, "current_pd"):
        extra["final_pd"] = policy.current_pd
    if recorder is not None:
        extra["timeseries"] = recorder.to_dict()
    result = ObjectCacheResult(
        name=stream.name,
        policy=policy.name,
        capacity_bytes=capacity_bytes,
        stats=cache.stats,
        accesses=cache.stats.accesses,
        wall_time_s=wall_time_s,
        extra=extra,
    )
    if manifest_dir is not None:
        emit_objectstore_manifest(
            manifest_dir,
            stream,
            result,
            ttl=ttl,
            run_label=run_label,
            run_meta=run_meta,
            fingerprint=fingerprinter.digest(
                stream.name, stream.instructions_per_access
            ),
            timeseries=recorder.to_dict() if recorder is not None else None,
        )
    return result


def emit_objectstore_manifest(
    manifest_dir: str | os.PathLike,
    stream: TraceStream,
    result: ObjectCacheResult,
    ttl: float | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
    fingerprint: str | None = None,
    timeseries: dict | None = None,
) -> None:
    """Write one ``kind="objectstore"`` provenance manifest.

    The ``config`` block records the byte budget and TTL instead of a
    cache geometry; ``stats`` carries the full byte-counter set and
    ``metrics`` the hit / byte-hit / bypass ratios the comparison
    tables and ``repro obs report`` render.
    """
    meta = dict(run_meta or {})
    stats = result.stats
    Manifest(
        kind="objectstore",
        workload=stream.name,
        policy=result.policy,
        engine="swcache",
        label=run_label or result.policy,
        seed=meta.pop("seed", None),
        config={
            "capacity_bytes": result.capacity_bytes,
            "ttl": ttl,
        },
        trace_fingerprint=fingerprint,
        git_sha=_git_sha(),
        wall_time_s=result.wall_time_s,
        accesses=result.accesses,
        accesses_per_sec=(
            result.accesses / result.wall_time_s if result.wall_time_s > 0 else 0.0
        ),
        stats={
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "bypasses": stats.bypasses,
            "evictions": stats.evictions,
            "fills": stats.fills,
            "expirations": stats.expirations,
            "invalidations": stats.invalidations,
            "writes": stats.writes,
            "bytes_requested": stats.bytes_requested,
            "bytes_hit": stats.bytes_hit,
            "bytes_missed": stats.bytes_missed,
            "bytes_admitted": stats.bytes_admitted,
            "bytes_evicted": stats.bytes_evicted,
        },
        metrics={
            "hit_rate": stats.hit_rate,
            "byte_hit_rate": stats.byte_hit_rate,
            "bypass_fraction": stats.bypass_fraction,
        },
        timeseries=timeseries or {},
        extra=meta,
    ).save(manifest_dir)


__all__ = [
    "ObjectCacheResult",
    "emit_objectstore_manifest",
    "run_object_cache",
]
