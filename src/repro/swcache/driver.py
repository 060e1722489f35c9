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
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from repro.obs.manifest import FingerprintAccumulator, Manifest
from repro.obs.metrics import METRICS
from repro.obs.timeseries import WindowedRecorder, _WindowFeed
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
    """Present one boundary-respecting trace slice to the cache, as one
    :meth:`ObjectCache.replay` call."""
    cache.replay(
        sub.keys.tolist(),
        sub.sizes.tolist(),
        sub.ops.tolist(),
        sub.timestamps.astype(np.float64).tolist(),
    )


def run_object_cache(
    trace: Trace | TraceStream,
    policy: SoftwareCachePolicy,
    capacity_bytes: int,
    ttl: float | None = None,
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
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
        window_size: when set, record per-window statistics with a
            default-budget :class:`WindowedRecorder` of this window
            size; windows carry ``bytes_requested``/``bytes_hit`` on top
            of the standard counters, and PDP's PD/protected-object
            series for free.
    """
    recorder = None if window_size is None else WindowedRecorder(window_size)
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
        Manifest.for_run(
            "objectstore",
            stream.name,
            result.policy,
            wall_time_s,
            result.accesses,
            run_meta,
            engine="swcache",
            label=run_label or result.policy,
            config={"capacity_bytes": capacity_bytes, "ttl": ttl},
            trace_fingerprint=fingerprinter.digest(
                stream.name, stream.instructions_per_access
            ),
            stats=asdict(result.stats),
            metrics={
                "hit_rate": result.hit_rate,
                "byte_hit_rate": result.byte_hit_rate,
                "bypass_fraction": result.bypass_fraction,
            },
            timeseries=extra.get("timeseries", {}),
        ).save(manifest_dir)
    return result


__all__ = [
    "ObjectCacheResult",
    "run_object_cache",
]
