"""Multi-core shared-LLC simulation (Sec. 5 methodology).

Threads interleave round-robin into a shared LLC; a thread finishing its
trace rewinds and keeps running (to keep pressuring the cache), and its
statistics freeze at first completion — exactly the paper's rules. Each
thread's IPC is normalized against the stand-alone LRU run on the same
shared-size LLC, the paper's baseline for W/T/H.

Both drivers accept the same ``engine=`` contract as
:func:`repro.sim.single_core.run_llc`, and ask
:func:`repro.memory.columnar.engine_tier` once per run which tier runs
it. ``"vector"`` (the default) set-batches the interleaved run through
:func:`repro.memory.columnar.run_shared_trace_vector` when the columnar
tier has a kernel for the policy (LRU, PDP, PD partitioning), and
otherwise runs ``"fast"``; ``"fast"`` batches it access by access
through :func:`repro.memory.fastpath.run_shared_trace`; ``"reference"``
keeps the original per-``Access`` loop (:func:`_reference_shared_slice`).
The manifest records the requested ``engine`` and the tier that ran as
``engine_ran``. All three share one slice contract and one driver loop,
and are observationally identical — per-thread frozen statistics and
the derived W/T/H metrics match exactly
(``tests/test_fastpath_multicore.py``, ``tests/test_conformance.py``).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from time import perf_counter

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.columnar import engine_tier, run_shared_trace_vector
from repro.memory.fastpath import run_shared_trace
from repro.memory.timing import TimingModel
from repro.obs.manifest import Manifest, trace_fingerprint
from repro.obs.timeseries import WindowedRecorder, _WindowFeed
from repro.policies.lru import LRUPolicy
from repro.sim.metrics import (
    harmonic_mean_normalized_ipc,
    throughput,
    weighted_ipc,
)
from repro.sim.single_core import _check_engine, _geometry_config, run_llc
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces


@dataclass(slots=True)
class ThreadOutcome:
    """Frozen per-thread statistics from a shared run."""

    accesses: int
    hits: int
    misses: int
    bypasses: int
    instructions: int
    ipc: float

    @property
    def mpki(self) -> float:
        """Misses per thousand instructions (frozen counters)."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions


@dataclass(slots=True)
class MultiCoreResult:
    """Shared-run outcome plus the three paper metrics."""

    name: str
    threads: list[ThreadOutcome]
    weighted: float
    throughput: float
    hmean: float
    extra: dict = field(default_factory=dict)


def single_thread_baselines(
    traces: list[Trace],
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    engine: str = "vector",
) -> list[float]:
    """Stand-alone LRU IPC of each thread on the shared-size LLC
    (``run_llc`` with ``engine``; every engine gives the same IPCs)."""
    timing = timing or TimingModel()
    return [
        run_llc(trace, LRUPolicy(), geometry, timing=timing, engine=engine).ipc
        for trace in traces
    ]


def _reference_shared_slice(
    cache: SetAssociativeCache,
    trace: Trace,
    completion: list[int],
    position_offset: int = 0,
) -> list[list[int]]:
    """The per-``Access`` counterpart of :func:`run_shared_trace`, with
    the same contract: drive ``trace`` (a slice of the interleaved run
    starting at absolute position ``position_offset``) through ``cache``
    and return ``[accesses, hits, misses, bypasses]`` per thread, where
    an access counts for its thread only before the thread's
    ``completion`` position (the freeze rule)."""
    num_threads = len(completion)
    accesses = [0] * num_threads
    hits = [0] * num_threads
    misses = [0] * num_threads
    bypasses = [0] * num_threads
    for position, access in enumerate(trace, position_offset):
        outcome = cache.access(access)
        thread = access.thread_id
        if position >= completion[thread]:
            continue
        accesses[thread] += 1
        if outcome.hit:
            hits[thread] += 1
        else:
            misses[thread] += 1
            if outcome.bypassed:
                bypasses[thread] += 1
    return [accesses, hits, misses, bypasses]


def run_shared_llc(
    traces: list[Trace],
    policy,
    geometry: CacheGeometry,
    timing: TimingModel | None = None,
    singles: list[float] | None = None,
    name: str = "mix",
    engine: str = "vector",
    chunk_size: int | None = None,
    manifest_dir: str | os.PathLike | None = None,
    run_label: str | None = None,
    run_meta: dict | None = None,
    window_size: int | None = None,
) -> MultiCoreResult:
    """Run a multi-programmed mix on a shared LLC under ``policy``.

    Args:
        traces: one per-thread trace (addresses are given private spaces).
        policy: fresh thread-aware policy instance for the shared LLC.
        geometry: shared LLC shape.
        singles: stand-alone LRU IPCs (computed here when omitted).
        engine: "vector" (set-batched columnar kernels, the default),
            "fast" (batched per-access kernel) or "reference"
            (per-Access loop); all produce identical per-thread
            statistics. ``"vector"`` runs a policy the columnar tier
            vectorizes (LRU, PDP, PD partitioning with a recompute
            interval that cannot freeze its counters) set-batched
            between freeze cuts, and any other policy (TA-DRRIP, UCP,
            PIPP, class-based PDP) on ``"fast"``, as
            :func:`repro.memory.columnar.engine_tier` decides; the
            manifest's ``engine_ran`` records the tier. The stand-alone
            baselines computed here use the same engine.
        chunk_size: when set, feed the interleaved mix to the engine in
            zero-copy chunks of this many accesses, summing the
            per-thread counters — identical statistics to the one-shot
            call (the streaming contract of
            :func:`repro.sim.single_core.run_llc`, applied to the
            interleaved stream).
        manifest_dir: when set, write a provenance manifest (kind
            ``"shared_llc"``) for this run — explicit only, never read
            from the environment (see :func:`repro.sim.single_core.run_llc`).
        run_label: display label recorded in the manifest (e.g. the
            (mix, policy) grid key); defaults to the policy class name.
        run_meta: extra JSON-native manifest context; a ``seed`` key is
            lifted into the manifest's ``seed`` field.
        window_size: when set, record per-window statistics over the
            interleaved stream with a default-budget
            :class:`repro.obs.timeseries.WindowedRecorder` of this window
            size, including per-thread ``thread_accesses``/
            ``thread_hits``/... shares that honour the freeze rule (a
            finished thread stops contributing). Windows are
            bit-identical across engines and chunk sizes; the payload
            lands in ``result.extra["timeseries"]`` and the manifest.
    """
    _check_engine(engine)
    recorder = None if window_size is None else WindowedRecorder(window_size)
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    timing = timing or TimingModel()
    start = perf_counter()
    num_threads = len(traces)
    if singles is None:
        singles = single_thread_baselines(traces, geometry, timing, engine=engine)
    mixed, completion = interleave_traces(traces)
    cache = SetAssociativeCache(geometry, policy)
    tier = engine_tier(cache, engine)
    if recorder is not None:
        recorder.attach(cache, policy, num_threads=num_threads)

    if tier == "reference":
        simulate = _reference_shared_slice
    elif tier == "vector":
        simulate = run_shared_trace_vector
    else:
        simulate = run_shared_trace
    accesses, hits, misses, bypasses = totals = [
        [0] * num_threads for _ in range(4)
    ]
    feed = _WindowFeed(recorder, chunk_limit=chunk_size)
    begin = 0
    for sub, take in feed.slices(mixed):
        part = simulate(cache, sub, completion, position_offset=begin)
        for total, counts in zip(totals, part):
            for thread, count in enumerate(counts):
                total[thread] += count
        feed.account(take, part)
        begin += take
    feed.finish()

    outcomes: list[ThreadOutcome] = []
    for thread in range(num_threads):
        instructions = int(
            round(accesses[thread] * traces[thread].instructions_per_access)
        )
        ipc = timing.ipc(
            instructions,
            l2_hits=0,
            llc_hits=hits[thread],
            memory_accesses=misses[thread],
        )
        outcomes.append(
            ThreadOutcome(
                accesses=accesses[thread],
                hits=hits[thread],
                misses=misses[thread],
                bypasses=bypasses[thread],
                instructions=instructions,
                ipc=ipc,
            )
        )

    ipcs = [outcome.ipc for outcome in outcomes]
    result = MultiCoreResult(
        name=name,
        threads=outcomes,
        weighted=weighted_ipc(ipcs, singles),
        throughput=throughput(ipcs),
        hmean=harmonic_mean_normalized_ipc(ipcs, singles),
        extra={"singles": singles},
    )
    if recorder is not None:
        result.extra["timeseries"] = recorder.to_dict()
    if manifest_dir is not None:
        Manifest.for_run(
            "shared_llc",
            name,
            type(policy).__name__,
            perf_counter() - start,
            len(mixed),
            run_meta,
            engine=engine,
            engine_ran=tier,
            label=run_label,
            config={**_geometry_config(geometry), "threads": num_threads},
            trace_fingerprint=trace_fingerprint(mixed),
            stats={
                "threads": [asdict(t) for t in outcomes],
                "singles": list(singles),
            },
            metrics={
                "weighted": result.weighted,
                "throughput": result.throughput,
                "hmean": result.hmean,
            },
            timeseries=result.extra.get("timeseries", {}),
        ).save(manifest_dir)
    return result


__all__ = ["MultiCoreResult", "ThreadOutcome", "run_shared_llc", "single_thread_baselines"]
