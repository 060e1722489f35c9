"""Batched access kernel — the fast path under ``run_llc`` and ``run_shared_llc``.

:func:`run_trace` is semantically identical to::

    for access in trace:
        cache.access(access)

but avoids the per-access costs of the reference loop: it walks the
trace's columnar numpy arrays as plain Python ints (one bulk ``tolist``
instead of per-element numpy scalar boxing; a uniform pc or thread-id
column, as in every single-program trace, is an ``itertools.repeat``),
reuses a single mutable :class:`ScratchAccess` record instead of
allocating a frozen :class:`repro.types.Access` per element, resolves
hits through the cache's per-set ``{tag: way}`` index instead of an
O(ways) scan, turns the set-index/tag split into mask/shift (set counts
are powers of two), elides hooks a policy inherits as base-class no-ops,
skips ``AccessResult`` construction entirely, and only dispatches to
observers when ``cache.observers`` is non-empty. Hits and bypasses are
counted per thread, and ``cache.stats`` is updated once per call.

Every kernel here runs one per-access loop, :func:`_run_slice`. Two
wrappers take any runner with its slice contract, and the columnar tier
passes them its set-batched kernels. :func:`run_whole_trace` runs the
whole trace as one slice and flushes ``cache.stats``; :func:`run_trace`
is it around :func:`_run_slice`. :func:`run_frozen_segments` applies
the paper's stat-freeze rule (Sec. 5): it cuts its slice at the
completion positions that fall inside it and credits each segment's
per-thread counts only to the threads still running at the segment's
start; :func:`run_shared_trace` is it around :func:`_run_slice`.

Policies see the exact same hook sequence with the exact same values as
under the reference loop, so any :class:`ReplacementPolicy` works
unchanged; ``tests/test_fastpath.py`` pins the equivalence for every
shipped policy. The one observable difference: hooks that inspect
``cache.stats`` mid-run would see pre-run counters (no shipped policy or
observer does).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.memory.cache import log2_int
from repro.obs.metrics import METRICS
from repro.policies.base import ReplacementPolicy
from repro.types import AccessType


class ScratchAccess:
    """Mutable stand-in for :class:`repro.types.Access`, reused per run.

    Policies only read ``address`` / ``pc`` / ``kind`` / ``thread_id``
    inside their hook invocations, so one record can be re-pointed at
    every trace element without per-access allocation.
    """

    __slots__ = ("address", "pc", "kind", "thread_id")

    def __init__(
        self,
        address: int = 0,
        pc: int = 0,
        kind: AccessType = AccessType.READ,
        thread_id: int = 0,
    ) -> None:
        self.address = address
        self.pc = pc
        self.kind = kind
        self.thread_id = thread_id


def _column(values: np.ndarray):
    """``values`` as an iterable of Python ints: an ``itertools.repeat``
    when the column is uniform (cheaper than materialising it), else
    one bulk ``tolist``."""
    if len(values) and bool((values[0] == values).all()):
        return repeat(int(values[0]), len(values))
    return values.tolist()


def _hook_or_none(policy, name: str):
    """The bound hook, or None when the policy inherits the base no-op
    (a None test per access is far cheaper than an empty call)."""
    if getattr(type(policy), name) is getattr(ReplacementPolicy, name):
        return None
    return getattr(policy, name)


def _run_slice(cache, trace, t_hits, t_bypasses) -> int:
    """Drive every access of ``trace`` through ``cache``: the one
    per-access loop of this module.

    Each hit adds one to ``t_hits[tid]`` and each bypass one to
    ``t_bypasses[tid]`` for the accessing thread ``tid``, so both must
    hold a slot for every thread id in ``trace``. Returns the number of
    evictions. ``cache.stats`` is left untouched; the caller flushes it.

    Hook order per access, as in ``SetAssociativeCache.access``:
    ``on_access``, then either ``on_hit``, or ``choose_victim`` (when
    the set is full) followed by ``on_bypass`` or ``on_evict`` then
    ``on_fill``; observers fire after the matching policy hook, and a
    fill has no observer event. The loop relies on two invariants the
    cache maintains: a set's valid ways form the prefix
    ``[0, len(tag_index))`` (lines are only invalidated wholesale), so
    the lowest invalid way is ``len(tag_index)``; and at most one valid
    line per (set, tag).
    """
    geometry = cache.geometry
    num_sets = geometry.num_sets
    set_mask = num_sets - 1
    set_shift = log2_int(num_sets)
    ways = geometry.ways
    policy = cache.policy
    on_access = _hook_or_none(policy, "on_access")
    on_hit = policy.on_hit
    choose_victim = policy.choose_victim
    on_evict = _hook_or_none(policy, "on_evict")
    on_fill = policy.on_fill
    on_bypass = _hook_or_none(policy, "on_bypass")
    tags = cache.tags
    valid = cache.valid
    reused = cache.reused
    owner = cache.owner
    set_accesses = cache.set_accesses
    interval_start = cache._interval_start
    tag_index = cache._tag_index
    observers = cache.observers
    occupancy = 0
    evictions = 0
    scratch = ScratchAccess()

    for address, pc, tid in zip(
        trace.addresses.tolist(), _column(trace.pcs), _column(trace.thread_ids)
    ):
        scratch.address = address
        scratch.pc = pc
        scratch.thread_id = tid
        set_index = address & set_mask
        tag = address >> set_shift
        count = set_accesses[set_index] + 1
        set_accesses[set_index] = count
        if on_access is not None:
            on_access(set_index, scratch)

        index = tag_index[set_index]
        way = index.get(tag)
        if way is not None:
            t_hits[tid] += 1
            row_start = interval_start[set_index]
            if observers:
                occupancy = count - row_start[way]
            reused[set_index][way] = True
            row_start[way] = count
            on_hit(set_index, way, scratch)
            if observers:
                for observer in observers:
                    observer.on_hit(set_index, address, occupancy)
            continue

        row_tags = tags[set_index]
        if len(index) < ways:
            way = len(index)  # lowest-numbered invalid way
            valid[set_index][way] = True
        else:
            way = choose_victim(set_index, scratch)
            if way is None:
                t_bypasses[tid] += 1
                if on_bypass is not None:
                    on_bypass(set_index, scratch)
                if observers:
                    for observer in observers:
                        observer.on_bypass(set_index, address)
                continue
            old_tag = row_tags[way]
            evictions += 1
            if observers:
                evicted_address = old_tag * num_sets + set_index
                occupancy = count - interval_start[set_index][way]
                was_reused = reused[set_index][way]
            if on_evict is not None:
                on_evict(set_index, way, scratch)
            if observers:
                for observer in observers:
                    observer.on_evict(
                        set_index, evicted_address, occupancy, was_reused
                    )
            del index[old_tag]

        row_tags[way] = tag
        reused[set_index][way] = False
        owner[set_index][way] = tid
        interval_start[set_index][way] = count
        index[tag] = way
        on_fill(set_index, way, scratch)
    return evictions


def _thread_slots(thread_ids: np.ndarray):
    """Zeroed per-thread counters for :func:`run_trace`, with a slot for
    every id in ``thread_ids`` (a Trace accepts any int64 id).

    When the ids fit a list no longer than the trace, the slots are a
    list indexed by id: a negative id indexes from its end, so two ids
    may share a slot, which is harmless because only the sum is read.
    Wider ids get a dict keyed by each distinct id.
    """
    n = len(thread_ids)
    size = max(int(thread_ids.max()) + 1, -int(thread_ids.min())) if n else 0
    if size <= n:
        return [0] * size
    return dict.fromkeys(np.unique(thread_ids).tolist(), 0)


def _total(slots) -> int:
    """The sum of a :func:`_thread_slots` result."""
    return sum(slots.values() if isinstance(slots, dict) else slots)


def _flush_stats(cache, accesses: int, hits: int, bypasses: int, evictions: int):
    """Add one run's totals to ``cache.stats`` (``misses = accesses -
    hits``, ``fills = misses - bypasses``)."""
    misses = accesses - hits
    stats = cache.stats
    stats.accesses += accesses
    stats.hits += hits
    stats.misses += misses
    stats.bypasses += bypasses
    stats.evictions += evictions
    stats.fills += misses - bypasses


def run_whole_trace(cache, trace, run_slice, tier: str = "fastpath") -> None:
    """Drive ``trace`` through ``run_slice`` as one slice and add its
    totals to ``cache.stats``: the whole-trace wrapper of the ``fast``
    tier (:func:`_run_slice`) and the ``vector`` tier (its columnar
    kernel), both under the :func:`_run_slice` contract.

    Metrics: when the registry is enabled, one ``<tier>.run_trace_s``
    observation and one ``<tier>.accesses`` increment per call; the
    check is per *run*, so the disabled mode adds no per-access work
    (the 2%-overhead budget of BENCH_engine.json).
    """
    obs_enabled = METRICS.enabled
    obs_start = perf_counter() if obs_enabled else 0.0
    t_hits = _thread_slots(trace.thread_ids)
    t_bypasses = t_hits.copy()
    evictions = run_slice(trace, t_hits, t_bypasses)
    n = len(trace)
    _flush_stats(cache, n, _total(t_hits), _total(t_bypasses), evictions)
    if obs_enabled:
        METRICS.observe(f"{tier}.run_trace_s", perf_counter() - obs_start)
        METRICS.inc(f"{tier}.accesses", n)


def run_trace(cache, trace) -> None:
    """Drive every access of ``trace`` through ``cache``, batched:
    :func:`run_whole_trace` around :func:`_run_slice`, recording the
    ``fastpath.*`` metrics."""
    run_whole_trace(cache, trace, partial(_run_slice, cache))


def run_frozen_segments(
    cache, trace, completion: list[int], position_offset: int, run_segment,
    tier: str = "fastpath",
) -> list[list[int]]:
    """The paper's stat-freeze rule (Sec. 5), for any per-segment runner.

    ``run_segment(segment, t_hits, t_bypasses)`` drives one slice of
    ``trace`` through ``cache`` with the :func:`_run_slice` contract:
    it adds each hit and bypass to the accessing thread's slot, leaves
    ``cache.stats`` alone and returns the evictions. The ``fast`` tier
    passes :func:`_run_slice`, the ``vector`` tier its columnar kernel.

    The freeze is a segment split, not a per-access test: the slice is
    cut at every completion position strictly inside it (at most
    ``len(completion)`` cuts) and ``run_segment`` runs once per segment.
    No completion lies strictly inside a segment, so a thread counts
    either every access of the segment or none: its counts are credited
    iff its completion lies beyond the segment's start. Per-thread
    accesses are a ``np.bincount`` of the segment's thread ids, and
    misses are accesses minus hits. ``cache.stats`` gets the whole
    slice, frozen portion included.

    Returns ``[accesses, hits, misses, bypasses]``, each a per-thread
    list of frozen counters. Metrics follow :func:`run_whole_trace`:
    one ``<tier>.run_shared_trace_s`` observation and a
    ``<tier>.accesses`` increment per call.
    """
    obs_enabled = METRICS.enabled
    obs_start = perf_counter() if obs_enabled else 0.0
    num_threads = len(completion)
    n = len(trace)
    totals = [[0] * num_threads for _ in range(4)]
    accesses, hits, misses, bypasses = totals
    all_hits = all_bypasses = evictions = 0

    cuts = {c - position_offset for c in completion if 0 < c - position_offset < n}
    bounds = [0, *sorted(cuts), n]
    for start, stop in zip(bounds, bounds[1:]):
        segment = trace.slice(start, stop)
        t_hits = [0] * num_threads
        t_bypasses = [0] * num_threads
        evictions += run_segment(segment, t_hits, t_bypasses)
        all_hits += sum(t_hits)
        all_bypasses += sum(t_bypasses)
        t_accesses = np.bincount(segment.thread_ids, minlength=num_threads).tolist()
        position = position_offset + start
        for tid in range(num_threads):
            if position < completion[tid]:
                accesses[tid] += t_accesses[tid]
                hits[tid] += t_hits[tid]
                misses[tid] += t_accesses[tid] - t_hits[tid]
                bypasses[tid] += t_bypasses[tid]

    _flush_stats(cache, n, all_hits, all_bypasses, evictions)
    if obs_enabled:
        METRICS.observe(f"{tier}.run_shared_trace_s", perf_counter() - obs_start)
        METRICS.inc(f"{tier}.accesses", n)
    return totals


def run_shared_trace(
    cache, trace, completion: list[int], position_offset: int = 0
) -> list[list[int]]:
    """Drive an interleaved multi-thread trace through ``cache``, batched,
    accumulating per-thread statistics with stat freezing.

    The multi-core counterpart of :func:`run_trace`: semantically
    identical to the reference loop in
    :func:`repro.sim.multi_core.run_shared_llc` (``cache.access`` per
    element plus per-thread counting), for a trace produced by
    :func:`repro.workloads.mixes.interleave_traces`. ``completion[t]`` is
    the position in the interleaved trace at which thread ``t`` finished
    its first pass; accesses at positions ``>= completion[t]`` still hit
    the cache (the thread keeps pressuring it after rewinding) but no
    longer count toward thread ``t``'s statistics — the paper's
    stat-freezing rule (Sec. 5), applied by :func:`run_frozen_segments`
    around :func:`_run_slice`.

    ``position_offset`` is the absolute position of ``trace``'s first
    access within the full interleaved run — pass the chunk's start
    index when feeding the mix in chunks, so the cuts fall at absolute
    completion positions. The chunked caller sums the returned
    per-thread counters across chunks; the result is identical to one
    whole-trace call (``tests/test_conformance.py``).

    Returns what :func:`run_frozen_segments` returns (per-thread frozen
    counters; ``cache.stats`` covers the *whole* run, as under the
    reference loop) and records its ``fastpath.*`` metrics.
    """
    return run_frozen_segments(
        cache, trace, completion, position_offset, partial(_run_slice, cache)
    )


__all__ = [
    "ScratchAccess",
    "run_frozen_segments",
    "run_shared_trace",
    "run_trace",
    "run_whole_trace",
]
