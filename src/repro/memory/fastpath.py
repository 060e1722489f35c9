"""Batched access kernel — the fast path under ``run_llc``/``run_hierarchy``.

:func:`run_trace` is semantically identical to::

    for access in trace:
        cache.access(access)

but avoids the per-access costs of the reference loop: it walks the
trace's columnar numpy arrays as plain Python ints (one bulk ``tolist``
instead of per-element numpy scalar boxing), reuses a single mutable
:class:`ScratchAccess` record instead of allocating a frozen
:class:`repro.types.Access` per element, resolves hits through the
cache's per-set ``{tag: way}`` index instead of an O(ways) scan, turns
the set-index/tag split into mask/shift (set counts are powers of two),
elides hooks a policy inherits as base-class no-ops, skips
``AccessResult`` construction entirely, and only dispatches to observers
when ``cache.observers`` is non-empty. Uniform pc / thread-id columns
(every single-program trace) collapse to a lean address-only loop.
Statistics are accumulated in locals and flushed to ``cache.stats`` once
at the end.

Policies see the exact same hook sequence with the exact same values as
under the reference loop, so any :class:`ReplacementPolicy` works
unchanged; ``tests/test_fastpath.py`` pins the equivalence for every
shipped policy. The one observable difference: hooks that inspect
``cache.stats`` mid-run would see pre-run counters (no shipped policy or
observer does).

The kernel relies on two invariants the cache maintains: a set's valid
ways form the prefix ``[0, len(tag_index))`` (lines are only invalidated
wholesale), and at most one valid line per (set, tag).
"""

from __future__ import annotations

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


def _is_uniform(column: np.ndarray) -> bool:
    return len(column) == 0 or bool((column[0] == column).all())


def _hook_or_none(policy, name: str):
    """The bound hook, or None when the policy inherits the base no-op
    (a None test per access is far cheaper than an empty call)."""
    if getattr(type(policy), name) is getattr(ReplacementPolicy, name):
        return None
    return getattr(policy, name)


def run_trace(cache, trace) -> None:
    """Drive every access of ``trace`` through ``cache``, batched.

    Metrics: when the process-wide registry is enabled this records one
    ``fastpath.run_trace_s`` histogram observation and a
    ``fastpath.accesses`` counter increment per call — the check is per
    *run*, so the disabled mode adds no per-access work (the 2%-overhead
    budget of BENCH_engine.json).
    """
    obs_enabled = METRICS.enabled
    obs_start = perf_counter() if obs_enabled else 0.0
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

    addresses = trace.addresses.tolist()
    n = len(addresses)
    uniform = _is_uniform(trace.pcs) and _is_uniform(trace.thread_ids)
    scratch = ScratchAccess()
    if uniform and n:
        scratch.pc = int(trace.pcs[0])
        scratch.thread_id = int(trace.thread_ids[0])
    # ``accesses`` is n and ``misses = n - hits``, ``fills = misses -
    # bypasses``; only hits / bypasses / evictions need counting.
    hits = bypasses = evictions = 0

    # Two copies of the identical per-access body: the uniform-column
    # loop iterates bare addresses; the mixed-column loop zips pc and
    # thread-id streams in and re-points the scratch record. Keep them
    # in lockstep when editing (tests/test_fastpath.py covers both).
    if uniform:
        tid = scratch.thread_id
        for address in addresses:
            scratch.address = address
            set_index = address & set_mask
            tag = address >> set_shift
            count = set_accesses[set_index] + 1
            set_accesses[set_index] = count
            if on_access is not None:
                on_access(set_index, scratch)

            index = tag_index[set_index]
            way = index.get(tag)
            if way is not None:
                hits += 1
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
                    bypasses += 1
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
            if observers:
                for observer in observers:
                    observer.on_fill(set_index, address)
    else:
        pcs = iter(trace.pcs.tolist())
        tids = iter(trace.thread_ids.tolist())
        for address, pc, tid in zip(addresses, pcs, tids):
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
                hits += 1
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
                    bypasses += 1
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
            if observers:
                for observer in observers:
                    observer.on_fill(set_index, address)

    misses = n - hits
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += misses
    stats.bypasses += bypasses
    stats.evictions += evictions
    stats.fills += misses - bypasses
    if obs_enabled:
        METRICS.observe("fastpath.run_trace_s", perf_counter() - obs_start)
        METRICS.inc("fastpath.accesses", n)


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
    stat-freezing rule (Sec. 5).

    ``position_offset`` is the absolute position of ``trace``'s first
    access within the full interleaved run — pass the chunk's start
    index when feeding the mix in chunks, so the freeze comparison stays
    against absolute completion positions. The chunked caller sums the
    returned per-thread counters across chunks; the result is identical
    to one whole-trace call (``tests/test_conformance.py``).

    Returns ``[accesses, hits, misses, bypasses]``, each a
    per-thread list of frozen counters. Global ``cache.stats`` covers the
    *whole* run (frozen portion included), exactly as under the
    reference loop. Metrics follow the :func:`run_trace` contract (one
    ``fastpath.run_shared_trace_s`` observation per call).
    """
    obs_enabled = METRICS.enabled
    obs_start = perf_counter() if obs_enabled else 0.0
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

    num_threads = len(completion)
    t_accesses = [0] * num_threads
    t_hits = [0] * num_threads
    t_misses = [0] * num_threads
    t_bypasses = [0] * num_threads

    addresses = trace.addresses.tolist()
    n = len(addresses)
    pcs = iter(trace.pcs.tolist())
    tids = iter(trace.thread_ids.tolist())
    scratch = ScratchAccess()
    hits = bypasses = evictions = 0

    # Same per-access body as run_trace's mixed-column loop (keep them in
    # lockstep when editing), with per-thread counting at each of the
    # three terminal outcomes. An access at ``position`` counts for its
    # thread iff ``position < completion[tid]`` — equivalent to the
    # reference loop's freeze-after-counting rule.
    position = position_offset - 1
    for address, pc, tid in zip(addresses, pcs, tids):
        position += 1
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
            hits += 1
            row_start = interval_start[set_index]
            if observers:
                occupancy = count - row_start[way]
            reused[set_index][way] = True
            row_start[way] = count
            on_hit(set_index, way, scratch)
            if observers:
                for observer in observers:
                    observer.on_hit(set_index, address, occupancy)
            if position < completion[tid]:
                t_accesses[tid] += 1
                t_hits[tid] += 1
            continue

        row_tags = tags[set_index]
        if len(index) < ways:
            way = len(index)  # lowest-numbered invalid way
            valid[set_index][way] = True
        else:
            way = choose_victim(set_index, scratch)
            if way is None:
                bypasses += 1
                if on_bypass is not None:
                    on_bypass(set_index, scratch)
                if observers:
                    for observer in observers:
                        observer.on_bypass(set_index, address)
                if position < completion[tid]:
                    t_accesses[tid] += 1
                    t_misses[tid] += 1
                    t_bypasses[tid] += 1
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
        if observers:
            for observer in observers:
                observer.on_fill(set_index, address)
        if position < completion[tid]:
            t_accesses[tid] += 1
            t_misses[tid] += 1

    misses = n - hits
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += misses
    stats.bypasses += bypasses
    stats.evictions += evictions
    stats.fills += misses - bypasses
    if obs_enabled:
        METRICS.observe("fastpath.run_shared_trace_s", perf_counter() - obs_start)
        METRICS.inc("fastpath.accesses", n)
    return [t_accesses, t_hits, t_misses, t_bypasses]


def run_hierarchy_trace(hierarchy, trace) -> None:
    """Drive a trace through a :class:`CacheHierarchy` without per-access
    ``Access`` allocation (the per-level caches still use their normal
    access path, which the tag index already accelerates)."""
    access = hierarchy.access
    addresses = trace.addresses.tolist()
    n = len(addresses)
    scratch = ScratchAccess()
    if _is_uniform(trace.pcs) and _is_uniform(trace.thread_ids):
        if n:
            scratch.pc = int(trace.pcs[0])
            scratch.thread_id = int(trace.thread_ids[0])
        for scratch.address in addresses:
            access(scratch)
    else:
        pcs = iter(trace.pcs.tolist())
        tids = iter(trace.thread_ids.tolist())
        for scratch.address, scratch.pc, scratch.thread_id in zip(
            addresses, pcs, tids
        ):
            access(scratch)


__all__ = ["ScratchAccess", "run_hierarchy_trace", "run_shared_trace", "run_trace"]
