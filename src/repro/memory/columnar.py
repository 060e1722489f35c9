"""Columnar set-batched engine — the ``engine="vector"`` tier.

:func:`run_trace_vector` is the third engine behind the drivers'
``engine=`` seam (reference → fast → vector). Like
:func:`repro.memory.fastpath.run_trace` it is semantically identical to
``for access in trace: cache.access(access)``, but instead of resolving
the trace in arrival order it *groups a chunk by set index* (one stable
numpy argsort + one bulk ``tolist``) and replays each set's subsequence
through a policy-specialized kernel with every per-access Python hook
call eliminated. Sets are independent under every vectorized policy, so
the grouped replay reaches the exact same final state, statistics,
eviction decisions and windowed time-series as the reference loop —
``tests/test_conformance.py`` and ``tests/test_columnar.py`` pin this,
including invariance under arbitrary permutations of the set-batch
processing order.

Vectorized policies (exact types; subclasses keep the fast path): LRU,
PDP — static and dynamic — and PD partitioning
(:class:`~repro.partitioning.pd_partition.PDPartitionPolicy`), the only
policies the figures and benchmarks run on this tier. Everything else
falls back per-policy to the fast path, with identical results, which is
what lets ``run_llc``/``run_matrix`` and the shared-LLC drivers default
to ``engine="vector"`` safely:

- FIFO, MRU and SRRIP are set-local and could be vectorized, but no
  figure, benchmark or CLI default runs them, so they keep the fast path.
- BRRIP/DRRIP and TA-DRRIP (and the random policy) consume a shared RNG
  / set-dueling PSEL in *global fill order*, which set grouping would
  reorder — they cannot be vectorized bit-identically. UCP and PIPP
  repartition from global access counts and shared utility monitors,
  so they keep the fast path too.
- Dynamic PDP is vectorized only when
  ``recompute_interval <= counter_max`` (65535 with the paper's 16-bit
  counters): within one recompute epoch no class's RD counters can then
  saturate, so the order-dependent freeze rule of
  :class:`repro.core.rdd.RDCounterArray` can never fire mid-epoch and
  batched counter accumulation is exact. The paper-scale 512K interval
  (which *does* rely on freezing) keeps the fast path.

The PDP kernel runs on the policy's own expiry representation (see
:mod:`repro.core.pdp_policy`): with ``T`` the set's tick count, a line
whose RPD was set to ``v`` at tick ``T0`` is protected exactly while
``T < T0 + v``, so the policy stores ``expiry = T0 + v``, the O(ways)
decrement is a single ``T += 1`` and victim selection is a scan for
``expiry <= T``. A cached per-set lower bound on the minimum expiry
short-circuits the all-protected case (the common one under bypass) to
O(1). The kernel copies each touched set's tick back at the end of every
call, so :meth:`~repro.core.pdp_policy.PDPPolicy.protected_count` and
windowed recorders observe exactly the reference values at every window
boundary. An access's class is ``thread_id % num_classes`` — one class
for PDP, one per thread for PD partitioning — and picks the PD its line
is protected with and the RD counter array its sampled distance lands in.

Dynamic PDP splits each call at the same absolute recompute epochs as
the reference: the sampler FIFOs and RD counters are fed set-grouped
(their state is per-set and the counter sums commute), and
``PDEngine.recompute`` fires at the exact access positions the
per-access loop would trigger it — ``pd_history`` is bit-identical.

The shared-LLC path, :func:`run_shared_trace_vector`, is the same kernel
under :func:`repro.memory.fastpath.run_frozen_segments`: the interleaved
mix is cut at each thread's completion position, each segment is
set-batched on its own, and the kernel counts hits and bypasses per
thread, so each thread's frozen statistics match the reference loop.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import log2_int
from repro.memory.fastpath import (
    _flush_stats,
    _run_slice,
    _thread_slots,
    _total,
    run_frozen_segments,
    run_trace,
)
from repro.obs.metrics import METRICS
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.policies.lru import LRUPolicy


class _FallbackKernel:
    """Cached dispatch decision for a policy with no vector kernel:
    every chunk goes straight to the fast path."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.policy = cache.policy

    def run(self, trace, set_order=None) -> None:
        """Delegate to :func:`repro.memory.fastpath.run_trace`."""
        run_trace(self.cache, trace)

    def run_slice(self, trace, t_hits, t_bypasses, set_order=None) -> int:
        """Delegate to the fast path's per-access loop."""
        return _run_slice(self.cache, trace, t_hits, t_bypasses)


def _group_by_set(set_ids: np.ndarray):
    """Stable set grouping of one (sub-)chunk.

    Returns ``(order, group_sets, starts, ends)``: ``order`` is the
    stable argsort permutation; group ``g`` covers sorted positions
    ``starts[g]:ends[g]`` and belongs to set ``group_sets[g]``. Stability
    preserves each set's arrival-order subsequence, which is all a
    set-local policy can observe.
    """
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order]
    boundaries = np.flatnonzero(sorted_sets[1:] != sorted_sets[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    ends = np.concatenate((boundaries, np.asarray([len(sorted_sets)])))
    return order, sorted_sets[starts].tolist(), starts.tolist(), ends.tolist()


class _SetBatchKernel:
    """Base vector kernel: grouping, stats flushing, common layout.

    Subclasses implement ``_run_set(set_index, tags, tids)`` — the
    policy-specialized replay of one set's subsequence, mutating the
    cache's own per-set rows (``tags``/``valid``/``reused``/``owner``/
    ``_interval_start``/``_tag_index``) and the policy's own per-set
    state so that no separate write-back is needed and any engine can
    take over on the next chunk.
    """

    def __init__(self, cache) -> None:
        self.cache = cache
        self.policy = cache.policy
        geometry = cache.geometry
        self.num_sets = geometry.num_sets
        self.set_mask = self.num_sets - 1
        self.set_shift = log2_int(self.num_sets)
        self.ways = geometry.ways
        self.observers = cache.observers
        self.hits = 0
        self.bypasses = 0
        self.evictions = 0
        self._tid0 = 0
        self._t_hits = self._t_bypasses = None

    @classmethod
    def supports(cls, policy) -> bool:
        """Whether this kernel can run ``policy`` bit-identically."""
        return True

    def run(self, trace, set_order=None) -> None:
        """Drive every access of ``trace`` through the cache, set-batched,
        and add the run's totals to ``cache.stats``.

        ``set_order`` optionally fixes the order in which set batches are
        replayed (any permutation covering the sets present in the
        chunk); the default is ascending set index. The end state is
        identical either way — the permutation hook exists so tests can
        assert exactly that.
        """
        n = len(trace)
        if n == 0:
            return
        obs_enabled = METRICS.enabled
        obs_start = perf_counter() if obs_enabled else 0.0
        t_hits = _thread_slots(trace.thread_ids)
        t_bypasses = t_hits.copy()
        evictions = self.run_slice(trace, t_hits, t_bypasses, set_order)
        _flush_stats(self.cache, n, _total(t_hits), _total(t_bypasses), evictions)
        if obs_enabled:
            METRICS.observe("columnar.run_trace_s", perf_counter() - obs_start)
            METRICS.inc("columnar.accesses", n)

    def run_slice(self, trace, t_hits, t_bypasses, set_order=None) -> int:
        """Replay ``trace`` set-batched under the fast path's slice
        contract (:func:`repro.memory.fastpath._run_slice`).

        Each hit adds one to ``t_hits[tid]`` and each bypass one to
        ``t_bypasses[tid]`` for the accessing thread ``tid``; the
        evictions are returned and ``cache.stats`` is left to the
        caller. Kernel-private state is written back before returning,
        so the policy is reference-identical between slices.
        """
        n = len(trace)
        if n == 0:
            return 0
        addresses = trace.addresses
        set_ids = addresses & self.set_mask
        tags = addresses >> self.set_shift
        thread_ids = trace.thread_ids
        if bool((thread_ids[0] == thread_ids).all()):
            self._tid0 = int(thread_ids[0])
            tids = None
        else:
            tids = thread_ids
        self.hits = self.bypasses = self.evictions = 0
        self._t_hits = t_hits
        self._t_bypasses = t_bypasses
        self._drive(set_ids, tags, tids, 0, n, set_order)
        if self.hits or self.bypasses:
            # Only single-thread slices count into the scalars.
            t_hits[self._tid0] += self.hits
            t_bypasses[self._tid0] += self.bypasses
        self._sync()
        return self.evictions

    def _drive(self, set_ids, tags, tids, lo, hi, set_order) -> None:
        """Replay accesses ``[lo, hi)``; one segment for static policies
        (the dynamic-PDP kernel overrides this with epoch splitting)."""
        self._resolve_range(set_ids, tags, tids, lo, hi, set_order)

    def _resolve_range(self, set_ids, tags, tids, lo, hi, set_order) -> None:
        """Group ``[lo, hi)`` by set and replay each batch."""
        order, group_sets, starts, ends = _group_by_set(set_ids[lo:hi])
        sorted_tags = tags[lo:hi][order].tolist()
        sorted_tids = None if tids is None else tids[lo:hi][order].tolist()
        if set_order is None:
            groups = range(len(group_sets))
        else:
            remaining = {s: g for g, s in enumerate(group_sets)}
            groups = [
                remaining.pop(s) for s in set_order if s in remaining
            ]
            if remaining:
                raise ValueError(
                    f"set_order misses sets present in the chunk: "
                    f"{sorted(remaining)}"
                )
        run_set = self._run_set
        for g in groups:
            a, b = starts[g], ends[g]
            run_set(
                group_sets[g],
                sorted_tags[a:b],
                None if sorted_tids is None else sorted_tids[a:b],
            )

    def _sync(self) -> None:
        """Write kernel-private state back into policy-visible storage
        (no-op for kernels operating directly on policy state)."""


class _LRUKernel(_SetBatchKernel):
    """LRU replay on the policy's own per-set recency lists."""

    def _run_set(self, s, tag_seq, tid_seq) -> None:
        """Replay set ``s``'s subsequence on ``policy._order[s]``.

        Invariant: the recency list is a permutation of all ways, least
        recently touched first. Every hit and fill moves its way to the
        tail, so a full set's victim is always ``order_row[0]``; while the
        set fills, ways go in index order, exactly like the reference's
        lowest-invalid-way fill.
        """
        cache = self.cache
        index = cache._tag_index[s]
        row_tags = cache.tags[s]
        valid_row = cache.valid[s]
        reused_row = cache.reused[s]
        owner_row = cache.owner[s]
        start_row = cache._interval_start[s]
        order_row = self.policy._order[s]
        observers = self.observers
        ways = self.ways
        num_sets = self.num_sets
        set_shift = self.set_shift
        get = index.get
        count = cache.set_accesses[s]
        evictions = 0
        t_hits = self._t_hits
        tid_seq = repeat(self._tid0) if tid_seq is None else tid_seq
        for tag, tid in zip(tag_seq, tid_seq):
            count += 1
            way = get(tag)
            if way is not None:
                t_hits[tid] += 1
                if observers:
                    occupancy = count - start_row[way]
                reused_row[way] = True
                start_row[way] = count
                if order_row[-1] != way:
                    order_row.remove(way)
                    order_row.append(way)
                if observers:
                    address = (tag << set_shift) | s
                    for observer in observers:
                        observer.on_hit(s, address, occupancy)
                continue
            filled = len(index)
            if filled < ways:
                way = filled  # lowest-numbered invalid way
                valid_row[way] = True
            else:
                way = order_row[0]
                old_tag = row_tags[way]
                evictions += 1
                if observers:
                    evicted_address = old_tag * num_sets + s
                    occupancy = count - start_row[way]
                    was_reused = reused_row[way]
                    for observer in observers:
                        observer.on_evict(
                            s, evicted_address, occupancy, was_reused
                        )
                del index[old_tag]
            row_tags[way] = tag
            reused_row[way] = False
            owner_row[way] = tid
            start_row[way] = count
            index[tag] = way
            if order_row[-1] != way:
                order_row.remove(way)
                order_row.append(way)
        cache.set_accesses[s] = count
        self.evictions += evictions


class _PDPKernel(_SetBatchKernel):
    """PDP replay: K access classes, epoch-exact dynamic recomputation.

    The policy already holds RPDs as expiry ticks (see
    :mod:`repro.core.pdp_policy`), so the kernel replays each set on the
    policy's own ``_expiry`` row. Per touched set it keeps ``[expiry_row,
    ticks, step_counter, min_expiry]``, seeded from the policy's
    ``_expiry``/``_tick``/``_step_counter`` at first touch in a slice;
    :meth:`_sync` copies the tick and step counter back, so
    window-boundary introspection and any engine switch between slices
    see reference-identical state.

    An access's class is ``thread_id % num_classes``: one class for
    :class:`~repro.core.pdp_policy.PDPPolicy`, one per thread for
    :class:`~repro.partitioning.pd_partition.PDPartitionPolicy` — each
    type's own ``_class_of``. Each class has its own PD, so insertion
    and promotion units are per class.
    """

    def __init__(self, cache) -> None:
        super().__init__(cache)
        self._sets: dict[int, list] = {}
        self._num_classes = self.policy.num_classes
        self._sampled_lut = None
        engine = self.policy.engine
        if engine is not None:
            lut = np.zeros(self.num_sets, dtype=bool)
            lut[list(engine.sampler._fifos)] = True
            self._sampled_lut = lut
        self._refresh_params()

    @classmethod
    def supports(cls, policy) -> bool:
        """Static PDP always; dynamic PDP only when the recompute
        interval rules out a counter freeze within one epoch, for every
        class's counter array (the freeze rule is order-dependent, so
        batching must prove it cannot fire).
        """
        if policy.static_pd is not None:
            return True
        engine = policy.engine
        if engine is None:  # not attached yet: decide from parameters
            return policy.recompute_interval <= (1 << 16) - 1
        interval = engine.recompute_interval
        return all(
            interval <= counters.counter_max
            and interval <= counters.total_max
            and not counters.frozen
            for counters in engine.class_counters
        )

    def _refresh_params(self) -> None:
        """Re-derive the per-epoch constants from the policy (called
        after every PD recomputation): S_d, and each class's insertion
        and fill units. ``_units``/``_fill_units`` are those of the
        class of the slice's single thread, for the fast loop."""
        policy = self.policy
        step = policy.distance_step
        self._step = step
        rpd_max = policy.rpd_max
        engine = policy.engine
        pds = [policy.static_pd] * self._num_classes if engine is None else engine.pds
        self._class_units = [
            min(rpd_max, max(1, -(-pd // step))) for pd in pds  # ceil division
        ]
        if policy.insertion_pd is not None:
            units = -(-policy.insertion_pd // step)
            self._class_fill_units = [min(rpd_max, max(1, units))] * len(pds)
        else:
            self._class_fill_units = self._class_units
        single = self._tid0 % self._num_classes
        self._units = self._class_units[single]
        self._fill_units = self._class_fill_units[single]
        self._bypass = policy.bypass

    def _set_state(self, s: int) -> list:
        """The expiry-domain state of one set, seeded on first touch."""
        state = self._sets.get(s)
        if state is None:
            policy = self.policy
            expiry_row = policy._expiry[s]
            state = [
                expiry_row,
                policy._tick[s],
                policy._step_counter[s],
                min(expiry_row),
            ]
            self._sets[s] = state
        return state

    def _sync(self) -> None:
        """Copy the touched sets' ticks and step counters back to the
        policy (the expiry rows were updated in place)."""
        tick = self.policy._tick
        step_counter = self.policy._step_counter
        for s, (_row, ticks, stepc, _minexp) in self._sets.items():
            tick[s] = ticks
            step_counter[s] = stepc
        self._sets = {}

    def _drive(self, set_ids, tags, tids, lo, hi, set_order) -> None:
        """Replay accesses ``[lo, hi)``, split at recompute epochs.

        Static PD is one segment. Dynamic PD cuts the range wherever the
        engine's interval runs out: the sampler is fed every access of
        the epoch, the accesses before the triggering one resolve under
        the old PD, and the triggering access resolves after
        ``PDEngine.recompute`` — the reference's ``observe()`` order, so
        ``pd_history`` and every eviction are bit-identical. The epoch
        constants (S_d, insertion and fill units) are re-derived after
        each recompute.
        """
        policy = self.policy
        engine = policy.engine
        self._refresh_params()
        if engine is None:
            self._resolve_range(set_ids, tags, tids, lo, hi, set_order)
            return
        # Dynamic PD: split the call at recompute epochs. The sampler
        # sees accesses *through* the triggering one before the
        # recomputation, while the triggering access itself resolves
        # under the new PD — exactly the reference's observe() ordering.
        interval = engine.recompute_interval
        offset = resolve_start = lo
        while offset < hi:
            segment = min(interval - engine.accesses_since_recompute, hi - offset)
            self._feed_sampler(set_ids, tags, tids, offset, offset + segment)
            engine._total_accesses += segment
            engine.accesses_since_recompute += segment
            offset += segment
            if engine.accesses_since_recompute >= interval:
                if resolve_start < offset - 1:
                    self._resolve_range(
                        set_ids, tags, tids, resolve_start, offset - 1, set_order
                    )
                engine.recompute()
                policy._pds_changed()
                self._refresh_params()
                resolve_start = offset - 1
        if resolve_start < hi:
            self._resolve_range(set_ids, tags, tids, resolve_start, hi, set_order)

    def _feed_sampler(self, set_ids, tags, tids, lo, hi) -> None:
        """Feed accesses ``[lo, hi)`` (one epoch's worth at most) to the
        RD sampler, set-grouped.

        Sampler FIFOs and sampling counters are per-set, and no class's
        RD counter array can freeze within an epoch (the :meth:`supports`
        gate), so distance counts and N_t commute — grouped feeding is
        bit-identical to arrival order. The loop is ``RDSampler.observe``
        inlined on the sampler's own FIFO stamp maps (see
        :mod:`repro.core.sampler`): one dict probe per access, each
        FIFO's fields written back once per set. Each measured distance
        lands in a flat ``class * num_counters + bin`` index, so one
        ``np.bincount`` fills every class's counter array; each class's
        N_t is its count of sampled accesses.
        """
        engine = self.policy.engine
        sampler = engine.sampler
        arrays = engine.class_counters
        num_classes = self._num_classes
        fifos = sampler._fifos
        sampling_counters = sampler._sampling_counter
        insertion_rate = sampler.insertion_rate
        num_counters = arrays[0].num_counters
        d_max = arrays[0].d_max
        bin_step = arrays[0].step
        segment_sets = set_ids[lo:hi]
        segment_tags = tags[lo:hi]
        segment_classes = None if tids is None else tids[lo:hi] % num_classes
        if len(fifos) < self.num_sets:
            mask = self._sampled_lut[segment_sets]
            segment_sets = segment_sets[mask]
            segment_tags = segment_tags[mask]
            if segment_classes is not None:
                segment_classes = segment_classes[mask]
        sampled = len(segment_sets)
        if not sampled:
            return
        order, group_sets, starts, ends = _group_by_set(segment_sets)
        sorted_addresses = (
            (segment_tags << self.set_shift) | segment_sets
        )[order].tolist()
        if segment_classes is None:
            single = self._tid0 % num_classes
            class_totals = [0] * num_classes
            class_totals[single] = sampled
            sorted_bases = None
            bases = repeat(single * num_counters)
        else:
            class_totals = np.bincount(
                segment_classes, minlength=num_classes
            ).tolist()
            sorted_bases = (segment_classes * num_counters)[order].tolist()
        bins: list[int] = []
        append_bin = bins.append
        for g, s in enumerate(group_sets):
            fifo = fifos[s]
            depth = fifo.depth
            stamps = fifo.stamps
            pushes = fifo.pushes
            length = fifo.length
            prune_at = 8 * depth
            counter = sampling_counters[s]
            pop_stamp = stamps.pop
            first, last = starts[g], ends[g]
            if sorted_bases is not None:
                bases = sorted_bases[first:last]
            for address, base in zip(sorted_addresses[first:last], bases):
                counter += 1
                stamp = pop_stamp(address, None)
                if stamp is not None:  # found or stale: either way gone
                    position = pushes - 1 - stamp
                    if position < length:
                        distance = position * insertion_rate + counter
                        if distance <= d_max:  # >= 1 since counter >= 1
                            append_bin(base + (distance - 1) // bin_step)
                if counter >= insertion_rate:
                    stamps[address] = pushes
                    pushes += 1
                    if length < depth:
                        length += 1
                    elif len(stamps) > prune_at:
                        cutoff = pushes - length
                        stamps = {
                            a: p for a, p in stamps.items() if p >= cutoff
                        }
                        pop_stamp = stamps.pop
                    counter = 0
            sampling_counters[s] = counter
            fifo.stamps = stamps
            fifo.pushes = pushes
            fifo.length = length
        for counters, total in zip(arrays, class_totals):
            counters.total += total
        if bins:
            counts = np.bincount(
                bins, minlength=num_classes * num_counters
            ).reshape(num_classes, num_counters)
            for counters, row in zip(arrays, counts):
                counters.counts += row

    def _run_set(self, s, tag_seq, tid_seq) -> None:
        """Replay set ``s``'s subsequence in the expiry domain.

        Invariant: a line is protected exactly while its expiry exceeds
        ``ticks``, and ``minexp`` is only a lower bound on the row's
        minimum expiry. ``minexp > ticks`` therefore proves every line
        protected without a scan; otherwise the scan either finds an
        unprotected way or re-tightens the bound. Hits and fills lower
        the bound when their new expiry is smaller, since the PD may have
        shrunk at a recompute.

        S_d = 1 with one thread and no observers (n_c = 8 at the paper's
        d_max = 256: PDP-8 and every SPDP the figures run) takes its own
        loop, without the step-counter branch, the observer checks and
        the thread-id zip. It stays separate on purpose: folding it into
        the general loop measured 7–9% slower on PDP-8. The general loop
        counts hits and bypasses per thread and takes each access's
        insertion units from its class.
        """
        cache = self.cache
        index = cache._tag_index[s]
        row_tags = cache.tags[s]
        valid_row = cache.valid[s]
        reused_row = cache.reused[s]
        owner_row = cache.owner[s]
        start_row = cache._interval_start[s]
        observers = self.observers
        ways = self.ways
        num_sets = self.num_sets
        set_shift = self.set_shift
        state = self._set_state(s)
        expiry_row, ticks, stepc, minexp = state
        step = self._step
        units = self._units
        fill_units = self._fill_units
        bypass_mode = self._bypass
        get = index.get
        count = cache.set_accesses[s]
        hits = bypasses = evictions = 0
        if step == 1 and tag_seq:
            # Every access ticks and resets the per-set step counter.
            stepc = 0
        if step == 1 and tid_seq is None and not observers:
            # Fast loop for the dominant configuration: no per-access
            # step-counter branch, no observer checks, no thread-id zip.
            tid = self._tid0
            filled = len(index)
            for tag in tag_seq:
                count += 1
                ticks += 1
                way = get(tag)
                if way is not None:
                    hits += 1
                    reused_row[way] = True
                    start_row[way] = count
                    expiry_row[way] = expiry = ticks + units
                    if expiry < minexp:
                        minexp = expiry
                    continue
                if filled < ways:
                    way = filled
                    filled += 1
                    valid_row[way] = True
                else:
                    if minexp > ticks:
                        way = -1  # every line provably protected
                    else:
                        way = -1
                        w = 0
                        for expiry in expiry_row:
                            if expiry <= ticks:
                                way = w
                                break
                            w += 1
                        if way < 0:
                            minexp = min(expiry_row)
                    if way < 0:
                        if bypass_mode:
                            bypasses += 1
                            continue
                        best = -1
                        best_expiry = -1
                        w = 0
                        for expiry in expiry_row:
                            if expiry > best_expiry and not reused_row[w]:
                                best = w
                                best_expiry = expiry
                            w += 1
                        if best < 0:
                            w = 0
                            for expiry in expiry_row:
                                if expiry > best_expiry:
                                    best = w
                                    best_expiry = expiry
                                w += 1
                        way = best
                    del index[row_tags[way]]
                    evictions += 1
                row_tags[way] = tag
                reused_row[way] = False
                owner_row[way] = tid
                start_row[way] = count
                index[tag] = way
                expiry_row[way] = expiry = ticks + fill_units
                if expiry < minexp:
                    minexp = expiry
            cache.set_accesses[s] = count
            state[1] = ticks
            state[2] = stepc
            state[3] = minexp
            self.hits += hits
            self.bypasses += bypasses
            self.evictions += evictions
            return
        t_hits = self._t_hits
        t_bypasses = self._t_bypasses
        class_units = self._class_units
        class_fill_units = self._class_fill_units
        num_classes = self._num_classes
        tid_seq = repeat(self._tid0) if tid_seq is None else tid_seq
        for tag, tid in zip(tag_seq, tid_seq):
            count += 1
            if step == 1:
                ticks += 1
            else:
                stepc += 1
                if stepc >= step:
                    ticks += 1
                    stepc = 0
            way = get(tag)
            if way is not None:
                t_hits[tid] += 1
                if observers:
                    occupancy = count - start_row[way]
                reused_row[way] = True
                start_row[way] = count
                # Promotion re-protects with the accessing class's PD.
                expiry_row[way] = expiry = ticks + class_units[tid % num_classes]
                if expiry < minexp:
                    # The PD may have shrunk since the bound was taken, so
                    # a promotion can expire *before* the cached minimum —
                    # keep the bound a true lower bound.
                    minexp = expiry
                if observers:
                    address = (tag << set_shift) | s
                    for observer in observers:
                        observer.on_hit(s, address, occupancy)
                continue
            filled = len(index)
            if filled < ways:
                way = filled  # lowest-numbered invalid way
                valid_row[way] = True
            else:
                if minexp > ticks:
                    way = -1  # every line provably protected: skip the scan
                else:
                    way = -1
                    w = 0
                    for expiry in expiry_row:
                        if expiry <= ticks:  # RPD saturated at zero
                            way = w
                            break
                        w += 1
                    if way < 0:
                        minexp = min(expiry_row)  # re-tighten the bound
                if way < 0:
                    if bypass_mode:
                        t_bypasses[tid] += 1
                        if observers:
                            address = (tag << set_shift) | s
                            for observer in observers:
                                observer.on_bypass(s, address)
                        continue
                    # Inclusive fallback: first inserted (never reused)
                    # way with the highest RPD, else first reused way
                    # with the highest RPD. All lines are protected here
                    # so expiry order equals RPD order.
                    best = -1
                    best_expiry = -1
                    w = 0
                    for expiry in expiry_row:
                        if expiry > best_expiry and not reused_row[w]:
                            best = w
                            best_expiry = expiry
                        w += 1
                    if best < 0:
                        w = 0
                        for expiry in expiry_row:
                            if expiry > best_expiry:
                                best = w
                                best_expiry = expiry
                            w += 1
                    way = best
                old_tag = row_tags[way]
                evictions += 1
                if observers:
                    evicted_address = old_tag * num_sets + s
                    occupancy = count - start_row[way]
                    was_reused = reused_row[way]
                    for observer in observers:
                        observer.on_evict(
                            s, evicted_address, occupancy, was_reused
                        )
                del index[old_tag]
            row_tags[way] = tag
            reused_row[way] = False
            owner_row[way] = tid
            start_row[way] = count
            index[tag] = way
            expiry_row[way] = expiry = ticks + class_fill_units[tid % num_classes]
            if expiry < minexp:
                minexp = expiry  # see the promotion-path comment above
        cache.set_accesses[s] = count
        state[1] = ticks
        state[2] = stepc
        state[3] = minexp
        self.evictions += evictions


#: Exact policy type -> kernel class. Subclasses deliberately do NOT
#: inherit a kernel: a subclass may override any hook, which would break
#: the bit-identical contract silently.
_KERNELS: dict[type, type[_SetBatchKernel]] = {
    LRUPolicy: _LRUKernel,
    PDPPolicy: _PDPKernel,
    PDPartitionPolicy: _PDPKernel,
}


def vectorizable(policy) -> bool:
    """Whether ``policy`` runs on the vector engine bit-identically.

    Exact-type lookup plus the kernel's own ``supports`` gate (e.g. the
    dynamic-PDP freeze rule). Policies that fail this check silently use
    the fast path under ``engine="vector"`` — same results, baseline
    speed.
    """
    kernel = _KERNELS.get(type(policy))
    return kernel is not None and kernel.supports(policy)


def _kernel_for(cache):
    """The kernel cached on ``cache`` for its policy, built on first use
    (the fast-path fallback when no kernel supports the policy), so
    chunked streaming pays the dispatch once."""
    kernel = getattr(cache, "_vector_kernel", None)
    if kernel is None or kernel.policy is not cache.policy:
        kernel_cls = _KERNELS.get(type(cache.policy))
        if kernel_cls is None or not kernel_cls.supports(cache.policy):
            kernel_cls = _FallbackKernel
        kernel = kernel_cls(cache)
        cache._vector_kernel = kernel
    return kernel


def run_trace_vector(cache, trace, set_order=None) -> None:
    """Drive every access of ``trace`` through ``cache``, set-batched.

    The ``engine="vector"`` counterpart of
    :func:`repro.memory.fastpath.run_trace` — identical statistics,
    hook-visible state, observer events (in set-grouped order; all
    shipped observers aggregate commutatively) and windowed time-series.
    Falls back to the fast path per policy when no kernel supports the
    cache's policy.

    ``set_order`` optionally permutes the set-batch processing order
    (testing hook; results are invariant).
    """
    _kernel_for(cache).run(trace, set_order=set_order)


def run_shared_trace_vector(
    cache, trace, completion: list[int], position_offset: int = 0, set_order=None
) -> list[list[int]]:
    """Drive an interleaved multi-thread trace through ``cache``,
    set-batched, with per-thread stat freezing.

    The ``engine="vector"`` counterpart of
    :func:`repro.memory.fastpath.run_shared_trace`, with the same
    arguments and return value: :func:`~repro.memory.fastpath.run_frozen_segments`
    applies the freeze rule around the cached kernel's
    :meth:`~_SetBatchKernel.run_slice`. Freeze segments are cut on the
    global access order, and each segment is set-batched on its own, so
    dynamic-PDP recomputes and every thread's counts land exactly where
    the reference loop puts them. Records one
    ``columnar.run_shared_trace_s`` observation per call.

    ``set_order`` optionally permutes the set-batch processing order
    (testing hook; results are invariant).
    """
    obs_enabled = METRICS.enabled
    obs_start = perf_counter() if obs_enabled else 0.0
    kernel = _kernel_for(cache)
    totals = run_frozen_segments(
        cache,
        trace,
        completion,
        position_offset,
        partial(kernel.run_slice, set_order=set_order),
    )
    if obs_enabled:
        METRICS.observe("columnar.run_shared_trace_s", perf_counter() - obs_start)
        METRICS.inc("columnar.accesses", len(trace))
    return totals


__all__ = [
    "run_shared_trace_vector",
    "run_trace_vector",
    "vectorizable",
]
