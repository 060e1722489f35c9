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
MRU, FIFO, SRRIP, and PDP — static and dynamic. Everything else falls
back per-policy to the fast path inside :func:`run_trace_vector`, which
is what lets ``run_llc``/``run_matrix`` default to ``engine="vector"``
safely:

- BRRIP/DRRIP (and the random policy) consume a shared RNG / set-dueling
  PSEL in *global fill order*, which set grouping would reorder — they
  cannot be vectorized bit-identically and are not registered.
- Dynamic PDP is vectorized only when
  ``recompute_interval <= counter_max`` (65535 with the paper's 16-bit
  counters): within one recompute epoch the RD counters then provably
  cannot saturate, so the order-dependent freeze rule of
  :class:`repro.core.rdd.RDCounterArray` can never fire mid-epoch and
  batched counter accumulation is exact. The paper-scale 512K interval
  (which *does* rely on freezing) keeps the fast path.

The PDP kernel replaces the per-access all-ways RPD decrement loop with
an *expiry* representation: with ``T`` the set's tick count, a line whose
RPD was set to ``v`` at tick ``T0`` is protected exactly while
``T < T0 + v``, so storing ``expiry = T0 + v`` turns the O(ways)
decrement into a single ``T += 1`` and victim selection into a scan for
``expiry <= T``. A cached per-set lower bound on the minimum expiry
short-circuits the all-protected case (the common one under bypass) to
O(1). Policy-visible state (``_rpd``/``_step_counter``) is rebuilt from
the expiry columns at the end of every kernel call, so
:meth:`~repro.core.pdp_policy.PDPPolicy.protected_count` and windowed
recorders observe exactly the reference values at every window boundary.

Dynamic PDP splits each call at the same absolute recompute epochs as
the reference: the sampler FIFOs and RD counters are fed set-grouped
(their state is per-set and the counter sums commute), and
``PDEngine.recompute`` fires at the exact access positions the
per-access loop would trigger it — ``pd_history`` is bit-identical.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

import numpy as np

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import log2_int
from repro.memory.fastpath import run_trace
from repro.obs.metrics import METRICS
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.rrip import SRRIPPolicy


class _FallbackKernel:
    """Cached dispatch decision for a policy with no vector kernel:
    every chunk goes straight to the fast path."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.policy = cache.policy

    def run(self, trace, set_order=None) -> None:
        """Delegate to :func:`repro.memory.fastpath.run_trace`."""
        run_trace(self.cache, trace)


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

    @classmethod
    def supports(cls, policy) -> bool:
        """Whether this kernel can run ``policy`` bit-identically."""
        return True

    def run(self, trace, set_order=None) -> None:
        """Drive every access of ``trace`` through the cache, set-batched.

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
        self._drive(set_ids, tags, tids, 0, n, set_order)
        misses = n - self.hits
        stats = self.cache.stats
        stats.accesses += n
        stats.hits += self.hits
        stats.misses += misses
        stats.bypasses += self.bypasses
        stats.evictions += self.evictions
        stats.fills += misses - self.bypasses
        self._sync()
        if obs_enabled:
            METRICS.observe("columnar.run_trace_s", perf_counter() - obs_start)
            METRICS.inc("columnar.accesses", n)

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

    _evict_last = False  # MRU flips this

    def _run_set(self, s, tag_seq, tid_seq) -> None:
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
        evict_last = self._evict_last
        get = index.get
        count = cache.set_accesses[s]
        hits = evictions = 0
        tid_seq = repeat(self._tid0) if tid_seq is None else tid_seq
        for tag, tid in zip(tag_seq, tid_seq):
            count += 1
            way = get(tag)
            if way is not None:
                hits += 1
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
                way = order_row[-1] if evict_last else order_row[0]
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
            if observers:
                address = (tag << set_shift) | s
                for observer in observers:
                    observer.on_fill(s, address)
        cache.set_accesses[s] = count
        self.hits += hits
        self.evictions += evictions


class _MRUKernel(_LRUKernel):
    """MRU replay: evict the most recently touched way."""

    _evict_last = True


class _FIFOKernel(_SetBatchKernel):
    """FIFO replay on the policy's per-set insertion stamps."""

    def _run_set(self, s, tag_seq, tid_seq) -> None:
        cache = self.cache
        policy = self.policy
        index = cache._tag_index[s]
        row_tags = cache.tags[s]
        valid_row = cache.valid[s]
        reused_row = cache.reused[s]
        owner_row = cache.owner[s]
        start_row = cache._interval_start[s]
        inserted_row = policy._inserted[s]
        observers = self.observers
        ways = self.ways
        num_sets = self.num_sets
        set_shift = self.set_shift
        get = index.get
        count = cache.set_accesses[s]
        clock = policy._clock[s]
        hits = evictions = 0
        tid_seq = repeat(self._tid0) if tid_seq is None else tid_seq
        for tag, tid in zip(tag_seq, tid_seq):
            count += 1
            way = get(tag)
            if way is not None:
                hits += 1
                if observers:
                    occupancy = count - start_row[way]
                reused_row[way] = True
                start_row[way] = count
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
                # First way with the oldest insertion stamp — identical
                # to min(range(ways), key=row.__getitem__).
                way = inserted_row.index(min(inserted_row))
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
            clock += 1
            inserted_row[way] = clock
            if observers:
                address = (tag << set_shift) | s
                for observer in observers:
                    observer.on_fill(s, address)
        cache.set_accesses[s] = count
        policy._clock[s] = clock
        self.hits += hits
        self.evictions += evictions


class _SRRIPKernel(_SetBatchKernel):
    """SRRIP replay: batched aging instead of the step-by-step scan.

    The reference victim loop ages the whole set by one until a way
    reaches ``rrpv_max``; since RRPVs never exceed ``rrpv_max``, that is
    exactly "add ``rrpv_max - max(row)`` to every way, evict the first
    way that held the maximum" — one ``max``/``index`` pair and one list
    comprehension per eviction.
    """

    def _run_set(self, s, tag_seq, tid_seq) -> None:
        cache = self.cache
        policy = self.policy
        index = cache._tag_index[s]
        row_tags = cache.tags[s]
        valid_row = cache.valid[s]
        reused_row = cache.reused[s]
        owner_row = cache.owner[s]
        start_row = cache._interval_start[s]
        rrpv_row = policy._rrpv[s]
        rrpv_max = policy.rrpv_max
        insert_value = rrpv_max - 1  # "long" re-reference prediction
        observers = self.observers
        ways = self.ways
        num_sets = self.num_sets
        set_shift = self.set_shift
        get = index.get
        count = cache.set_accesses[s]
        hits = evictions = 0
        tid_seq = repeat(self._tid0) if tid_seq is None else tid_seq
        for tag, tid in zip(tag_seq, tid_seq):
            count += 1
            way = get(tag)
            if way is not None:
                hits += 1
                if observers:
                    occupancy = count - start_row[way]
                reused_row[way] = True
                start_row[way] = count
                rrpv_row[way] = 0  # hit promotion
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
                top = max(rrpv_row)
                way = rrpv_row.index(top)
                if top < rrpv_max:
                    delta = rrpv_max - top
                    rrpv_row[:] = [value + delta for value in rrpv_row]
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
            rrpv_row[way] = insert_value
            if observers:
                address = (tag << set_shift) | s
                for observer in observers:
                    observer.on_fill(s, address)
        cache.set_accesses[s] = count
        self.hits += hits
        self.evictions += evictions


class _PDPKernel(_SetBatchKernel):
    """PDP replay: expiry columns, epoch-exact dynamic recomputation.

    Per touched set the kernel keeps ``[expiry_row, ticks, step_counter,
    min_expiry]``, seeded lazily from the policy's ``_rpd`` /
    ``_step_counter`` at first touch in a call and written back (RPDs
    clamped at zero, exactly the reference's saturating decrement) in
    :meth:`_sync` — so window-boundary introspection and any engine
    switch between chunks see reference-identical state.
    """

    def __init__(self, cache) -> None:
        super().__init__(cache)
        self._sets: dict[int, list] = {}
        self._fifo_states: dict[int, list] = {}
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
        interval rules out a counter freeze within one epoch (the freeze
        rule is order-dependent, so batching must prove it cannot fire).
        """
        if policy.static_pd is not None:
            return True
        engine = policy.engine
        if engine is None:  # not attached yet: decide from parameters
            return policy.recompute_interval <= (1 << 16) - 1
        (counters,) = engine.class_counters
        return (
            engine.recompute_interval <= counters.counter_max
            and engine.recompute_interval <= counters.total_max
            and not counters.frozen
        )

    def _refresh_params(self) -> None:
        """Re-derive the per-epoch constants from the policy (called
        after every PD recomputation)."""
        policy = self.policy
        step = policy.distance_step
        self._step = step
        self._units = policy._insertion_rpd()
        if policy.insertion_pd is not None:
            units = -(-policy.insertion_pd // step)  # ceil division
            self._fill_units = min(policy.rpd_max, max(1, units))
        else:
            self._fill_units = self._units
        self._bypass = policy.bypass

    def _set_state(self, s: int) -> list:
        """The expiry-domain state of one set, seeded on first touch."""
        state = self._sets.get(s)
        if state is None:
            expiry_row = self.policy._rpd[s][:]
            state = [
                expiry_row,
                0,
                self.policy._step_counter[s],
                min(expiry_row),
            ]
            self._sets[s] = state
        return state

    def _sync(self) -> None:
        """Materialize ``_rpd``/``_step_counter`` for the touched sets and
        rebuild the touched sampler FIFO rows from their stamp maps."""
        policy = self.policy
        rpd = policy._rpd
        step_counter = policy._step_counter
        for s, (expiry_row, ticks, stepc, _minexp) in self._sets.items():
            if ticks:
                rpd[s] = [
                    e - ticks if e > ticks else 0 for e in expiry_row
                ]
            else:
                rpd[s] = expiry_row
            step_counter[s] = stepc
        self._sets = {}
        if self._fifo_states:
            fifos = policy.engine.sampler._fifos
            set_shift = self.set_shift
            for s, (stamps, pushes, length) in self._fifo_states.items():
                entries: list = [None] * length
                for tag, stamp in stamps.items():
                    position = pushes - 1 - stamp
                    if 0 <= position < length:
                        entries[position] = (tag << set_shift) | s
                fifos[s].entries = entries
            self._fifo_states = {}

    def _drive(self, set_ids, tags, tids, lo, hi, set_order) -> None:
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
            self._feed_sampler(set_ids, tags, offset, offset + segment)
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

    def _feed_sampler(self, set_ids, tags, lo, hi) -> None:
        """Feed accesses ``[lo, hi)`` (one epoch's worth at most) to the
        RD sampler, set-grouped.

        Sampler FIFOs and sampling counters are per-set, and the RD
        counter array cannot freeze within an epoch (the
        :meth:`supports` gate), so distance counts and N_t commute —
        grouped feeding is bit-identical to arrival order.
        """
        engine = self.policy.engine
        sampler = engine.sampler
        (counters,) = engine.class_counters
        fifos = sampler._fifos
        sampling_counters = sampler._sampling_counter
        insertion_rate = sampler.insertion_rate
        d_max = counters.d_max
        bin_step = counters.step
        set_shift = self.set_shift
        segment_sets = set_ids[lo:hi]
        segment_tags = tags[lo:hi]
        if len(fifos) < self.num_sets:
            mask = self._sampled_lut[segment_sets]
            segment_sets = segment_sets[mask]
            segment_tags = segment_tags[mask]
        sampled = len(segment_sets)
        if not sampled:
            return
        order, group_sets, starts, ends = _group_by_set(segment_sets)
        sorted_tags = segment_tags[order].tolist()
        bins: list[int] = []
        append_bin = bins.append
        for g, s in enumerate(group_sets):
            fifo = fifos[s]
            depth = fifo.depth
            # The FIFO as a stamp map: an entry pushed as the p-th push
            # sits at position ``pushes - 1 - p`` (insert-at-front shifts
            # everything by one per push) and is live while that position
            # is inside the list. Existing rows seed with negative
            # stamps. Turns the per-access O(depth) ``list.index`` scan
            # into one dict probe; ``_sync`` rebuilds the real row.
            state = self._fifo_states.get(s)
            if state is None:
                stamps = {}
                for i, entry in enumerate(fifo.entries):
                    if entry is not None:
                        stamps[entry >> set_shift] = -1 - i
                state = [stamps, 0, len(fifo.entries)]
                self._fifo_states[s] = state
            stamps, pushes, length = state
            prune_at = 8 * depth
            counter = sampling_counters[s]
            stamp_get = stamps.get
            for tag in sorted_tags[starts[g]:ends[g]]:
                counter += 1
                stamp = stamp_get(tag)
                if stamp is not None:
                    del stamps[tag]  # found or stale: either way gone
                    position = pushes - 1 - stamp
                    if position < length:
                        distance = position * insertion_rate + counter
                        if distance <= d_max:  # >= 1 since counter >= 1
                            append_bin((distance - 1) // bin_step)
                if counter >= insertion_rate:
                    stamps[tag] = pushes
                    pushes += 1
                    if length < depth:
                        length += 1
                    elif len(stamps) > prune_at:
                        cutoff = pushes - length
                        stamps = {
                            t: p for t, p in stamps.items() if p >= cutoff
                        }
                        state[0] = stamps
                        stamp_get = stamps.get
                    counter = 0
            sampling_counters[s] = counter
            state[1] = pushes
            state[2] = length
        counters.total += sampled
        if bins:
            counters.counts += np.bincount(
                bins, minlength=counters.num_counters
            )

    def _run_set(self, s, tag_seq, tid_seq) -> None:
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
                hits += 1
                if observers:
                    occupancy = count - start_row[way]
                reused_row[way] = True
                start_row[way] = count
                expiry_row[way] = expiry = ticks + units  # promotion re-protects
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
                        bypasses += 1
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
            expiry_row[way] = expiry = ticks + fill_units
            if expiry < minexp:
                minexp = expiry  # see the promotion-path comment above
            if observers:
                address = (tag << set_shift) | s
                for observer in observers:
                    observer.on_fill(s, address)
        cache.set_accesses[s] = count
        state[1] = ticks
        state[2] = stepc
        state[3] = minexp
        self.hits += hits
        self.bypasses += bypasses
        self.evictions += evictions


#: Exact policy type -> kernel class. Subclasses deliberately do NOT
#: inherit a kernel: a subclass may override any hook, which would break
#: the bit-identical contract silently.
_KERNELS: dict[type, type[_SetBatchKernel]] = {
    LRUPolicy: _LRUKernel,
    MRUPolicy: _MRUKernel,
    FIFOPolicy: _FIFOKernel,
    SRRIPPolicy: _SRRIPKernel,
    PDPPolicy: _PDPKernel,
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


def run_trace_vector(cache, trace, set_order=None) -> None:
    """Drive every access of ``trace`` through ``cache``, set-batched.

    The ``engine="vector"`` counterpart of
    :func:`repro.memory.fastpath.run_trace` — identical statistics,
    hook-visible state, observer events (in set-grouped order; all
    shipped observers aggregate commutatively) and windowed time-series.
    Falls back to the fast path per policy when no kernel supports the
    cache's policy. The kernel instance is cached on the cache, so
    chunked streaming pays the dispatch once.

    ``set_order`` optionally permutes the set-batch processing order
    (testing hook; results are invariant).
    """
    kernel = getattr(cache, "_vector_kernel", None)
    if kernel is None or kernel.policy is not cache.policy:
        kernel_cls = _KERNELS.get(type(cache.policy))
        if kernel_cls is None or not kernel_cls.supports(cache.policy):
            kernel_cls = _FallbackKernel
        kernel = kernel_cls(cache)
        cache._vector_kernel = kernel
    kernel.run(trace, set_order=set_order)


__all__ = [
    "run_trace_vector",
    "vectorizable",
]
