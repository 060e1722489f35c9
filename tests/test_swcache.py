"""Software object cache: model invariants, TTL, admission, policies.

Pins the accounting contract of :mod:`repro.swcache.model` (accesses =
hits + misses, misses = fills + bypasses, byte-budget bound, read-byte
decomposition), TTL expiry semantics — including an expiry landing
exactly on a recorder window boundary — admission-rejection accounting
reconciled against :class:`repro.obs.timeseries.WindowedRecorder` sums,
and the behavioral signatures of the four policy families.
"""

from __future__ import annotations

import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

import repro.swcache.driver as swdriver
import repro.swcache.policies as swpolicies
from repro.obs.timeseries import windows_from_payload
from repro.swcache.driver import run_object_cache
from repro.swcache.model import ObjectCache
from repro.swcache.policies import (
    GDSFPolicy,
    PDPProtectionPolicy,
    SOFTWARE_POLICIES,
    SizeAwareLRUPolicy,
    TinyLFUAdmissionPolicy,
    _FrequencySketch,
    make_software_policy,
)
from repro.traces.objects import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ObjectTrace,
)


def _drive(cache: ObjectCache, requests) -> None:
    """Feed (key, size[, op[, now]]) tuples into the cache."""
    for request in requests:
        cache.access(*request)


# -- model invariants ------------------------------------------------------


@pytest.mark.parametrize("policy_name", sorted(SOFTWARE_POLICIES))
def test_accounting_invariants_hold_for_every_policy(policy_name):
    kwargs = (
        {"max_pd": 256, "bins": 32, "recompute_interval": 128}
        if policy_name == "pdp"
        else {}
    )
    cache = ObjectCache(
        4096, make_software_policy(policy_name, **kwargs), ttl=500.0
    )
    rng = np.random.default_rng(7)
    for i in range(4000):
        op = (OP_GET, OP_PUT, OP_DELETE)[int(rng.integers(0, 10)) % 3 if rng.random() < 0.2 else 0]
        cache.access(
            int(rng.integers(0, 120)),
            int(rng.integers(1, 400)),
            op,
            float(i),
        )
    stats = cache.stats
    assert stats.accesses == 4000
    assert stats.accesses == stats.hits + stats.misses
    assert stats.misses == stats.fills + stats.bypasses
    assert stats.bytes_requested == stats.bytes_hit + stats.bytes_missed
    assert cache.bytes_used <= cache.capacity_bytes
    assert cache.bytes_used == sum(entry.size for entry in cache.entries())
    assert len(cache) == cache.object_count


def test_byte_budget_never_exceeded_and_lru_order():
    cache = ObjectCache(100, SizeAwareLRUPolicy())
    cache.access(1, 40)
    cache.access(2, 40)
    cache.access(1, 40)  # 1 becomes MRU
    cache.access(3, 40)  # must evict LRU victim 2
    assert 1 in cache and 3 in cache and 2 not in cache
    assert cache.stats.evictions == 1
    assert cache.bytes_used == 80


def test_oversized_object_bypasses_without_evicting():
    cache = ObjectCache(100, SizeAwareLRUPolicy())
    cache.access(1, 60)
    hit = cache.access(2, 500)
    assert not hit
    assert cache.stats.bypasses == 1
    assert cache.stats.evictions == 0
    assert 1 in cache and 2 not in cache


def test_put_updates_size_and_delete_invalidates():
    cache = ObjectCache(1000, SizeAwareLRUPolicy())
    cache.access(1, 100, OP_PUT)
    assert cache.stats.writes == 1 and cache.stats.fills == 1
    cache.access(1, 300, OP_PUT)  # resident overwrite: hit + resize
    assert cache.stats.hits == 1
    assert cache.bytes_used == 300
    cache.access(1, 0, OP_DELETE)
    assert cache.stats.invalidations == 1
    assert 1 not in cache and cache.bytes_used == 0
    # DELETE counts as a miss and a bypass, never a fill.
    assert cache.stats.accesses == cache.stats.hits + cache.stats.misses
    assert cache.stats.misses == cache.stats.fills + cache.stats.bypasses
    assert cache.stats.bypasses == 1


def test_put_growth_beyond_budget_invalidates_instead_of_overflowing():
    cache = ObjectCache(100, SizeAwareLRUPolicy())
    cache.access(1, 80, OP_PUT)
    cache.access(1, 150, OP_PUT)  # grows past the whole budget
    assert 1 not in cache
    assert cache.bytes_used == 0
    assert cache.stats.invalidations == 1


# -- TTL expiry ------------------------------------------------------------


def test_ttl_expiry_is_lazy_and_counts_as_expiration():
    cache = ObjectCache(1000, SizeAwareLRUPolicy(), ttl=10.0)
    cache.access(1, 100, OP_GET, now=0.0)
    assert cache.access(1, 100, OP_GET, now=9.0)  # still fresh
    assert not cache.access(1, 100, OP_GET, now=10.0)  # expires AT deadline
    assert cache.stats.expirations == 1
    assert cache.stats.evictions == 0
    # The expired request re-fills: the object is resident again.
    assert 1 in cache and cache.stats.fills == 2


def test_put_refreshes_ttl_but_get_does_not():
    cache = ObjectCache(1000, SizeAwareLRUPolicy(), ttl=10.0)
    cache.access(1, 100, OP_PUT, now=0.0)
    cache.access(1, 100, OP_GET, now=8.0)  # read hit: no refresh
    assert not cache.access(1, 100, OP_GET, now=12.0)
    assert cache.stats.expirations == 1
    cache.access(2, 100, OP_PUT, now=20.0)
    cache.access(2, 100, OP_PUT, now=28.0)  # write hit: deadline -> 38
    assert cache.access(2, 100, OP_GET, now=32.0)
    assert cache.stats.expirations == 1


def test_ttl_expiry_on_exact_window_boundary():
    """An object expiring on the access that closes a recorder window
    must be attributed to the window being closed — windowed sums still
    reconcile with the aggregate counters, and the expiration is never
    double-counted or shifted into the next window."""
    window = 4
    keys = [1, 2, 3, 1, 9, 9, 9, 1]  # access index 3 re-reads key 1
    sizes = [10] * len(keys)
    # Timestamps: key 1 inserted at t=0, re-read at t=100 (expired, TTL
    # 50) — and that access is the 4th, exactly closing window 0.
    timestamps = [0, 1, 2, 100, 101, 102, 103, 104]
    trace = ObjectTrace(keys, sizes, timestamps=timestamps)
    result = run_object_cache(
        trace,
        SizeAwareLRUPolicy(),
        capacity_bytes=10_000,
        ttl=50.0,
        window_size=window,
    )
    stats = result.stats
    assert stats.expirations == 1
    windows = windows_from_payload(result.extra["timeseries"])
    assert [w.accesses for w in windows] == [4, 4]
    # The boundary access (index 3) was a miss in window 0: the expired
    # entry was dropped and re-filled there, not in window 1.
    assert windows[0].misses == 4 and windows[0].fills == 4
    assert windows[1].hits == 3  # 9,9 re-reads + final key-1 re-read
    for field in ("accesses", "hits", "misses", "fills"):
        assert sum(getattr(w, field) for w in windows) == getattr(stats, field)


# -- admission + recorder reconciliation -----------------------------------


def test_admission_rejections_reconcile_with_windowed_sums():
    """Bypasses (admission rejections) recorded per window must sum to
    the aggregate bypass counter, and remain a subset of misses in every
    single window."""
    rng = np.random.default_rng(21)
    n = 6000
    keys = rng.integers(0, 300, n)
    sizes = rng.integers(50, 500, n)
    trace = ObjectTrace(keys, sizes)
    result = run_object_cache(
        trace,
        TinyLFUAdmissionPolicy(sketch_width=1 << 10),
        capacity_bytes=20_000,
        window_size=512,
    )
    stats = result.stats
    assert stats.bypasses > 0  # the filter must actually reject here
    windows = windows_from_payload(result.extra["timeseries"])
    for field in (
        "accesses", "hits", "misses", "bypasses", "evictions", "fills",
        "bytes_requested", "bytes_hit",
    ):
        assert sum(getattr(w, field) for w in windows) == getattr(stats, field), field
    for window in windows:
        assert window.bypasses <= window.misses
        assert window.misses == window.fills + window.bypasses
        assert window.accesses == window.hits + window.misses


def test_windows_carry_byte_axis_only_for_byte_capable_caches():
    trace = ObjectTrace([1, 2, 1, 2], [10, 10, 10, 10])
    result = run_object_cache(trace, SizeAwareLRUPolicy(), 1000, window_size=2)
    payload = result.extra["timeseries"]
    assert len(payload["windows"]) == 2
    for window in windows_from_payload(payload):
        assert window.bytes_requested is not None
        assert window.bytes_hit is not None
    assert all("bytes_requested" in w for w in payload["windows"])


# -- policy families -------------------------------------------------------


def test_gdsf_prefers_evicting_large_cold_objects():
    cache = ObjectCache(1000, GDSFPolicy())
    cache.access(1, 500)  # large, cold
    for _ in range(5):
        cache.access(2, 100)  # small, hot
    cache.access(3, 600)  # forces eviction
    assert 2 in cache  # the hot small object survives
    assert 1 not in cache


def test_gdsf_refused_plan_restores_heap():
    """A fill too large for the budget must leave the GDSF heap intact:
    popped-but-unremoved candidates are re-pushed on iterator close and
    remain evictable later."""
    cache = ObjectCache(100, GDSFPolicy())
    cache.access(1, 40)
    cache.access(2, 40)
    cache.access(3, 500)  # impossible fill: plan refused, no evictions
    assert cache.stats.bypasses == 1 and cache.stats.evictions == 0
    cache.access(4, 90)  # now both 1 and 2 must be evictable
    assert 4 in cache
    assert cache.stats.evictions == 2
    assert cache.bytes_used == 90


def test_tinylfu_rejects_one_hit_wonders():
    policy = TinyLFUAdmissionPolicy(sketch_width=1 << 10)
    cache = ObjectCache(300, policy)
    for _ in range(8):
        cache.access(1, 100)
        cache.access(2, 100)
        cache.access(3, 100)
    fills_before = cache.stats.fills
    cache.access(999, 100)  # cold key vs. a hot victim: rejected
    assert cache.stats.fills == fills_before
    assert cache.stats.bypasses >= 1
    assert 999 not in cache and 1 in cache


def test_pdp_protects_objects_and_bypasses_when_all_protected():
    policy = PDPProtectionPolicy(
        max_pd=64, bins=8, recompute_interval=1 << 30, initial_pd=64
    )
    cache = ObjectCache(100, policy, ttl=None)
    cache.access(1, 50)
    cache.access(2, 50)
    assert policy.protected_count() == 2
    cache.access(3, 50)  # everything protected -> PDP bypasses
    assert cache.stats.bypasses == 1 and cache.stats.evictions == 0
    assert 3 not in cache and 1 in cache and 2 in cache


def test_pdp_non_bypass_variant_evicts_protected_when_forced():
    policy = PDPProtectionPolicy(
        max_pd=64, bins=8, recompute_interval=1 << 30, initial_pd=64,
        bypass=False,
    )
    cache = ObjectCache(100, policy)
    cache.access(1, 50)
    cache.access(2, 50)
    cache.access(3, 50)  # forced: evicts the protected object expiring first
    assert 3 in cache
    assert cache.stats.evictions == 1 and cache.stats.bypasses == 0


def test_pdp_recomputes_pd_from_sampled_reuse_distances():
    policy = PDPProtectionPolicy(
        max_pd=64, bins=16, recompute_interval=200, initial_pd=32
    )
    cache = ObjectCache(10_000, policy)
    # Strict loop over 8 keys: every reuse distance is exactly 8.
    for i in range(1000):
        cache.access(i % 8, 10, OP_GET, float(i))
    assert policy.pd_history  # recomputed at least once
    # Bin width is 4 (64/16); an all-8 RDD must pick a small PD bin.
    assert policy.current_pd <= 16
    # Recorder integration: PD and protected counts land in windows.
    trace = ObjectTrace(
        np.arange(1000, dtype=np.int64) % 8, np.full(1000, 10, dtype=np.int64)
    )
    result = run_object_cache(
        trace,
        PDPProtectionPolicy(max_pd=64, bins=16, recompute_interval=200),
        10_000,
        window_size=256,
    )
    windows = windows_from_payload(result.extra["timeseries"])
    assert all(w.pd is not None for w in windows)
    assert all(w.protected_lines is not None for w in windows)
    assert result.extra["final_pd"] == windows[-1].pd


def test_policy_registry_rejects_unknown_names_sorted():
    with pytest.raises(ValueError) as excinfo:
        make_software_policy("nope")
    message = str(excinfo.value)
    assert "gdsf, pdp, size-lru, tinylfu" in message


def test_policies_are_single_use():
    policy = SizeAwareLRUPolicy()
    ObjectCache(100, policy)
    with pytest.raises(RuntimeError):
        ObjectCache(100, policy)


# -- PDP victim order: heap index against the LRU scan ---------------------


class _LRUScanPDP(PDPProtectionPolicy):
    """PDP with a full LRU-scan victim search.

    Keeps its own recency order and walks all of it on every victim
    search, skipping protected objects; a ``bypass=False`` policy then
    evicts protected objects by protect-until position (a stable sort,
    so ties stay in LRU order). The differential oracle for the
    shipped heap-indexed search.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._lru: OrderedDict[int, object] = OrderedDict()

    def on_hit(self, entry, now):
        super().on_hit(entry, now)
        self._lru.move_to_end(entry.key)

    def on_insert(self, entry, now):
        super().on_insert(entry, now)
        self._lru[entry.key] = entry

    def on_remove(self, entry, reason):
        super().on_remove(entry, reason)
        self._lru.pop(entry.key, None)

    def protected_count(self, set_index=0):
        return sum(
            1 for entry in self._lru.values() if entry.pstate[0] > self._pos
        )

    def eviction_candidates(self, now):
        protected = []
        for entry in self._lru.values():
            if entry.pstate[0] > self._pos:
                protected.append(entry)
            else:
                yield entry
        if self.bypass:
            return
        protected.sort(key=lambda entry: entry.pstate[0])
        yield from protected


def _replay_pdp(policy, requests, ttl):
    """Replay ``requests`` into a 4 KiB cache; returns the cache, the
    per-request hit flags, and how many PUTs grew a resident object
    past the free budget (the ``_make_room(exclude=entry)`` path)."""
    cache = ObjectCache(4096, policy, ttl=ttl)
    hits = []
    growths = 0
    for key, size, op, now in requests:
        entry = cache.get_entry(key)
        if (
            op == OP_PUT
            and entry is not None
            and size <= cache.capacity_bytes
            and cache.bytes_used + size - entry.size > cache.capacity_bytes
        ):
            growths += 1
        hits.append(cache.access(key, size, op, now))
    return cache, hits, growths


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("ttl", [None, 300.0])
def test_pdp_heap_victims_match_lru_scan(seed, bypass, ttl, monkeypatch):
    # A tiny compaction floor makes the heaps compact every few dozen
    # touches, so the comparison also covers compaction.
    monkeypatch.setattr(swpolicies, "_MIN_COMPACT", 16)
    compactions = []
    real_compact = PDPProtectionPolicy._compact

    def counting_compact(policy):
        compactions.append(policy)
        real_compact(policy)

    monkeypatch.setattr(PDPProtectionPolicy, "_compact", counting_compact)
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(6000):
        draw = rng.random()
        op = OP_GET if draw < 0.75 else OP_PUT if draw < 0.95 else OP_DELETE
        # A Zipf-ish key mix: a hot head that earns protection and a
        # long tail that forces victim searches.
        key = int(rng.zipf(1.3)) % 400
        requests.append((key, int(rng.integers(16, 700)), op, float(i)))
    kwargs = dict(max_pd=512, bins=32, recompute_interval=64, bypass=bypass)
    shipped = PDPProtectionPolicy(**kwargs)
    reference = _LRUScanPDP(**kwargs)
    cache, hits, growths = _replay_pdp(shipped, requests, ttl)
    ref_cache, ref_hits, _ = _replay_pdp(reference, requests, ttl)
    assert growths > 0
    assert hits == ref_hits
    assert cache.stats == ref_cache.stats
    assert cache.stats.evictions > 0
    # Both victim phases run: a bypassing policy refuses fills, a
    # non-bypassing one never does (only DELETEs count as bypasses).
    deletes = sum(1 for request in requests if request[2] == OP_DELETE)
    assert (cache.stats.bypasses > deletes) == bypass
    assert shipped.pd_history == reference.pd_history
    assert len(shipped.pd_history) > 10
    assert shipped.protected_count() == reference.protected_count()
    assert shipped in compactions
    assert sorted(e.key for e in cache.entries()) == sorted(
        e.key for e in ref_cache.entries()
    )


def test_pdp_heaps_stay_bounded_when_the_cache_never_evicts():
    """Every hit pushes a heap item; without victim searches nothing
    pops the stale ones, so compaction alone keeps the heaps
    O(resident objects) instead of O(requests)."""
    policy = PDPProtectionPolicy(max_pd=1 << 10, bins=16)
    cache = ObjectCache(1 << 30, policy)
    for i in range(20_000):
        cache.access(i % 50, 100, OP_GET, float(i))
    assert cache.stats.evictions == 0 and len(cache) == 50
    assert len(policy._protected) + len(policy._unprotected) <= (
        swpolicies._MIN_COMPACT + 1
    )
    assert policy.protected_count() == 50


# -- TinyLFU sketch: halving and saturation --------------------------------


class _NumpySketch:
    """The uint8-array count-min sketch the bytearray rows replaced:
    per-scalar saturating increments, whole-array ``>>= 1`` halving."""

    MIXERS = (
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
    )

    def __init__(self, width, sample_period):
        self.counters = np.zeros((len(self.MIXERS), width), dtype=np.uint8)
        self.sample_period = sample_period
        self.increments = 0
        self.shift = 64 - (width.bit_length() - 1)
        self.mask = width - 1

    def indexes(self, key):
        return [
            (((key * mixer) & 0xFFFFFFFFFFFFFFFF) >> self.shift) & self.mask
            for mixer in self.MIXERS
        ]

    def add(self, key):
        for row, index in enumerate(self.indexes(key)):
            if self.counters[row, index] < 255:
                self.counters[row, index] += 1
        self.increments += 1
        if self.increments >= self.sample_period:
            self.counters >>= 1
            self.increments //= 2

    def estimate(self, key):
        return min(
            int(self.counters[row, index])
            for row, index in enumerate(self.indexes(key))
        )


@pytest.mark.parametrize(
    "sample_period, hot_repeats",
    [(50, 1), (600, 40)],
    ids=["halving", "saturation"],
)
def test_frequency_sketch_matches_uint8_model(sample_period, hot_repeats):
    """Every add() leaves the bytearray rows equal to the uint8 model's
    counters and every key's estimate() equal to the model's; the
    ``saturation`` stream pins a hot key's counters at 255 before a
    halving pass."""
    sketch = _FrequencySketch(width=64, sample_period=sample_period)
    model = _NumpySketch(64, sample_period)
    rng = np.random.default_rng(5)
    keys = list(range(-3, 200)) + [2**40 + 7, 2**63 - 1]
    stream = []
    for _ in range(12):
        stream += [11] * hot_repeats
        stream += [keys[int(i)] for i in rng.integers(0, len(keys), 30)]
    saw_saturated = saw_halving = False
    previous = 0
    for key in stream:
        sketch.add(key)
        model.add(key)
        assert np.array_equal(
            np.array([list(row) for row in sketch.rows], dtype=np.uint8),
            model.counters,
        )
        for probe in keys:
            assert sketch.estimate(probe) == model.estimate(probe)
        saw_saturated |= bool((model.counters == 255).any())
        total = int(model.counters.sum(dtype=np.int64))
        saw_halving |= total < previous
        previous = total
    assert saw_halving
    assert saw_saturated == (hot_repeats > 1)


# -- the policy holds its cache weakly -------------------------------------


def test_finished_run_frees_its_cache_without_the_cyclic_collector(monkeypatch):
    """The policy's back-reference is weak, so dropping a run's result
    frees its ObjectCache by reference counting alone — no policy<->cache
    cycle waits for a gen-2 collection. A bound policy still refuses a
    second cache, also once its first cache is gone."""
    caches = []

    def recording_cache(*args, **kwargs):
        cache = ObjectCache(*args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(swdriver, "ObjectCache", recording_cache)
    rng = np.random.default_rng(3)
    trace = ObjectTrace(rng.integers(0, 300, 3000), rng.integers(16, 400, 3000))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in sorted(SOFTWARE_POLICIES):
            policy = make_software_policy(name)
            result = run_object_cache(trace, policy, 8192)
            assert result.stats.fills > 0
            del result
            assert caches[-1]() is None, name
            assert policy.cache is None
            with pytest.raises(RuntimeError):
                ObjectCache(8192, policy)
    finally:
        if was_enabled:
            gc.enable()
    assert len(caches) == len(SOFTWARE_POLICIES)


def test_policy_cache_is_a_read_only_weak_back_reference():
    policy = SizeAwareLRUPolicy()
    assert policy.cache is None
    cache = ObjectCache(100, policy)
    assert policy.cache is cache
    policy.bind(cache)  # rebinding the same cache is a no-op
    with pytest.raises(AttributeError):
        policy.cache = None
