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


def test_expired_victim_counts_as_expiration():
    cache = ObjectCache(200, SizeAwareLRUPolicy(), ttl=10.0)
    cache.access(1, 100, OP_GET, now=0.0)
    cache.access(2, 100, OP_GET, now=5.0)
    cache.access(3, 100, OP_GET, now=12.0)  # LRU victim 1 expired at 10
    assert 1 not in cache and 2 in cache and 3 in cache
    assert cache.stats.expirations == 1
    assert cache.stats.evictions == 0 and cache.stats.bytes_evicted == 0


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


# -- victim plans: refusal and the growing object -------------------------


class _EvictionLog:
    """Cache observer that lists evicted keys in eviction order."""

    def __init__(self):
        self.keys = []

    def on_hit(self, set_index, key, occupancy):
        pass

    def on_bypass(self, set_index, key):
        pass

    def on_evict(self, set_index, key, occupancy, was_reused):
        self.keys.append(key)


def _pdp_with_unprotected_head():
    """A full 600-byte PDP cache (PD 8, bypass) at position 10, where
    keys 0-2 have lost protection (300 bytes) and keys 3-5 have not."""
    policy = PDPProtectionPolicy(
        max_pd=64, bins=8, recompute_interval=1 << 30, initial_pd=8
    )
    cache = ObjectCache(600, policy)
    log = _EvictionLog()
    cache.observers.append(log)
    for key in range(6):
        cache.access(key, 100, OP_GET, float(key))
    for i in range(4):
        cache.access(5, 100, OP_GET, float(6 + i))  # keep key 5 protected
    return policy, cache, log


def test_pdp_refused_plan_leaves_victim_order_unchanged():
    """A refused plan pops the unprotected objects and pushes them all
    back: the next plan evicts exactly what it would have without the
    refusal."""
    refused_policy, refused, refused_log = _pdp_with_unprotected_head()
    plain_policy, plain, plain_log = _pdp_with_unprotected_head()
    # 400 bytes needed, 300 unprotected: refused. The twin sees a DELETE
    # of the same absent key instead (same position, no plan).
    assert not refused.access(99, 400, OP_GET, 10.0)
    assert not plain.access(99, 0, OP_DELETE, 10.0)
    assert refused.stats.bypasses == 1 and refused.stats.evictions == 0
    assert sorted(e.key for e in refused.entries()) == list(range(6))
    assert refused_policy._unprotected  # the refusal popped and restored
    for cache in (refused, plain):
        cache.access(98, 250, OP_GET, 11.0)
    assert refused_log.keys == plain_log.keys == [0, 1, 2]
    assert refused.stats.evictions == plain.stats.evictions == 3
    assert sorted(e.key for e in refused.entries()) == sorted(
        e.key for e in plain.entries()
    )
    assert refused_policy.protected_count() == plain_policy.protected_count()


def _first_candidate_cache(policy_name):
    """A full 300-byte cache holding keys 1, 2, 3 (100 bytes each, in
    that order), key 1 every policy's first victim candidate. The
    DELETEs of absent key 4 end PDP's protection (PD 8) and make key 4
    hot in TinyLFU's sketch."""
    kwargs = (
        {"max_pd": 64, "bins": 8, "recompute_interval": 1 << 30, "initial_pd": 8}
        if policy_name == "pdp"
        else {}
    )
    cache = ObjectCache(300, make_software_policy(policy_name, **kwargs))
    log = _EvictionLog()
    cache.observers.append(log)
    for key in (1, 2, 3):
        cache.access(key, 100, OP_PUT)
    for _ in range(8):
        cache.access(4, 0, OP_DELETE)
    return cache, log


@pytest.mark.parametrize("policy_name", sorted(SOFTWARE_POLICIES))
def test_put_growth_keeps_the_growing_object_when_it_is_first(policy_name):
    # Key 1 really is the first candidate: a plain fill evicts it.
    twin, twin_log = _first_candidate_cache(policy_name)
    twin.access(4, 100)
    assert twin_log.keys == [1]
    cache, log = _first_candidate_cache(policy_name)
    assert cache.access(1, 200, OP_PUT)  # grows by 100: the plan skips key 1
    assert log.keys == [2]
    assert cache.get_entry(1).size == 200 and cache.bytes_used == 300
    assert cache.stats.invalidations == 0
    for _ in range(8):
        cache.access(4, 0, OP_DELETE)
    # The skipped object went back into the victim order: a full-budget
    # fill evicts it too.
    cache.access(4, 300)
    assert 4 in cache and 1 not in cache
    assert log.keys == [2, 3, 1]
    assert cache.bytes_used == 300


@pytest.mark.parametrize("policy_name", sorted(SOFTWARE_POLICIES))
def test_committed_plan_keeps_the_excluded_object_in_order(policy_name):
    """The victim contract without the PUT's repricing on top: after a
    committed plan that skipped ``exclude``, the next plan still finds
    it first."""
    cache, log = _first_candidate_cache(policy_name)
    first = cache.get_entry(1)
    assert cache._make_room(100, 0.0, exclude=first)
    assert log.keys == [2]
    assert [entry.key for entry in cache.policy.victims(200, None)] == [1, 3]


# -- heap victim order against full-scan oracles ---------------------------


class _LRUScanPDP(PDPProtectionPolicy):
    """PDP with a full LRU-scan victim search.

    Keeps its own recency order and walks all of it on every victim
    search, skipping protected objects; a ``bypass=False`` policy then
    evicts protected objects by protect-until position (a stable sort,
    so ties stay in LRU order). The differential oracle for the
    shipped heap-indexed search; ``scans`` counts its searches.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._lru: OrderedDict[int, object] = OrderedDict()
        self.scans = 0

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

    def victims(self, to_free, exclude):
        self.scans += 1
        unprotected = []
        protected = []
        for entry in self._lru.values():
            if entry is exclude:
                continue
            if entry.pstate[0] > self._pos:
                protected.append(entry)
            else:
                unprotected.append(entry)
        candidates = unprotected
        if not self.bypass:
            protected.sort(key=lambda entry: entry.pstate[0])
            candidates += protected
        plan = []
        freed = 0
        for entry in candidates:
            if freed >= to_free:
                break
            plan.append(entry)
            freed += entry.size
        return plan if freed >= to_free else None


class _ScanGDSF(GDSFPolicy):
    """GDSF with a full-scan victim search and no heap.

    Prices objects as the shipped policy does (``pstate`` is
    ``(priority, seq)``) and takes victims in ascending
    ``(priority, seq)`` over every resident object; the clock ends at
    the last victim's priority. The differential oracle for the lazy
    heap; ``scans`` counts its searches.
    """

    def __init__(self) -> None:
        super().__init__()
        self.scans = 0

    def on_insert(self, entry, now):
        self._seq += 1
        priority = self._clock + (entry.hits + 1) / max(1, entry.size)
        entry.pstate = (priority, self._seq)

    on_hit = on_insert

    def victims(self, to_free, exclude):
        self.scans += 1
        ranked = sorted(
            (entry for entry in self.cache.entries() if entry is not exclude),
            key=lambda entry: entry.pstate,
        )
        plan = []
        freed = 0
        for entry in ranked:
            if freed >= to_free:
                break
            plan.append(entry)
            freed += entry.size
        if freed < to_free:
            return None
        self._clock = plan[-1].pstate[0]
        return plan


def _mixed_requests(seed, n=6000):
    """A seeded GET/PUT/DELETE request mix: a Zipf-ish key mix (a hot
    head that earns protection and a long tail that forces victim
    searches) with random sizes, so PUTs also grow resident objects."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        draw = rng.random()
        op = OP_GET if draw < 0.75 else OP_PUT if draw < 0.95 else OP_DELETE
        key = int(rng.zipf(1.3)) % 400
        requests.append((key, int(rng.integers(16, 700)), op, float(i)))
    return requests


def _replay_requests(policy, requests, ttl):
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
    requests = _mixed_requests(seed)
    kwargs = dict(max_pd=512, bins=32, recompute_interval=64, bypass=bypass)
    shipped = PDPProtectionPolicy(**kwargs)
    reference = _LRUScanPDP(**kwargs)
    cache, hits, growths = _replay_requests(shipped, requests, ttl)
    ref_cache, ref_hits, _ = _replay_requests(reference, requests, ttl)
    assert growths > 0
    assert reference.scans > 0  # the oracle really planned the victims
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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("ttl", [None, 300.0])
def test_gdsf_heap_victims_match_full_scan(seed, ttl):
    requests = _mixed_requests(seed)
    shipped = GDSFPolicy()
    reference = _ScanGDSF()
    cache, hits, growths = _replay_requests(shipped, requests, ttl)
    ref_cache, ref_hits, _ = _replay_requests(reference, requests, ttl)
    assert growths > 0
    assert reference.scans > 0
    assert hits == ref_hits
    assert cache.stats == ref_cache.stats
    assert cache.stats.evictions > 0
    assert sorted(e.key for e in cache.entries()) == sorted(
        e.key for e in ref_cache.entries()
    )
    assert shipped._clock == reference._clock > 0


def _watched(cache, keys, flags):
    """Yield ``keys`` to :meth:`ObjectCache.replay`, appending each
    row's hit flag to ``flags`` once the row is done (when the next key
    is pulled, or the column ends).

    A row hit exactly when the entry resident at its start had its
    ``hits`` counter raised: a stale, deleted or absent object's is
    not."""
    pending = None
    for key in keys:
        if pending is not None:
            entry, before = pending
            flags.append(entry is not None and entry.hits != before)
        entry = cache.get_entry(key)
        pending = (entry, entry.hits if entry is not None else 0)
        yield key
    if pending is not None:
        entry, before = pending
        flags.append(entry is not None and entry.hits != before)


def _small_policy(name):
    """A policy whose PD recomputes often on a 6000-request stream."""
    kwargs = (
        {"max_pd": 512, "bins": 32, "recompute_interval": 64}
        if name == "pdp"
        else {}
    )
    return make_software_policy(name, **kwargs)


@pytest.mark.parametrize("policy_name", sorted(SOFTWARE_POLICIES))
@pytest.mark.parametrize("ttl", [None, 300.0])
def test_one_replay_equals_per_request_access(policy_name, ttl):
    requests = _mixed_requests(5)
    per_request, hits, growths = _replay_requests(
        _small_policy(policy_name), requests, ttl
    )
    assert growths > 0
    batched = ObjectCache(4096, _small_policy(policy_name), ttl=ttl)
    keys, sizes, ops, timestamps = map(list, zip(*requests))
    flags = []
    batched.replay(_watched(batched, keys, flags), sizes, ops, timestamps)
    assert flags == hits
    assert batched.stats == per_request.stats
    assert batched.stats.hits > 0 and batched.stats.evictions > 0
    assert getattr(batched.policy, "pd_history", None) == getattr(
        per_request.policy, "pd_history", None
    )
    assert sorted(e.key for e in batched.entries()) == sorted(
        e.key for e in per_request.entries()
    )
    assert batched.bytes_used == per_request.bytes_used


@pytest.mark.parametrize("policy_name", sorted(SOFTWARE_POLICIES))
def test_windowed_run_equals_unwindowed_run(policy_name):
    """Window boundaries cut ``replay`` slices mid-chunk; the counters
    flushed per slice must add up to the one-slice-per-chunk run."""
    requests = _mixed_requests(6, n=5000)
    keys, sizes, ops, timestamps = map(list, zip(*requests))
    trace = ObjectTrace(keys, sizes, ops=ops, timestamps=timestamps)
    whole = run_object_cache(trace, _small_policy(policy_name), 4096, ttl=300.0)
    windowed = run_object_cache(
        trace, _small_policy(policy_name), 4096, ttl=300.0, window_size=997
    )
    assert len(windows_from_payload(windowed.extra["timeseries"])) == 6
    assert windowed.stats == whole.stats
    assert windowed.extra.get("pd_history") == whole.extra.get("pd_history")


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
