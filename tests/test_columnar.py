"""Vector-engine specifics the conformance sweep does not cover.

Two properties pin the columnar engine's structure (beyond the
bit-identical-stats contract already swept by ``test_conformance.py``):

- **Set-order invariance**: sets are independent, so processing the
  set batches of a chunk in *any* permutation must leave identical
  statistics and identical per-set cache/policy state.
- **The sampler feed**: the PDP kernel runs the RD sampler's loop
  inline on the sampler's own FIFOs, so after a run the sampler must
  hold what per-access ``observe`` calls would have left there.
- **The tier decision**: ``engine_tier`` must classify attached
  policies correctly (exact-type dispatch, the dynamic-PDP freeze
  rule); a policy it refuses must run the fast path under
  ``engine="vector"`` with identical results and record ``engine_ran:
  "fast"``; ``run_llc`` and ``run_shared_llc`` must each ask it exactly
  once per run; and the vector entry points must refuse a policy with
  no kernel.
- **The shared path**: PD partitioning (one access class per thread)
  set-batched between freeze cuts must match the reference loop per
  thread and in its PD history, under any set order, and must fall
  back to the fast path when its counters could freeze mid-epoch.
- **UCP**: its kernel must match the fast path at 4 and 16 cores, in
  thread stats, every allocation, stamp, clock, owner and UMON counter,
  under any set order, chunked, windowed, and with engines switched
  between slices.
- **The arrival-order kernels**: DRRIP, TA-DRRIP (4 and 16 threads) and
  PIPP (4 and 16 threads) must match the fast path in thread stats,
  RRPV rows, PSELs (saturating at both ends), RNG state, PIPP's
  priority rows, allocations, streaming flags, interval counters and
  UMONs, chunked, windowed and across engine switches; and they must
  refuse a ``set_order``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.columnar import (
    engine_tier,
    run_shared_trace_vector,
    run_trace_vector,
)
from repro.memory.fastpath import run_shared_trace, run_trace
from repro.obs.manifest import scan_manifests
from repro.obs.metrics import METRICS
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.partitioning.pipp import PIPPPolicy
from repro.partitioning.ucp import UCPPolicy
from repro.policies.base import make_policy
from repro.policies.lip_bip_dip import DIPPolicy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ta_drrip import TADRRIPPolicy
from repro.policies.lru import LRUPolicy
from repro.sim import multi_core, single_core
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace
from repro.workloads.mixes import generate_mixes, interleave_traces
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.streams import random_working_set

GEOMETRY = CacheGeometry(num_sets=16, ways=4)

POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "pdp-static": lambda: PDPPolicy(static_pd=24),
    "pdp-dynamic": lambda: PDPPolicy(recompute_interval=777),
    # The PDP kernel's general loop: S_d > 1, the inclusive fallback,
    # insertion_pd=1 and the full sampler.
    "pdp-2": lambda: PDPPolicy(n_c=2, recompute_interval=777),
    "pdp-3": lambda: PDPPolicy(n_c=3, recompute_interval=777),
    "pdp-nb": lambda: PDPPolicy(bypass=False, recompute_interval=777),
    "pdp-ins1": lambda: PDPPolicy(insertion_pd=1, recompute_interval=777),
    "pdp-full": lambda: PDPPolicy(sampler_mode="full", recompute_interval=777),
}


def _trace(length: int = 6_000, seed: int = 7):
    return random_working_set(length, working_set=300, seed=seed)


def _state_snapshot(cache: SetAssociativeCache) -> tuple:
    """Everything set-order could plausibly disturb: statistics plus the
    full per-set hook-visible state."""
    return (
        cache.stats.accesses,
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.bypasses,
        cache.stats.evictions,
        cache.stats.fills,
        [list(row) for row in cache.tags],
        [list(row) for row in cache.valid],
        [list(row) for row in cache.reused],
        list(cache.set_accesses),
    )


class TestSetOrderInvariance:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_set_permutation_is_equivalent(self, policy_name, seed):
        trace = _trace(seed=seed)
        baseline = SetAssociativeCache(GEOMETRY, POLICY_FACTORIES[policy_name]())
        run_trace_vector(baseline, trace)
        want = _state_snapshot(baseline)
        rng = random.Random(seed)
        for _ in range(3):
            order = list(range(GEOMETRY.num_sets))
            rng.shuffle(order)
            cache = SetAssociativeCache(GEOMETRY, POLICY_FACTORIES[policy_name]())
            run_trace_vector(cache, trace, set_order=order)
            assert _state_snapshot(cache) == want, (
                f"{policy_name}: set order {order} changed the outcome"
            )

    def test_incomplete_set_order_rejected(self):
        trace = _trace(length=500)
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        present = sorted({int(a) % GEOMETRY.num_sets for a in trace.addresses})
        with pytest.raises(ValueError):
            run_trace_vector(cache, trace, set_order=present[:-1])


def _live_fifos(sampler) -> dict:
    """Each sampled set's live FIFO entries as address -> position, plus
    its sampling counter."""
    return {
        s: (
            {
                address: fifo.pushes - 1 - stamp
                for address, stamp in fifo.stamps.items()
                if fifo.pushes - 1 - stamp < fifo.length
            },
            fifo.length,
            sampler._sampling_counter[s],
        )
        for s, fifo in sampler._fifos.items()
    }


class TestSamplerFeed:
    @pytest.mark.parametrize("sampler_mode", ["real", "full"])
    def test_prune_then_tail_probe_matches_per_access_feed(self, sampler_mode):
        """Unique addresses in one set until the stamp map prunes, then
        a reuse of the FIFO's oldest live entry, where the prune cutoff
        sits; then a random tail. RD counts and FIFO state must match
        the per-access path."""
        def policy():
            return PDPPolicy(sampler_mode=sampler_mode, recompute_interval=60_000)

        model = SetAssociativeCache(GEOMETRY, policy()).policy.engine.sampler
        fifo = model._fifos[0]
        addresses = []
        while True:  # model the feed to find the first prune in set 0
            addresses.append((len(addresses) + 1) * GEOMETRY.num_sets)
            before = len(fifo.stamps)
            model.observe(0, addresses[-1])
            if len(fifo.stamps) < before:
                break
        oldest = min(fifo.stamps, key=fifo.stamps.get)
        addresses.append(oldest)
        addresses.extend(int(a) for a in _trace(length=3_000).addresses)
        trace = Trace(addresses)
        runs = {}
        for label, run in (("fast", run_trace), ("vector", run_trace_vector)):
            cache = SetAssociativeCache(GEOMETRY, policy())
            run(cache, trace)
            engine = cache.policy.engine
            (counters,) = engine.class_counters
            runs[label] = (
                counters.counts.tolist(),
                counters.total,
                _live_fifos(engine.sampler),
                engine.pd_history,
            )
        assert runs["vector"] == runs["fast"]


def _tier(policy, engine: str = "vector", geometry=GEOMETRY) -> str:
    """The tier :func:`engine_tier` picks once a cache attaches ``policy``."""
    return engine_tier(SetAssociativeCache(geometry, policy), engine)


class TestFallbackSeam:
    @pytest.mark.parametrize("policy_name", ["dip", "fifo", "mru", "srrip"])
    def test_unknown_policy_falls_back_and_matches_fast(self, policy_name):
        trace = _trace()
        assert _tier(make_policy(policy_name)) == "fast"
        fast = run_llc(trace, make_policy(policy_name), GEOMETRY, engine="fast")
        vector = run_llc(
            trace, make_policy(policy_name), GEOMETRY, engine="vector"
        )
        for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
            assert getattr(vector, field) == getattr(fast, field)

    def test_subclass_falls_back(self):
        class TracingLRU(LRUPolicy):
            pass

        # Exact-type dispatch: a subclass may override hooks the kernel
        # never calls, so it must take the fast path.
        assert _tier(TracingLRU()) == "fast"
        trace = _trace(length=2_000)
        fast = run_llc(trace, TracingLRU(), GEOMETRY, engine="fast")
        vector = run_llc(trace, TracingLRU(), GEOMETRY, engine="vector")
        assert (vector.hits, vector.misses) == (fast.hits, fast.misses)

    def test_supported_policies_are_vectorizable(self):
        for name, factory in POLICY_FACTORIES.items():
            assert _tier(factory()) == "vector", name
            for engine in ("fast", "reference"):
                assert _tier(factory(), engine) == engine, name

    def test_kernel_is_built_once_per_cache(self):
        cache = SetAssociativeCache(GEOMETRY, LRUPolicy())
        assert engine_tier(cache, "vector") == "vector"
        kernel = cache._vector_kernel
        assert engine_tier(cache, "vector") == "vector"
        assert cache._vector_kernel is kernel

    def test_dynamic_pdp_freeze_gate(self):
        # An epoch longer than the RD counters can count saturates the
        # sampling counters mid-epoch; the kernel declines such configs.
        assert _tier(PDPPolicy(recompute_interval=1 << 20)) == "fast"
        assert _tier(PDPPolicy(recompute_interval=(1 << 16) - 1)) == "vector"
        # The gate reads the attached counters: a frozen class declines.
        policy = PDPPolicy(recompute_interval=1024)
        cache = SetAssociativeCache(GEOMETRY, policy)
        policy.engine.class_counters[0].frozen = True
        assert engine_tier(cache, "vector") == "fast"

    def test_fallbacks_are_counted_per_policy_type(self):
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        try:
            for policy in (DIPPolicy(), DIPPolicy(), LRUPolicy()):
                _tier(policy)
            _tier(DIPPolicy(), "fast")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        fallbacks = {k: v for k, v in counters.items() if ".fallback." in k}
        assert fallbacks == {"columnar.fallback.DIPPolicy": 2}

    def test_vector_entry_points_refuse_a_policy_without_kernel(self):
        trace = _trace(length=500)
        cache = SetAssociativeCache(GEOMETRY, DIPPolicy())
        with pytest.raises(ValueError, match="engine_tier"):
            run_trace_vector(cache, trace)
        assert cache.stats.accesses == 0
        mixed, completion = interleave_traces([_trace(length=300, seed=s) for s in (1, 2)])
        cache = SetAssociativeCache(GEOMETRY, DIPPolicy())
        with pytest.raises(ValueError, match="engine_tier"):
            run_shared_trace_vector(cache, mixed, completion)
        assert cache.stats.accesses == 0

    @pytest.mark.parametrize("engine", ["vector", "fast", "reference"])
    def test_each_run_asks_engine_tier_once(self, monkeypatch, engine):
        calls = []

        def counting(cache, requested):
            calls.append(requested)
            return engine_tier(cache, requested)

        monkeypatch.setattr(single_core, "engine_tier", counting)
        monkeypatch.setattr(multi_core, "engine_tier", counting)
        trace = _trace(length=3_000)
        # Three chunks, each cut again at window boundaries.
        stream = TraceStream(
            lambda: (trace.slice(i, i + 1_000) for i in range(0, 3_000, 1_000)),
            name=trace.name,
        )
        run_llc(stream, PDPPolicy(recompute_interval=512), GEOMETRY,
                engine=engine, window_size=700)
        assert calls == [engine]
        calls.clear()
        run_shared_llc(
            [_trace(length=900, seed=1), _trace(length=700, seed=2)],
            PDPartitionPolicy(num_threads=2, recompute_interval=512),
            GEOMETRY, singles=[1.0, 1.0], engine=engine, chunk_size=256,
            window_size=300,
        )
        assert calls == [engine]

    @pytest.mark.parametrize(
        "policy, ran", [(DIPPolicy, "fast"), (LRUPolicy, "vector")]
    )
    def test_manifest_records_the_tier_that_ran(self, tmp_path, policy, ran):
        run_llc(_trace(length=1_000), policy(), GEOMETRY, manifest_dir=tmp_path)
        (manifest,) = scan_manifests(tmp_path).manifests
        assert (manifest.engine, manifest.engine_ran) == ("vector", ran)


#: Fig. 12's shared LLC for four cores at 16 sets per core.
SHARED_GEOMETRY = CacheGeometry(num_sets=64, ways=16)

#: Four threads of unequal length, so each freezes at its own position.
SHARED_MIX = (
    ("403.gcc", 3_000),
    ("429.mcf", 3_600),
    ("450.soplex", 2_400),
    ("436.cactusADM", 3_200),
)


def _shared_traces() -> list[Trace]:
    return [
        make_benchmark_trace(
            name, length=length, num_sets=SHARED_GEOMETRY.num_sets, seed=slot
        )
        for slot, (name, length) in enumerate(SHARED_MIX)
    ]


def _pd_partition(recompute_interval: int = 4_096) -> PDPartitionPolicy:
    """Fig. 12's PD partitioning: full sampler, one class per thread."""
    return PDPartitionPolicy(
        num_threads=4, sampler_mode="full", recompute_interval=recompute_interval
    )


def _policy_state(policy) -> tuple:
    """The hook-visible PDP state: every line's RPD, the per-set step
    counters and the PD history."""
    return (
        [
            [policy.rpd_of(s, w) for w in range(SHARED_GEOMETRY.ways)]
            for s in range(SHARED_GEOMETRY.num_sets)
        ],
        list(policy._step_counter),
        policy.engine.pd_history,
    )


class TestSharedPath:
    def test_pd_partition_vector_matches_reference_per_thread(self):
        traces = _shared_traces()
        runs, policies = {}, {}
        for engine in ("reference", "vector"):
            policies[engine] = _pd_partition()
            assert engine_tier(
                SetAssociativeCache(SHARED_GEOMETRY, _pd_partition()), engine
            ) == engine
            runs[engine] = run_shared_llc(
                traces, policies[engine], SHARED_GEOMETRY,
                singles=[1.0] * 4, engine=engine,
            )
        history = policies["reference"].engine.pd_history
        assert len(history) >= 3, "the mix must cross at least 2 recomputes"
        assert len({pds for _, pds in history}) > 1
        for thread, (got, want) in enumerate(
            zip(runs["vector"].threads, runs["reference"].threads)
        ):
            for field in ("accesses", "hits", "misses", "bypasses"):
                assert getattr(got, field) == getattr(want, field), (
                    f"thread {thread} {field}"
                )
        assert _policy_state(policies["vector"]) == _policy_state(
            policies["reference"]
        )

    def test_any_set_permutation_is_equivalent(self):
        mixed, completion = interleave_traces(_shared_traces())

        def run(set_order):
            policy = _pd_partition(recompute_interval=2_048)
            cache = SetAssociativeCache(SHARED_GEOMETRY, policy)
            totals = run_shared_trace_vector(
                cache, mixed, completion, set_order=set_order
            )
            return totals, _state_snapshot(cache), _policy_state(policy)

        want = run(None)
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(SHARED_GEOMETRY.num_sets))
            rng.shuffle(order)
            assert run(order) == want, f"set order {order} changed the outcome"

    def test_freezable_interval_falls_back_to_fast(self, monkeypatch):
        """Four classes with an epoch longer than a counter can count:
        the kernel declines, and ``engine="vector"`` runs the fast path
        with identical per-thread results."""
        interval = (1 << 16) + 1
        assert _tier(_pd_partition(interval), geometry=SHARED_GEOMETRY) == "fast"

        def refuse(*args, **kwargs):
            raise AssertionError("a freezable config reached the vector kernel")

        monkeypatch.setattr(multi_core, "run_shared_trace_vector", refuse)
        traces = _shared_traces()
        fast, vector = (
            run_shared_llc(
                traces, _pd_partition(interval), SHARED_GEOMETRY,
                singles=[1.0] * 4, engine=engine,
            )
            for engine in ("fast", "vector")
        )
        for got, want in zip(vector.threads, fast.threads):
            assert (got.accesses, got.hits, got.misses, got.bypasses) == (
                want.accesses, want.hits, want.misses, want.bypasses
            )


def _ucp_traces(cores: int, length: int) -> list[Trace]:
    """One Fig. 12 mix of ``cores`` threads, each a little shorter than
    the last, so every thread freezes at its own position."""
    (mix,) = generate_mixes(1, cores=cores, seed=11)
    return [
        make_benchmark_trace(
            name, length=length - 37 * slot, num_sets=16 * cores, seed=slot
        )
        for slot, name in enumerate(mix.benchmarks)
    ]


def _recording(policy, snapshot):
    """``policy`` with a ``history`` that gets ``snapshot(policy)`` after
    every ``repartition`` (an instance attribute, so the exact type keeps
    its kernel)."""
    policy.history = []
    repartition = policy.repartition

    def recording():
        result = repartition()
        policy.history.append(snapshot(policy))
        return result

    policy.repartition = recording
    return policy


def _ucp(cores: int, interval: int) -> UCPPolicy:
    """A UCP policy that records every allocation ``repartition`` makes."""
    return _recording(
        UCPPolicy(num_threads=cores, repartition_interval=interval),
        lambda policy: list(policy.allocation),
    )


def _ucp_state(policy) -> tuple:
    """Everything a UCP run leaves behind: the allocation history, the
    recency stamps and clocks, the owners, and each UMON's stacks and
    counters."""
    return (
        policy.history,
        policy.allocation,
        policy._accesses,
        [list(row) for row in policy._stamp],
        list(policy._clock),
        [list(row) for row in policy.cache.owner],
        _umon_state(policy.monitors),
    )


def _umon_state(monitors) -> list[tuple]:
    """Each UMON's counters and sampled-set stacks."""
    return [
        (
            monitor.position_hits.tolist(),
            monitor.accesses,
            monitor.misses,
            {s: list(stack) for s, stack in monitor._stacks.items()},
        )
        for monitor in monitors
    ]


def _thread_stats(result) -> list[tuple]:
    return [
        (t.accesses, t.hits, t.misses, t.bypasses) for t in result.threads
    ]


class TestUCPKernel:
    """UCP on the vector tier: UMON fed set-grouped per (set, thread),
    lookahead at the reference's epochs, the quota rule on per-thread
    recency queues — all on the policy's own state."""

    @pytest.mark.parametrize("cores, length", [(4, 3_000), (16, 1_500)])
    @pytest.mark.parametrize("interval", [4_096, 1_000])
    def test_vector_matches_fast(self, cores, length, interval):
        traces = _ucp_traces(cores, length)
        geometry = CacheGeometry(num_sets=16 * cores, ways=16)
        assert _tier(_ucp(cores, interval), geometry=geometry) == "vector"
        runs = {}
        for engine in ("fast", "vector"):
            policy = _ucp(cores, interval)
            result = run_shared_llc(
                traces, policy, geometry, singles=[1.0] * cores, engine=engine
            )
            runs[engine] = (_thread_stats(result), _ucp_state(policy))
        history = runs["fast"][1][0]
        assert len(history) >= 2, "the mix must cross at least 2 repartitions"
        if cores < geometry.ways:  # 16 threads x 1-way floor fill 16 ways
            assert len({tuple(a) for a in history}) > 1
        assert runs["vector"] == runs["fast"]

    def test_any_set_permutation_is_equivalent(self):
        mixed, completion = interleave_traces(_ucp_traces(4, 3_000))

        def run(set_order):
            policy = _ucp(4, 1_000)
            cache = SetAssociativeCache(SHARED_GEOMETRY, policy)
            totals = run_shared_trace_vector(
                cache, mixed, completion, set_order=set_order
            )
            return totals, _state_snapshot(cache), _ucp_state(policy)

        want = run(None)
        rng = random.Random(9)
        for _ in range(3):
            order = list(range(SHARED_GEOMETRY.num_sets))
            rng.shuffle(order)
            assert run(order) == want, f"set order {order} changed the outcome"

    def test_chunked_and_windowed_match_one_shot(self):
        """Chunks of 3,001 cut epochs of 1,000 mid-way; windows of 2,500
        cut both again and attach an observer. Stats and state match the
        one-shot run, and the windows match the fast path's."""
        traces = _ucp_traces(4, 3_000)

        def run(engine, **kwargs):
            policy = _ucp(4, 1_000)
            result = run_shared_llc(
                traces, policy, SHARED_GEOMETRY, singles=[1.0] * 4,
                engine=engine, **kwargs,
            )
            return result, (_thread_stats(result), _ucp_state(policy))

        _, want = run("vector")
        _, chunked = run("vector", chunk_size=3_001)
        assert chunked == want
        windowed, state = run("vector", window_size=2_500)
        assert state == want
        fast_windowed, _ = run("fast", window_size=2_500)
        assert windowed.extra["timeseries"] == fast_windowed.extra["timeseries"]

    def test_engines_can_switch_between_slices(self):
        """Vector, then fast, then vector on one cache: the kernel keeps
        no state of its own, so the run equals one fast pass."""
        mixed, completion = interleave_traces(_ucp_traces(4, 3_000))
        cuts = [0, 4_003, 8_117, len(mixed)]
        policy = _ucp(4, 1_000)
        cache = SetAssociativeCache(SHARED_GEOMETRY, policy)
        totals = [[0] * 4 for _ in range(4)]
        engines = (run_shared_trace_vector, run_shared_trace, run_shared_trace_vector)
        for run, lo, hi in zip(engines, cuts, cuts[1:]):
            part = run(cache, mixed.slice(lo, hi), completion, position_offset=lo)
            for total, counts in zip(totals, part):
                for thread, count in enumerate(counts):
                    total[thread] += count
        reference_policy = _ucp(4, 1_000)
        reference = SetAssociativeCache(SHARED_GEOMETRY, reference_policy)
        want = run_shared_trace(reference, mixed, completion)
        assert totals == want
        assert _state_snapshot(cache) == _state_snapshot(reference)
        assert _ucp_state(policy) == _ucp_state(reference_policy)

    def test_hits_on_another_threads_line(self):
        """Mixes give each thread a private address space; here three
        threads (ids up to 5, so the modulo matters) share one working
        set, so hits land on lines another thread filled and must
        refresh the *owner's* recency queue."""
        rng = random.Random(3)
        n = 6_000
        trace = Trace(
            [rng.randrange(200) for _ in range(n)],
            thread_ids=[rng.randrange(6) for _ in range(n)],
        )
        completion = [n] * 6
        runs = []
        for run in (run_shared_trace, run_shared_trace_vector):
            policy = _ucp(3, 500)
            cache = SetAssociativeCache(GEOMETRY, policy)
            totals = run(cache, trace, completion)
            runs.append((totals, _state_snapshot(cache), _ucp_state(policy)))
        assert runs[1] == runs[0]


def _pipp(cores: int, theta_m: int) -> PIPPPolicy:
    """PIPP at a 1,000-access epoch that records each epoch end's
    allocation and streaming flags."""
    return _recording(
        PIPPPolicy(num_threads=cores, theta_m=theta_m, repartition_interval=1_000),
        lambda policy: (list(policy.allocation), list(policy.streaming)),
    )


def _duels(policy) -> list:
    """The policy's set-dueling monitors: one for DRRIP, one per thread
    for TA-DRRIP."""
    return policy._sdms if isinstance(policy, TADRRIPPolicy) else [policy._sdm]


def _saturated_votes(policy) -> list[str]:
    """Log each leader-set miss cast at a saturated PSEL: ``"max"`` for
    a leader-A miss at ``psel_max``, ``"min"`` for a leader-B miss at 0.
    Wraps ``record_miss`` per instance, which only the fast path calls."""
    votes: list[str] = []
    for sdm in _duels(policy):
        record_miss = sdm.record_miss

        def logging(set_index, sdm=sdm, record_miss=record_miss):
            role = sdm.role(set_index)
            if role == sdm.LEADER_A and sdm.psel == sdm.psel_max:
                votes.append("max")
            elif role == sdm.LEADER_B and sdm.psel == 0:
                votes.append("min")
            record_miss(set_index)

        sdm.record_miss = logging
    return votes


def _ordered_state(policy) -> tuple:
    """Everything an arrival-order run leaves behind: the cache rows and
    the RNG state, then the RRPV rows and every PSEL (DRRIP, TA-DRRIP)
    or the priority rows, allocation history, streaming flags, interval
    counters and UMONs (PIPP)."""
    cache = policy.cache
    common = (
        _state_snapshot(cache),
        [list(row) for row in cache.owner],
        [list(row) for row in cache._interval_start],
        policy._rng.getstate(),
    )
    if isinstance(policy, PIPPPolicy):
        return common + (
            policy.history,
            policy.allocation,
            policy.streaming,
            policy._accesses,
            policy._interval_accesses,
            policy._interval_misses,
            [list(row) for row in policy._order],
            _umon_state(policy.monitors),
        )
    return common + (
        [list(row) for row in policy._rrpv],
        [sdm.psel for sdm in _duels(policy)],
    )


#: Shared-LLC arrival-order policies, by name: (cores, theta_m) -> policy.
ORDERED_SHARED = {
    "ta-drrip-m1": lambda cores, theta_m: TADRRIPPolicy(
        num_threads=cores, m_bits=1, psel_bits=2
    ),
    "ta-drrip-m3": lambda cores, theta_m: TADRRIPPolicy(
        num_threads=cores, m_bits=3, psel_bits=2
    ),
    "pipp": lambda cores, theta_m: _pipp(cores, theta_m),
}

#: (cores, per-thread length, PIPP theta_m): each theta_m is low enough
#: that threads turn streaming, and back, within the mix.
ORDERED_MIXES = [(4, 3_000, 240), (16, 1_500, 16)]


class TestOrderedKernels:
    """DRRIP, TA-DRRIP and PIPP on the vector tier: every hook inlined
    and replayed in arrival order, so each RNG draw and PSEL vote lands
    where the fast path puts it; PIPP's UMON is fed set-grouped at
    UCP's epochs."""

    @pytest.mark.parametrize("m_bits, psel_bits", [(1, 2), (3, 2), (2, 10)])
    def test_drrip_vector_matches_fast(self, m_bits, psel_bits):
        trace = make_benchmark_trace("403.gcc", length=20_000, num_sets=64)
        geometry = CacheGeometry(num_sets=64, ways=16)
        assert _tier(DRRIPPolicy(), geometry=geometry) == "vector"
        states = {}
        for engine, run in (("fast", run_trace), ("vector", run_trace_vector)):
            policy = DRRIPPolicy(m_bits=m_bits, psel_bits=psel_bits)
            cache = SetAssociativeCache(geometry, policy)
            votes = _saturated_votes(policy)
            run(cache, trace)
            states[engine] = _ordered_state(policy)
            if engine == "fast" and psel_bits == 2:
                # The PSEL saturates at both ends during the run.
                assert {"max", "min"} <= set(votes)
        assert states["vector"] == states["fast"]

    @pytest.mark.parametrize("m_bits", [2, 3])
    def test_drrip_ages_a_fully_promoted_set_in_one_step(self, m_bits):
        """Rounds of four new lines per set, each touched three times:
        by a round's end every line of a set is hit-promoted to 0, so
        the next round's first miss must age the row by ``rrpv_max``
        before a victim appears. The benchmark traces rarely get there."""
        rng = random.Random(4)
        sets, ways = GEOMETRY.num_sets, GEOMETRY.ways
        addresses = []
        for round_ in range(30):
            lines = [
                (round_ * ways + k) * sets + s for s in range(sets) for k in range(ways)
            ]
            touches = lines * 3
            rng.shuffle(touches)
            addresses.extend(touches)
        trace = Trace(addresses)
        states = {}
        for engine, run in (("fast", run_trace), ("vector", run_trace_vector)):
            policy = DRRIPPolicy(m_bits=m_bits, psel_bits=2)
            cache = SetAssociativeCache(GEOMETRY, policy)
            tops = []
            if engine == "fast":  # the fast path calls the instance's hook
                choose_victim = policy.choose_victim

                def logging(set_index, access):
                    tops.append(max(policy._rrpv[set_index]))
                    return choose_victim(set_index, access)

                policy.choose_victim = logging
            run(cache, trace)
            states[engine] = _ordered_state(policy)
            if engine == "fast":
                assert min(tops) == 0, "no eviction found a fully promoted row"
        assert states["vector"] == states["fast"]

    @pytest.mark.parametrize("cores, length, theta_m", ORDERED_MIXES)
    @pytest.mark.parametrize("name", sorted(ORDERED_SHARED))
    def test_shared_vector_matches_fast(self, name, cores, length, theta_m):
        traces = _ucp_traces(cores, length)
        geometry = CacheGeometry(num_sets=16 * cores, ways=16)
        factory = ORDERED_SHARED[name]
        assert _tier(factory(cores, theta_m), geometry=geometry) == "vector"
        runs = {}
        for engine in ("fast", "vector"):
            policy = factory(cores, theta_m)
            result = run_shared_llc(
                traces, policy, geometry, singles=[1.0] * cores, engine=engine
            )
            runs[engine] = (_thread_stats(result), _ordered_state(policy))
        if name == "pipp":
            flags = {tuple(streaming) for _, streaming in policy.history}
            assert any(any(f) for f in flags), "no thread ever streams"
            assert len(flags) > 1, "the streaming flags never change"
        assert runs["vector"] == runs["fast"]

    @pytest.mark.parametrize("name", sorted(ORDERED_SHARED))
    def test_shared_chunked_and_windowed_match_one_shot(self, name):
        """Chunks of 3,001 cut PIPP's 1,000-access epochs mid-way;
        windows of 2,500 cut both again and attach an observer. Stats
        and state match the one-shot run, and the windows match the
        fast path's."""
        cores, length, theta_m = ORDERED_MIXES[0]
        traces = _ucp_traces(cores, length)

        def run(engine, **kwargs):
            policy = ORDERED_SHARED[name](cores, theta_m)
            result = run_shared_llc(
                traces, policy, SHARED_GEOMETRY, singles=[1.0] * cores,
                engine=engine, **kwargs,
            )
            return result, (_thread_stats(result), _ordered_state(policy))

        _, want = run("vector")
        _, chunked = run("vector", chunk_size=3_001)
        assert chunked == want
        windowed, state = run("vector", window_size=2_500)
        assert state == want
        fast_windowed, _ = run("fast", window_size=2_500)
        assert windowed.extra["timeseries"] == fast_windowed.extra["timeseries"]

    def test_drrip_chunked_windowed_and_observed_match_fast(self):
        """Single core: 3,001-access chunks, 2,500-access windows and an
        occupancy observer, against the fast path's run."""
        trace = make_benchmark_trace("429.mcf", length=12_000, num_sets=64)
        geometry = CacheGeometry(num_sets=64, ways=16)
        stream = TraceStream(
            lambda: (trace.slice(i, i + 3_001) for i in range(0, len(trace), 3_001)),
            name=trace.name,
        )
        runs = {}
        for engine in ("fast", "vector"):
            policy = DRRIPPolicy(m_bits=3, psel_bits=2)
            result = run_llc(
                stream, policy, geometry, engine=engine, window_size=2_500,
                track_occupancy=True,
            )
            runs[engine] = (
                result.hits,
                result.misses,
                result.extra["timeseries"],
                _ordered_state(policy),
            )
        assert runs["vector"] == runs["fast"]

    @pytest.mark.parametrize("name", sorted(ORDERED_SHARED))
    def test_engines_can_switch_between_slices(self, name):
        """Vector, then fast, then vector on one cache: the kernel keeps
        no state of its own, so the run equals one fast pass."""
        cores, length, theta_m = ORDERED_MIXES[0]
        mixed, completion = interleave_traces(_ucp_traces(cores, length))
        cuts = [0, 4_003, 8_117, len(mixed)]
        policy = ORDERED_SHARED[name](cores, theta_m)
        cache = SetAssociativeCache(SHARED_GEOMETRY, policy)
        totals = [[0] * cores for _ in range(4)]
        engines = (run_shared_trace_vector, run_shared_trace, run_shared_trace_vector)
        for run, lo, hi in zip(engines, cuts, cuts[1:]):
            part = run(cache, mixed.slice(lo, hi), completion, position_offset=lo)
            for total, counts in zip(totals, part):
                for thread, count in enumerate(counts):
                    total[thread] += count
        reference_policy = ORDERED_SHARED[name](cores, theta_m)
        reference = SetAssociativeCache(SHARED_GEOMETRY, reference_policy)
        if name != "pipp":
            votes = _saturated_votes(reference_policy)
        want = run_shared_trace(reference, mixed, completion)
        if name != "pipp":
            # The 2-bit PSELs saturate at both ends.
            assert {"max", "min"} <= set(votes)
        assert totals == want
        assert _ordered_state(policy) == _ordered_state(reference_policy)

    def test_drrip_engines_can_switch_between_slices(self):
        trace = make_benchmark_trace("450.soplex", length=9_000, num_sets=64)
        geometry = CacheGeometry(num_sets=64, ways=16)
        policy = DRRIPPolicy(psel_bits=2)
        cache = SetAssociativeCache(geometry, policy)
        cuts = [0, 2_999, 6_007, len(trace)]
        for run, lo, hi in zip(
            (run_trace_vector, run_trace, run_trace_vector), cuts, cuts[1:]
        ):
            run(cache, trace.slice(lo, hi))
        reference_policy = DRRIPPolicy(psel_bits=2)
        run_trace(SetAssociativeCache(geometry, reference_policy), trace)
        assert _ordered_state(policy) == _ordered_state(reference_policy)

    @pytest.mark.parametrize(
        "factory",
        [DRRIPPolicy, lambda: TADRRIPPolicy(num_threads=2), lambda: _pipp(2, 16)],
        ids=["drrip", "ta-drrip", "pipp"],
    )
    def test_set_order_is_refused_before_any_state_moves(self, factory):
        mixed, completion = interleave_traces(
            [_trace(length=1_500, seed=s) for s in (1, 2)]
        )
        policy = factory()
        cache = SetAssociativeCache(GEOMETRY, policy)
        before = _ordered_state(policy)
        order = list(range(GEOMETRY.num_sets))
        with pytest.raises(ValueError, match="arrival order"):
            run_shared_trace_vector(cache, mixed, completion, set_order=order)
        with pytest.raises(ValueError, match="arrival order"):
            run_trace_vector(cache, mixed, set_order=order)
        assert cache.stats.accesses == 0
        assert _ordered_state(policy) == before
