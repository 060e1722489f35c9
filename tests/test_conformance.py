"""Cross-engine conformance: reference vs fast vs vector vs chunked.

A seeded randomized sweep over (policy x geometry x workload generator)
asserting that every way to drive a simulation — the reference
per-``Access`` loop, each engine under test (``fast`` and the columnar
``vector`` tier by default), and each engine fed through a chunked
:class:`TraceStream` — produces identical statistics (hits, misses,
evictions, bypasses, instructions). The shared-LLC variant additionally
pins the thread-freeze rule across the one-shot and chunked paths.

The engines compared against reference come from the
``REPRO_CONFORMANCE_ENGINES`` environment variable (comma-separated,
default ``"fast,vector"``) so CI can run each engine as its own matrix
column. Policies the columnar module does not vectorize fall back to the
fast path inside the vector engine — the vector column therefore sweeps
*every* registered policy, proving the fallback seam too.

Every run also records a windowed time series (``window_size=``): the
per-window payloads must be bit-identical across all three paths
(window boundaries sit at absolute positions, so chunking cannot shift
them) and the sum of the windows must equal the end-of-run aggregates.

The full sweep (every registered policy plus the PDP configurations of
``PDP_VARIANTS``, several seeds) is marked
``conformance`` + ``slow`` and runs in CI's conformance job; a small
unmarked smoke subset keeps the default tier-1 gate exercising the
machinery.
"""

from __future__ import annotations

import os
import random
import zlib
from functools import partial

import numpy as np
import pytest

from repro.core.pdp_policy import PDPPolicy
from repro.memory.cache import CacheGeometry
from repro.obs.timeseries import windows_from_payload
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.policies.base import make_policy, registered_policies
from repro.policies.belady import BeladyPolicy
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace
from repro.workloads.mixes import interleave_traces
from repro.workloads.streams import (
    cyclic_loop,
    random_working_set,
    sequential_stream,
    thrash_loop,
)

#: Policies whose constructors need a thread count (shared-cache only).
MULTITHREAD = {"pd-partition", "pipp", "ta-drrip", "ucp"}

#: PDP configurations beyond the registered ``pdp``, one per path of the
#: vector kernel's general loop: S_d > 1 (PDP-2, PDP-3), the inclusive
#: fallback, ``insertion_pd=1`` and the full sampler. The short interval
#: makes every run recompute its PD several times.
PDP_VARIANTS = {
    "pdp-2": partial(PDPPolicy, n_c=2, recompute_interval=1024),
    "pdp-3": partial(PDPPolicy, n_c=3, recompute_interval=1024),
    "pdp-nb": partial(PDPPolicy, bypass=False, recompute_interval=1024),
    "pdp-ins1": partial(PDPPolicy, insertion_pd=1, recompute_interval=1024),
    "pdp-full": partial(PDPPolicy, sampler_mode="full", recompute_interval=1024),
}

#: Shared-LLC configurations beyond the registered policies: Fig. 12's own
#: PD partitioning, full sampler included. The short interval makes every
#: run recompute its PD vector several times.
SHARED_VARIANTS = {
    "pd-partition-full": partial(
        PDPartitionPolicy, sampler_mode="full", recompute_interval=256
    ),
}

#: Fields of SingleCoreResult that must agree bit-for-bit across engines.
RESULT_FIELDS = ("accesses", "hits", "misses", "bypasses", "evictions", "instructions")

#: Engines compared against the reference loop (CI matrix columns set
#: $REPRO_CONFORMANCE_ENGINES to isolate one engine per job).
CONFORMANCE_ENGINES = tuple(
    engine.strip()
    for engine in os.environ.get(
        "REPRO_CONFORMANCE_ENGINES", "fast,vector"
    ).split(",")
    if engine.strip()
)


def _fresh_policy(name: str, trace: Trace):
    """A fresh policy instance for one run (policies are stateful)."""
    if name == "belady":
        return BeladyPolicy(trace.addresses, bypass=True)
    if name in MULTITHREAD:
        return make_policy(name, num_threads=2)
    if name in PDP_VARIANTS:
        return PDP_VARIANTS[name]()
    return make_policy(name)


def _rng(*key) -> random.Random:
    """A process-stable seeded RNG (``hash()`` is salted; crc32 is not)."""
    return random.Random(zlib.crc32(":".join(map(str, key)).encode()))


def _random_workload(rng: random.Random, geometry: CacheGeometry) -> Trace:
    """Draw one generator and one parameterization from the pool."""
    length = rng.randrange(2_000, 4_000)
    kind = rng.choice(["cyclic", "random", "sequential", "thrash", "mixed"])
    if kind == "cyclic":
        trace = cyclic_loop(length, working_set=rng.randrange(16, 400))
    elif kind == "random":
        trace = random_working_set(
            length, working_set=rng.randrange(32, 600), seed=rng.randrange(1 << 16)
        )
    elif kind == "sequential":
        trace = sequential_stream(length, stride=rng.choice([1, 2, 7]))
    elif kind == "thrash":
        trace = thrash_loop(
            length,
            ways=geometry.ways,
            num_sets=geometry.num_sets,
            overshoot=rng.randrange(1, 4),
        )
    else:
        nprng = np.random.default_rng(rng.randrange(1 << 16))
        hot = nprng.integers(0, 64, size=length)
        cold = nprng.integers(64, 4_000, size=length)
        addresses = np.where(nprng.random(length) < 0.6, hot, cold)
        trace = Trace(
            addresses,
            pcs=nprng.integers(0, 16, size=length),
            thread_ids=nprng.integers(0, 2, size=length),
            name="mixed",
        )
    return trace


def _random_geometry(rng: random.Random) -> CacheGeometry:
    num_sets = rng.choice([8, 16, 32])
    ways = rng.choice([4, 8, 16])
    return CacheGeometry(num_sets=num_sets, ways=ways)


def _assert_conformant(policy_name: str, trace: Trace, geometry: CacheGeometry,
                       chunk_size: int) -> None:
    """Reference and every engine under test (one-shot and chunked) must
    agree exactly — including every per-window payload of the recorded
    time series."""
    window_size = max(64, len(trace) // 5)
    reference = run_llc(
        trace, _fresh_policy(policy_name, trace), geometry, engine="reference",
        window_size=window_size,
    )
    results = {}
    for engine in CONFORMANCE_ENGINES:
        results[engine] = run_llc(
            trace, _fresh_policy(policy_name, trace), geometry, engine=engine,
            window_size=window_size,
        )
        results[f"{engine}-chunked"] = run_llc(
            TraceStream.from_trace(trace, chunk_size=chunk_size),
            _fresh_policy(policy_name, trace),
            geometry,
            engine=engine,
            window_size=window_size,
        )
    for field in RESULT_FIELDS:
        ref_value = getattr(reference, field)
        for label, result in results.items():
            assert getattr(result, field) == ref_value, (
                f"{policy_name}: {label}.{field} diverges from reference on "
                f"{trace.name} ({len(trace)} accesses, "
                f"chunk_size={chunk_size})"
            )
    ref_windows = reference.extra["timeseries"]
    for label, result in results.items():
        assert result.extra["timeseries"] == ref_windows, (
            f"{policy_name}: {label} windowed stats diverge from reference "
            f"(window_size={window_size}, chunk_size={chunk_size})"
        )
    windows = windows_from_payload(ref_windows)
    for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
        assert sum(getattr(w, field) for w in windows) == getattr(reference, field), (
            f"{policy_name}: sum of per-window {field} != aggregate"
        )


@pytest.mark.conformance
@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "policy_name", sorted(registered_policies()) + sorted(PDP_VARIANTS)
)
def test_single_core_engines_agree(policy_name: str, seed: int):
    rng = _rng("single", policy_name, seed)
    geometry = _random_geometry(rng)
    trace = _random_workload(rng, geometry)
    chunk_size = rng.randrange(64, max(65, len(trace) // 2))
    _assert_conformant(policy_name, trace, geometry, chunk_size)


@pytest.mark.parametrize("policy_name", ["lru", "srrip", "dip", "pdp", "ship"])
def test_single_core_engines_agree_smoke(policy_name: str):
    """Unmarked subset so the default (fast) gate runs the harness."""
    rng = _rng("smoke", policy_name)
    geometry = _random_geometry(rng)
    trace = _random_workload(rng, geometry)
    _assert_conformant(policy_name, trace, geometry, chunk_size=333)


def _shared_policy(name: str, traces: list[Trace]):
    """A fresh shared-LLC policy; belady sees the interleaved stream."""
    if name == "belady":
        mixed, _ = interleave_traces(traces)
        return BeladyPolicy(mixed.addresses, bypass=True)
    if name in SHARED_VARIANTS:
        return SHARED_VARIANTS[name](num_threads=len(traces))
    if name in MULTITHREAD:
        return make_policy(name, num_threads=len(traces))
    return make_policy(name)


def _assert_shared_conformant(policy_name: str, traces: list[Trace],
                              geometry: CacheGeometry, chunk_size: int) -> None:
    """Per-thread frozen statistics must agree across every path —
    including per-window shares of the recorded time series and, for the
    PDP family, the PD history. Under the vector engine a policy with a
    registered kernel runs it between freeze cuts — LRU, PDP, PD
    partitioning and UCP set-batched; DRRIP, TA-DRRIP and PIPP in
    arrival order — and every other policy proves the fast-path
    fallback."""
    total = sum(len(t) for t in traces)
    window_size = max(64, total // 5)
    singles = [1.0] * len(traces)  # skip baselines: not under test
    policies = {"reference": _shared_policy(policy_name, traces)}
    runs = {
        "reference": run_shared_llc(
            traces, policies["reference"], geometry,
            singles=singles, engine="reference", window_size=window_size,
        ),
    }
    for engine in CONFORMANCE_ENGINES:
        for label, chunking in ((engine, None), (f"{engine}-chunked", chunk_size)):
            policies[label] = _shared_policy(policy_name, traces)
            runs[label] = run_shared_llc(
                traces, policies[label], geometry,
                singles=singles, engine=engine, chunk_size=chunking,
                window_size=window_size,
            )
    reference = runs.pop("reference")
    ref_engine = getattr(policies.pop("reference"), "engine", None)
    if ref_engine is not None:
        for label, policy in policies.items():
            assert policy.engine.pd_history == ref_engine.pd_history, (
                f"{policy_name}: {label} PD history diverges from reference"
            )
    for label, result in runs.items():
        for thread, (got, want) in enumerate(zip(result.threads, reference.threads)):
            for field in ("accesses", "hits", "misses", "bypasses", "instructions"):
                assert getattr(got, field) == getattr(want, field), (
                    f"{policy_name}: {label} thread {thread} {field} diverges "
                    f"from reference (chunk_size={chunk_size})"
                )
    ref_windows = reference.extra["timeseries"]
    for label, result in runs.items():
        assert result.extra["timeseries"] == ref_windows, (
            f"{policy_name}: {label} shared windowed stats diverge from "
            f"reference (window_size={window_size}, chunk_size={chunk_size})"
        )
    # Per-window thread shares must sum to the frozen per-thread aggregates.
    windows = windows_from_payload(ref_windows)
    for thread, want in enumerate(reference.threads):
        for field, slot in (("accesses", "thread_accesses"),
                            ("hits", "thread_hits"),
                            ("misses", "thread_misses"),
                            ("bypasses", "thread_bypasses")):
            summed = sum(
                (getattr(w, slot) or [0] * len(traces))[thread] for w in windows
            )
            assert summed == getattr(want, field), (
                f"{policy_name}: thread {thread} per-window {field} sum "
                f"!= frozen aggregate"
            )


@pytest.mark.conformance
@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy_name", sorted(registered_policies()))
def test_shared_llc_engines_agree(policy_name: str, seed: int):
    rng = _rng("shared", policy_name, seed)
    geometry = _random_geometry(rng)
    # Unequal lengths so the two threads freeze at different positions —
    # the chunked path must freeze against absolute stream positions.
    traces = [
        _random_workload(rng, geometry).slice(0, rng.randrange(1_000, 2_000)),
        _random_workload(rng, geometry).slice(0, rng.randrange(500, 1_500)),
    ]
    chunk_size = rng.randrange(97, 1_111)
    _assert_shared_conformant(policy_name, traces, geometry, chunk_size)


@pytest.mark.parametrize(
    "policy_name", ["lru", "ucp", "ta-drrip", "pd-partition-full"]
)
def test_shared_llc_engines_agree_smoke(policy_name: str):
    rng = _rng("shared-smoke", policy_name)
    geometry = CacheGeometry(num_sets=16, ways=8)
    traces = [
        _random_workload(rng, geometry).slice(0, 1_200),
        _random_workload(rng, geometry).slice(0, 700),
    ]
    _assert_shared_conformant(policy_name, traces, geometry, chunk_size=251)
