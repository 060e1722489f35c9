"""The PDP family on one engine: class-based PDP and PD partitioning.

Both are :class:`repro.core.pdp_policy.PDPPolicy` subclasses over one
multi-class :class:`repro.core.pd_engine.PDEngine`. The pins below run
each across several PD recomputes (the golden grid never recomputes
``pdp-classified`` and has no ``pd-partition`` cell) and fix the
simulated statistics and the full ``(pos, tuple(pds))`` history.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classified_pdp import ClassifiedPDPPolicy
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.partitioning.pd_partition import PDPartitionPolicy
from repro.sim.multi_core import run_shared_llc
from repro.sim.single_core import run_llc
from repro.traces.trace import Trace
from repro.types import Access
from repro.workloads.base import RDDProfile, band, fresh
from repro.workloads.mixes import WorkloadMix, make_mix_traces
from repro.workloads.synthetic import RDDProfileGenerator

GEOMETRY = CacheGeometry(64, 16)

CLASSIFIED_HISTORY = [
    (0, (16, 16, 16, 16)),
    (2048, (24, 16, 16, 16)),
    (4096, (16, 60, 16, 16)),
    (6144, (20, 60, 16, 16)),
    (8192, (20, 72, 120, 16)),
    (10240, (24, 72, 128, 16)),
    (12288, (24, 72, 156, 16)),
]

#: Two 4-core mixes: on the first the joint E_m search happens to pick
#: the PDs each thread would pick alone; on the second it does not.
PARTITION_PINS = {
    ("403.gcc", "429.mcf", "482.sphinx3", "436.cactusADM"): (
        [(810, 13190, 7827), (261, 13739, 8288), (352, 13648, 8207),
         (116, 13884, 8349)],
        (1539, 54461, 32671, 20766),
        [
            (0, (16, 16, 16, 16)),
            (8192, (32, 48, 64, 48)),
            (16384, (48, 48, 80, 48)),
            (24576, (48, 48, 80, 48)),
            (32768, (48, 48, 80, 48)),
            (40960, (48, 48, 80, 48)),
            (49152, (48, 48, 80, 48)),
        ],
    ),
    ("450.soplex", "429.mcf", "433.milc", "473.astar"): (
        [(915, 13085, 7590), (220, 13780, 8142), (0, 14000, 8307),
         (2984, 11016, 6471)],
        (4119, 51881, 30510, 20347),
        [
            (0, (16, 16, 16, 16)),
            (8192, (48, 48, 16, 32)),
            (16384, (128, 48, 16, 32)),
            (24576, (112, 48, 16, 32)),
            (32768, (128, 48, 16, 32)),
            (40960, (128, 48, 16, 32)),
            (49152, (128, 48, 16, 32)),
        ],
    ),
}


def classed_trace() -> Trace:
    """14K accesses whose PCs 0..3 (one per class) reuse at different
    distances: short, medium, long bands and a fresh stream."""
    profile = RDDProfile(
        name="classes",
        components=(
            band(8, 24, 0.20, pc_pool=1),
            band(40, 72, 0.25, pc_pool=1),
            band(100, 160, 0.20, pc_pool=1),
            fresh(0.35, pc_pool=1),
        ),
    )
    raw = RDDProfileGenerator(profile, num_sets=64, seed=1).generate(14_000)
    _, pcs = np.unique(raw.pcs, return_inverse=True)
    return Trace(raw.addresses, pcs=pcs, name="classes")


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "bypass, stats",
    [(True, (1142, 12858, 4736, 7098)), (False, (1098, 12902, 0, 11878))],
    ids=["bypass", "nb"],
)
def test_classified_pdp_pinned_across_recomputes(engine, bypass, stats):
    policy = ClassifiedPDPPolicy(
        num_classes=4, recompute_interval=2048, bypass=bypass
    )
    result = run_llc(classed_trace(), policy, GEOMETRY, engine=engine)
    assert (result.hits, result.misses, result.bypasses, result.evictions) == stats
    assert policy.engine.pd_history == CLASSIFIED_HISTORY
    assert policy.engine.pds == list(CLASSIFIED_HISTORY[-1][1])
    assert policy.current_pd is None


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "benchmarks", list(PARTITION_PINS), ids=["gcc-mix", "soplex-mix"]
)
def test_pd_partition_pinned_across_recomputes(engine, benchmarks):
    thread_stats, cache_stats, history = PARTITION_PINS[benchmarks]
    mix = WorkloadMix(name="pin4", benchmarks=benchmarks)
    traces = make_mix_traces(mix, length_per_thread=14_000, num_sets=64)
    policy = PDPartitionPolicy(
        num_threads=4, recompute_interval=8192, sampler_mode="full"
    )
    result = run_shared_llc(
        traces, policy, GEOMETRY, singles=[1.0] * 4, engine=engine
    )
    assert [(t.hits, t.misses, t.bypasses) for t in result.threads] == thread_stats
    stats = policy.cache.stats
    assert (stats.hits, stats.misses, stats.bypasses, stats.evictions) == cache_stats
    assert policy.engine.pd_history == history


def test_multi_class_windows_carry_protection_but_no_pd():
    result = run_llc(
        classed_trace(),
        ClassifiedPDPPolicy(num_classes=4, recompute_interval=2048),
        GEOMETRY,
        window_size=4096,
    )
    windows = result.extra["timeseries"]["windows"]
    assert windows
    assert all("pd" not in window for window in windows)
    assert all(window["protected_lines"] > 0 for window in windows)


class TestQuantisation:
    """Every family member quantises RPDs with ``PDPPolicy._step_for``
    applied to the largest PD in force."""

    def test_class_pd_beyond_255_protects_its_full_distance(self):
        """d_max = 512: a class PD of 400 protects for 400 accesses (S_d
        = 2, 200 RPD units), so a 400-block loop through one 4-way set
        keeps hitting the lines it protects. RPDs clamped to 255
        one-access ticks expire before the reuse and never hit. The loop
        runs in class 1, so S_d must come from the largest PD, not the
        first class's."""
        policy = ClassifiedPDPPolicy(
            num_classes=2, d_max=512, recompute_interval=2048, sampler_mode="full"
        )
        cache = SetAssociativeCache(CacheGeometry(1, 4), policy)
        hits = 0
        for index in range(12_000):
            outcome = cache.access(Access(index % 400, pc=1))
            hits += index >= 4096 and outcome.hit
        laps = (12_000 - 4096) // 400
        assert hits >= 3 * laps
        assert policy.engine.pds == [4, 400]
        assert policy.distance_step == 2
        resident = next(a for a in range(400) if cache.lookup(a) is not None)
        way = cache.access(Access(resident, pc=1)).way  # a hit: promoted
        assert policy.rpd_of(0, way) == 200

    def test_partition_small_pd_not_overprotected(self):
        """n_c = 3: a PD of 16 protects for ~16 accesses (S_d = 3, 6
        units), not one d_max/2^n_c = 32-access tick."""
        policy = PDPartitionPolicy(
            num_threads=2, n_c=3, step=4, recompute_interval=1024,
            sampler_mode="full",
        )
        cache = SetAssociativeCache(CacheGeometry(1, 16), policy)
        for index in range(1024):
            thread = index % 2
            cache.access(Access(100 * thread + (index // 2) % 8, thread_id=thread))
        assert policy.engine.pds == [16, 16]
        assert policy.distance_step == 3
        way = cache.access(Access(10_000, thread_id=0)).way
        assert policy.rpd_of(0, way) == 6
        protected_for = 0
        while policy.rpd_of(0, way) > 0:
            cache.access(Access(protected_for % 8, thread_id=0))
            protected_for += 1
        assert 16 <= protected_for <= 18
