"""Second wave of property-based tests: partitioning, timing, traces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.timing import TimingModel
from repro.partitioning.pipp import PIPPPolicy
from repro.partitioning.ucp import lookahead_partition
from repro.traces.trace import Trace
from repro.types import Access
from repro.workloads.mixes import interleave_traces

monotone_curves = st.lists(
    st.lists(st.integers(min_value=0, max_value=100), min_size=8, max_size=8).map(
        lambda steps: np.cumsum([0] + steps[:-1])
    ),
    min_size=2,
    max_size=4,
)


@given(monotone_curves, st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_lookahead_distributes_exactly(curves, extra):
    total_ways = len(curves) + extra
    allocation = lookahead_partition(curves, total_ways)
    assert sum(allocation) == total_ways
    assert all(ways >= 1 for ways in allocation)
    assert all(ways <= len(curve) - 1 for ways, curve in zip(allocation, curves))


concave_curves = st.lists(
    st.lists(st.integers(min_value=0, max_value=50), min_size=7, max_size=7).map(
        lambda increments: np.cumsum([0] + sorted(increments, reverse=True))
    ),
    min_size=2,
    max_size=2,
)


@given(concave_curves)
@settings(max_examples=50, deadline=None)
def test_lookahead_optimal_on_concave_curves(curves):
    """For concave utility curves greedy marginal allocation is optimal;
    verify against brute force over the two-thread split space."""
    total_ways = 7
    allocation = lookahead_partition(curves, total_ways)
    achieved = sum(int(curve[a]) for curve, a in zip(curves, allocation))
    best = max(
        int(curves[0][first]) + int(curves[1][total_ways - first])
        for first in range(1, total_ways)
    )
    assert achieved == best


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=100, max_value=100_000),
)
@settings(max_examples=60, deadline=None)
def test_timing_worse_levels_cost_more(l2_hits, llc_hits, memory, instructions):
    timing = TimingModel()
    base = timing.cycles(instructions, l2_hits, llc_hits, memory)
    assert timing.cycles(instructions, l2_hits + 1, llc_hits, memory) >= base
    assert timing.cycles(instructions, l2_hits, llc_hits + 1, memory) >= base
    assert timing.cycles(instructions, l2_hits, llc_hits, memory + 1) > base
    # Serving from LLC is always cheaper than from memory.
    assert timing.cycles(instructions, l2_hits, llc_hits + 1, memory) <= (
        timing.cycles(instructions, l2_hits, llc_hits, memory + 1)
    )


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_interleave_preserves_per_thread_order(per_thread):
    traces = [Trace(addresses) for addresses in per_thread]
    mixed, completion = interleave_traces(traces)
    for thread, addresses in enumerate(per_thread):
        observed = [
            int(a) - (thread << 40)
            for a, t in zip(mixed.addresses, mixed.thread_ids)
            if t == thread
        ]
        # The observed stream is the original repeated cyclically.
        for position, value in enumerate(observed):
            assert value == addresses[position % len(addresses)]
        # Completion marks exactly the first full pass.
        first_pass = [
            i for i, t in enumerate(mixed.thread_ids) if t == thread
        ][: len(addresses)]
        assert completion[thread] == first_pass[-1] + 1


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_pipp_order_is_always_a_permutation(addresses):
    policy = PIPPPolicy(num_threads=1, repartition_interval=10**9, seed=2)
    cache = SetAssociativeCache(CacheGeometry(2, 4), policy)
    for address in addresses:
        cache.access(Access(address))
        for set_index in range(2):
            assert sorted(policy._order[set_index]) == [0, 1, 2, 3]


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=50, deadline=None)
def test_trace_offset_preserves_set_mapping_structure(addresses, multiple):
    """Offsetting by a multiple of num_sets keeps per-set streams intact."""
    num_sets = 16
    trace = Trace(addresses)
    shifted = trace.offset_addresses(multiple * num_sets)
    original_sets = [int(a) % num_sets for a in trace.addresses]
    shifted_sets = [int(a) % num_sets for a in shifted.addresses]
    assert original_sets == shifted_sets


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_classified_pdp_never_evicts_protected_over_unprotected(addresses):
    from repro.core.classified_pdp import ClassifiedPDPPolicy

    policy = ClassifiedPDPPolicy(
        num_classes=2, recompute_interval=10**9, sampler_mode="full", bypass=True
    )
    cache = SetAssociativeCache(CacheGeometry(4, 4), policy)
    for address in addresses:
        rpds = {
            (s, w): policy.rpd_of(s, w) for s in range(4) for w in range(4)
        }
        result = cache.access(Access(address, pc=address * 4))
        if result.evicted is not None:
            set_index = cache.geometry.set_index(address)
            at_selection = [max(0, rpds[(set_index, w)] - 1) for w in range(4)]
            if any(v == 0 for v in at_selection):
                assert at_selection[result.way] == 0
