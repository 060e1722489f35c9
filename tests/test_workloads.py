"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.traces.analysis import (
    fraction_below,
    reuse_distance_distribution,
    reuse_distances,
)
from repro.workloads.base import MixtureComponent, RDDProfile, band, fresh, peak
from repro.workloads.mixes import generate_mixes, interleave_traces, make_mix_traces
from repro.workloads.phased import phase_changing_profiles
from repro.workloads.spec_like import (
    SINGLE_CORE_SUITE,
    SPEC_LIKE_PROFILES,
    benchmark_names,
    make_benchmark_trace,
)
from repro.workloads.streams import (
    cyclic_loop,
    random_working_set,
    sequential_stream,
    thrash_loop,
)
from repro.workloads.synthetic import RDDProfileGenerator


class TestComponents:
    def test_peak_bounds(self):
        component = peak(72, 8, 0.5)
        assert component.low == 64 and component.high == 80

    def test_fresh_is_infinite(self):
        assert fresh(0.3).is_infinite

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            MixtureComponent(weight=1.0, low=10, high=5)

    def test_half_specified_band(self):
        with pytest.raises(ValueError):
            MixtureComponent(weight=1.0, low=10, high=None)

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            MixtureComponent(weight=0.0)

    def test_profile_needs_components(self):
        with pytest.raises(ValueError):
            RDDProfile(name="empty", components=())

    def test_choose_component_weighted(self):
        import random

        profile = RDDProfile(
            name="p", components=(peak(8, 2, 0.9), fresh(0.1))
        )
        rng = random.Random(0)
        draws = [profile.choose_component(rng) for _ in range(2000)]
        assert 0.85 < draws.count(0) / len(draws) < 0.95


class TestGenerator:
    def test_deterministic(self):
        profile = SPEC_LIKE_PROFILES["403.gcc"]
        a = RDDProfileGenerator(profile, num_sets=16, seed=5).generate(2000)
        b = RDDProfileGenerator(profile, num_sets=16, seed=5).generate(2000)
        assert np.array_equal(a.addresses, b.addresses)

    def test_seed_changes_trace(self):
        profile = SPEC_LIKE_PROFILES["403.gcc"]
        a = RDDProfileGenerator(profile, num_sets=16, seed=5).generate(2000)
        b = RDDProfileGenerator(profile, num_sets=16, seed=6).generate(2000)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_target_peak_reproduced(self):
        """A single-peak profile yields an RDD concentrated on the peak."""
        profile = RDDProfile(
            name="single-peak", components=(peak(40, 4, 0.6), fresh(0.4))
        )
        trace = RDDProfileGenerator(profile, num_sets=8, seed=1).generate(20_000)
        distances = reuse_distances(trace, num_sets=8)
        in_peak = sum(1 for d in distances if 36 <= d <= 44)
        assert in_peak / max(1, len(distances)) > 0.8

    def test_pure_fresh_has_no_reuse(self):
        profile = RDDProfile(name="stream", components=(fresh(1.0),))
        trace = RDDProfileGenerator(profile, num_sets=8, seed=1).generate(5000)
        assert reuse_distances(trace, num_sets=8) == []

    def test_pc_informative_assigns_distinct_pools(self):
        profile = RDDProfile(
            name="pc", components=(peak(8, 2, 0.5), fresh(0.5)), pc_informative=True
        )
        trace = RDDProfileGenerator(profile, num_sets=8, seed=1).generate(5000)
        assert len(set(int(p) for p in trace.pcs)) > 2

    def test_pc_misleading_shares_pool(self):
        profile = RDDProfile(
            name="pc", components=(peak(8, 2, 0.5), fresh(0.5)), pc_informative=False
        )
        trace = RDDProfileGenerator(profile, num_sets=8, seed=1).generate(5000)
        base = {int(p) & ~0xFFF for p in trace.pcs}
        assert len(base) == 1  # all PCs from one pool


class TestSpecLikeProfiles:
    def test_all_sixteen_plus_windows(self):
        assert len(SPEC_LIKE_PROFILES) == 18  # 15 + 3 xalancbmk windows
        assert len(SINGLE_CORE_SUITE) == 16

    def test_names_listed(self):
        names = benchmark_names()
        assert "436.cactusADM" in names
        assert "483.xalancbmk.3" in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="436.cactusADM"):
            make_benchmark_trace("not-a-benchmark")

    def test_trace_generation_stable(self):
        a = make_benchmark_trace("429.mcf", length=1000, num_sets=16)
        b = make_benchmark_trace("429.mcf", length=1000, num_sets=16)
        assert np.array_equal(a.addresses, b.addresses)

    def test_streaming_profiles_have_low_reuse(self):
        trace = make_benchmark_trace("433.milc", length=8000, num_sets=16)
        assert fraction_below(trace, 16, 256) >= 0.0
        distances = reuse_distances(trace, num_sets=16)
        assert len(distances) / len(trace) < 0.25

    def test_lru_friendly_profile_reuses_close(self):
        trace = make_benchmark_trace("473.astar", length=8000, num_sets=16)
        distances = reuse_distances(trace, num_sets=16)
        near = sum(1 for d in distances if d <= 16)
        assert near / len(distances) > 0.6

    def test_xalancbmk_windows_have_different_peaks(self):
        """Fig. 5b: the three windows peak at different distances."""
        peaks = []
        for window in ("483.xalancbmk.1", "483.xalancbmk.2", "483.xalancbmk.3"):
            trace = make_benchmark_trace(window, length=10_000, num_sets=16)
            counts, _, _ = reuse_distance_distribution(trace, num_sets=16, d_max=256)
            peaks.append(int(np.argmax(counts[17:])) + 17)  # beyond W
        assert len(set(peaks)) == 3


class TestStreams:
    def test_sequential_all_unique(self):
        trace = sequential_stream(100)
        assert len(set(int(a) for a in trace.addresses)) == 100

    def test_cyclic_loop_period(self):
        trace = cyclic_loop(10, working_set=3)
        assert list(trace.addresses[:6]) == [0, 1, 2, 0, 1, 2]

    def test_cyclic_loop_validation(self):
        with pytest.raises(ValueError):
            cyclic_loop(10, working_set=0)

    def test_thrash_loop_size(self):
        trace = thrash_loop(100, ways=4, num_sets=2, overshoot=1)
        assert len(set(int(a) for a in trace.addresses)) == 10

    def test_random_working_set_bounded(self):
        trace = random_working_set(500, working_set=20, seed=1)
        assert all(0 <= a < 20 for a in trace.addresses)


class TestPhased:
    def test_five_workloads(self):
        workloads = phase_changing_profiles(phase_length=100)
        assert len(workloads) == 5

    def test_phases_use_distinct_address_spaces(self):
        workload = phase_changing_profiles(phase_length=200)["403.gcc"]
        trace = workload.generate(num_sets=16)
        first = set(int(a) for a in trace.addresses[:200])
        second = set(int(a) for a in trace.addresses[200:400])
        assert not first & second

    def test_total_length(self):
        workload = phase_changing_profiles(phase_length=150)["429.mcf"]
        assert workload.total_length == 450
        assert len(workload.generate(num_sets=16)) == 450


class TestMixes:
    def test_mix_generation_deterministic(self):
        a = generate_mixes(5, cores=4, seed=9)
        b = generate_mixes(5, cores=4, seed=9)
        assert [m.benchmarks for m in a] == [m.benchmarks for m in b]

    def test_mix_core_count(self):
        mixes = generate_mixes(3, cores=16, seed=0)
        assert all(m.num_cores == 16 for m in mixes)

    def test_duplication_allowed(self):
        mixes = generate_mixes(50, cores=4, seed=1)
        assert any(len(set(m.benchmarks)) < 4 for m in mixes)

    def test_interleave_round_robin(self):
        from repro.traces.trace import Trace

        t0 = Trace([1, 2, 3])
        t1 = Trace([10, 20, 30])
        mixed, completion = interleave_traces([t0, t1])
        assert list(mixed.thread_ids[:4]) == [0, 1, 0, 1]
        assert completion == [5, 6]

    def test_interleave_rewinds_short_trace(self):
        from repro.traces.trace import Trace

        t0 = Trace([1])
        t1 = Trace([10, 20, 30])
        mixed, completion = interleave_traces([t0, t1])
        # Thread 0's address repeats (rewind), offset preserved.
        thread0 = mixed.addresses[mixed.thread_ids == 0]
        assert len(set(int(a) for a in thread0)) == 1

    def test_private_address_spaces(self):
        from repro.traces.trace import Trace

        t0 = Trace([1, 2])
        t1 = Trace([1, 2])
        mixed, _ = interleave_traces([t0, t1])
        thread0 = set(int(a) for a in mixed.addresses[mixed.thread_ids == 0])
        thread1 = set(int(a) for a in mixed.addresses[mixed.thread_ids == 1])
        assert not thread0 & thread1

    def test_make_mix_traces(self):
        mix = generate_mixes(1, cores=4, seed=2)[0]
        traces = make_mix_traces(mix, length_per_thread=500, num_sets=16)
        assert len(traces) == 4
        assert all(len(t) == 500 for t in traces)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces([])


def _interleave_oracle(traces, total_length=None):
    """The per-access round-robin loop ``interleave_traces`` replaced:
    one cursor per thread, rewind at the end, completion recorded at the
    first rewind."""
    from repro.traces.trace import Trace

    num_threads = len(traces)
    lengths = [len(trace) for trace in traces]
    if total_length is None:
        total_length = max(lengths) * num_threads
    addresses = np.empty(total_length, dtype=np.int64)
    pcs = np.empty(total_length, dtype=np.int64)
    thread_ids = np.empty(total_length, dtype=np.int64)
    cursors = [0] * num_threads
    completion = [-1] * num_threads
    position = 0
    while position < total_length:
        for thread in range(num_threads):
            if position >= total_length:
                break
            cursor = cursors[thread]
            addresses[position] = int(traces[thread].addresses[cursor]) + (thread << 40)
            pcs[position] = int(traces[thread].pcs[cursor])
            thread_ids[position] = thread
            cursor += 1
            if cursor >= lengths[thread]:
                cursor = 0
                if completion[thread] < 0:
                    completion[thread] = position + 1
            cursors[thread] = cursor
            position += 1
    completion = [c if c >= 0 else total_length for c in completion]
    mixed = Trace(
        addresses,
        pcs=pcs,
        thread_ids=thread_ids,
        name="+".join(trace.name for trace in traces),
        instructions_per_access=sum(t.instructions_per_access for t in traces)
        / num_threads,
    )
    return mixed, completion


class TestInterleaveOracle:
    """``interleave_traces`` is byte-identical to the per-access loop."""

    @staticmethod
    def _traces(lengths, seed):
        from repro.traces.trace import Trace

        rng = np.random.default_rng(seed)
        return [
            Trace(
                rng.integers(0, 1 << 34, length),
                pcs=rng.integers(0, 1 << 20, length),
                name=f"t{thread}",
                instructions_per_access=1.0 + 0.37 * thread,
            )
            for thread, length in enumerate(lengths)
        ]

    @pytest.mark.parametrize(
        "lengths, total_length",
        [
            ([50, 50, 50, 50], None),  # equal lengths
            ([13, 50, 7], None),  # unequal lengths
            ([13, 50, 7], 40),  # shorter than max(len) * T
            ([13, 50, 7], 400),  # longer than max(len) * T
            ([29], None),  # one thread
            ([5 + 3 * t for t in range(16)], None),  # 16 threads
            ([5 + 3 * t for t in range(16)], 1_000),
            ([13, 50, 7], 0),
        ],
    )
    def test_matches_per_access_loop(self, lengths, total_length):
        traces = self._traces(lengths, seed=len(lengths) + (total_length or 0))
        got, got_completion = interleave_traces(traces, total_length)
        want, want_completion = _interleave_oracle(traces, total_length)
        assert got_completion == want_completion
        for column in ("addresses", "pcs", "thread_ids"):
            got_column = getattr(got, column)
            want_column = getattr(want, column)
            assert got_column.dtype == want_column.dtype, column
            assert got_column.tobytes() == want_column.tobytes(), column
        assert got.name == want.name
        assert got.instructions_per_access == want.instructions_per_access
