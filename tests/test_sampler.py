"""Tests for the RD sampler (Sec. 3)."""

import random

import pytest

from repro.core.sampler import RDSampler
from repro.traces.analysis import reuse_distances


class TestFullSampler:
    def test_exact_distances(self):
        """Full sampler (M=1) measures exactly the analysis-module RDs."""
        rng = random.Random(0)
        addresses = [rng.randrange(30) for _ in range(500)]
        measured = []
        sampler = RDSampler.full(1, d_max=64, on_distance=measured.append)
        for address in addresses:
            sampler.observe(0, address)
        exact = reuse_distances(addresses, num_sets=1, d_max=64)
        # The sampler invalidates on hit, so consecutive reuses of the
        # same line re-measure from the new insertion; with M=1 the entry
        # is re-pushed on the same access, making it exact.
        assert measured == [d for d in exact if d <= 64]

    def test_immediate_reuse_distance_one(self):
        got = []
        sampler = RDSampler.full(1, d_max=8, on_distance=got.append)
        sampler.observe(0, 5)
        sampler.observe(0, 5)
        assert got == [1]

    def test_distance_beyond_fifo_not_measured(self):
        got = []
        sampler = RDSampler(1, 1, fifo_depth=4, insertion_rate=1, on_distance=got.append)
        sampler.observe(0, 99)
        for address in range(4):
            sampler.observe(0, address)
        sampler.observe(0, 99)  # distance 5 > depth 4
        assert got == []


class TestSampledSets:
    def test_only_sampled_sets_observed(self):
        counted = []
        sampler = RDSampler(
            64, num_sampled_sets=2, fifo_depth=8, insertion_rate=1,
            on_distance=counted.append,
        )
        assert len(sampler.sampled_sets) == 2
        unsampled = next(s for s in range(64) if not sampler.is_sampled(s))
        assert sampler.observe(unsampled, 1) is None
        assert sampler.observe(unsampled, 1) is None
        assert counted == []

    def test_on_access_counts_sampled_only(self):
        accesses = []
        sampler = RDSampler(
            64, num_sampled_sets=2, fifo_depth=8, insertion_rate=1,
            on_access=lambda: accesses.append(1),
        )
        sampled = sampler.sampled_sets[0]
        unsampled = next(s for s in range(64) if not sampler.is_sampled(s))
        sampler.observe(sampled, 1)
        sampler.observe(unsampled, 1)
        assert len(accesses) == 1


class TestInsertionRate:
    def test_rd_reconstruction_formula(self):
        """RD = n * M + t for reduced insertion rate (paper Sec. 3)."""
        got = []
        sampler = RDSampler(
            1, 1, fifo_depth=8, insertion_rate=4, on_distance=got.append
        )
        # Access X, then 7 other blocks, then X again: true distance 8.
        sampler.observe(0, 100)  # t=1: no insert yet (t<4)
        for address in range(7):
            sampler.observe(0, address)
        sampler.observe(0, 100)
        # X was inserted on the 4th access if it was X... X was access 1,
        # inserted only when the counter hits M. The measured value must be
        # within one M of the true distance when measured at all.
        for distance in got:
            assert abs(distance - 8) <= 4

    def test_periodic_reuse_measured_exactly_when_aligned(self):
        """With M=4, reuse at gap 16 measures exactly 16 = n*M + t.

        The reused block must land on an insertion slot (every M-th
        access) to be in the FIFO at all; padding aligns it.
        """
        got = []
        sampler = RDSampler(1, 1, fifo_depth=16, insertion_rate=4, on_distance=got.append)
        filler = iter(range(100_000, 200_000))  # unique: no stray matches
        for _ in range(3):
            sampler.observe(0, next(filler))  # align X onto a 4th slot
        for _ in range(20):
            sampler.observe(0, 7777)
            for _ in range(15):
                sampler.observe(0, next(filler))
        assert got, "aligned periodic reuse must be measured"
        assert all(distance == 16 for distance in got)

    def test_d_max_property(self):
        sampler = RDSampler(1, 1, fifo_depth=32, insertion_rate=8)
        assert sampler.d_max == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            RDSampler(1, 1, fifo_depth=0, insertion_rate=1)
        with pytest.raises(ValueError):
            RDSampler(1, 1, fifo_depth=1, insertion_rate=0)


class TestSamplerMaintenance:
    def test_reset_clears_state(self):
        got = []
        sampler = RDSampler.full(1, d_max=8, on_distance=got.append)
        sampler.observe(0, 1)
        sampler.reset()
        sampler.observe(0, 1)
        assert got == []  # no cross-reset match

    def test_match_invalidates_entry(self):
        got = []
        sampler = RDSampler.full(1, d_max=8, on_distance=got.append)
        sampler.observe(0, 1)
        sampler.observe(0, 1)  # match + invalidate + re-push
        sampler.observe(0, 1)  # matches the re-pushed entry
        assert got == [1, 1]

    def test_storage_bits(self):
        sampler = RDSampler(64, num_sampled_sets=32, fifo_depth=32, insertion_rate=8)
        # 32 sets x (32 entries x 16 bits + 3-bit counter)
        assert sampler.storage_bits(tag_bits=16) == 32 * (32 * 16 + 3)

    def test_real_configuration(self):
        sampler = RDSampler.real(2048, d_max=256)
        assert sampler.num_sampled_sets == 32
        assert sampler.fifo_depth == 32
        assert sampler.insertion_rate == 8


class TestSampledSetCount:
    """``num_sampled_sets`` sets are monitored, whatever the geometry."""

    @pytest.mark.parametrize("num_sets", [48, 64, 100, 2048])
    def test_real_monitors_exactly_32_sets(self, num_sets):
        sampler = RDSampler.real(num_sets)
        monitored = [s for s in range(num_sets) if sampler.is_sampled(s)]
        assert len(monitored) == len(sampler.sampled_sets) == 32
        assert sampler.storage_bits() == 32 * (32 * 16 + 3)

    def test_power_of_two_geometry_keeps_its_stride(self):
        assert RDSampler.real(2048).sampled_sets == list(range(0, 2048, 64))

    def test_fewer_sets_than_samples_monitors_every_set(self):
        assert RDSampler.real(16).sampled_sets == list(range(16))


class _ListFIFOSampler:
    """The list FIFO of the paper, searched front to back: the oracle
    the stamp-map FIFOs must agree with."""

    def __init__(self, sampled_sets, fifo_depth, insertion_rate,
                 on_distance, on_access):
        self.fifo_depth = fifo_depth
        self.insertion_rate = insertion_rate
        self.on_distance = on_distance
        self.on_access = on_access
        self.fifos = {s: [] for s in sampled_sets}
        self.counters = {s: 0 for s in sampled_sets}

    def observe(self, set_index, address):
        fifo = self.fifos.get(set_index)
        if fifo is None:
            return None
        self.on_access()
        counter = self.counters[set_index] + 1
        distance = None
        for position, entry in enumerate(fifo):
            if entry == address:
                fifo[position] = None
                distance = position * self.insertion_rate + counter
                self.on_distance(distance)
                break
        if counter >= self.insertion_rate:
            fifo.insert(0, address)
            if len(fifo) > self.fifo_depth:
                fifo.pop()
            counter = 0
        self.counters[set_index] = counter
        return distance

    def reset(self):
        for set_index in self.fifos:
            self.fifos[set_index] = []
            self.counters[set_index] = 0


def _sampler_pair(config):
    """(stamp-map sampler, list oracle, event logs) for one configuration."""
    got_events, want_events = [], []
    got_callbacks = {
        "on_distance": lambda d: got_events.append(("distance", d)),
        "on_access": lambda: got_events.append(("access",)),
    }
    if config == "real":
        sampler = RDSampler.real(64, **got_callbacks)
    elif config == "full":
        sampler = RDSampler.full(64, d_max=256, **got_callbacks)
    else:
        sampler = RDSampler(64, num_sampled_sets=8, fifo_depth=3,
                            insertion_rate=5, **got_callbacks)
    oracle = _ListFIFOSampler(
        sampler.sampled_sets, sampler.fifo_depth, sampler.insertion_rate,
        on_distance=lambda d: want_events.append(("distance", d)),
        on_access=lambda: want_events.append(("access",)),
    )
    return sampler, oracle, got_events, want_events


class TestStampMapOracle:
    """The stamp-map FIFO against the list FIFO, access by access: every
    ``observe`` return value and every callback, in order. Every engine
    tier shares this sampler, so cross-engine conformance cannot catch a
    fault here."""

    @pytest.mark.parametrize("config", ["real", "full", "custom"])
    @pytest.mark.parametrize("alphabet", ["small", "large"])
    def test_matches_list_fifo(self, config, alphabet):
        sampler, oracle, got_events, want_events = _sampler_pair(config)
        rng = random.Random(f"{config}-{alphabet}")
        # A few sets, sampled and unsampled, so each FIFO sees a long run.
        unsampled = [s for s in range(64) if not sampler.is_sampled(s)][:1]
        sets = sampler.sampled_sets[: 4 - len(unsampled)] + unsampled
        depth = sampler.fifo_depth
        # ~10 x depth pushes per set on each side of the reset: enough
        # to overflow the 8 x depth stamp bound.
        length = 2 * len(sets) * 10 * depth * sampler.insertion_rate
        universe = 3 * depth if alphabet == "small" else 1 << 40
        recent = []
        prunes = 0
        stamp_count = 0
        hits = 0
        for step in range(length):
            if step == length // 2:
                sampler.reset()
                oracle.reset()
                stamp_count = 0
            if recent and rng.random() < 0.2:  # reuse, some past the FIFO
                address = rng.choice(recent[-4 * len(sets) * sampler.d_max:])
                set_index = address & 63
            else:
                set_index = rng.choice(sets)
                address = (rng.randrange(universe) << 6) | set_index
            recent.append(address)
            got = sampler.observe(set_index, address)
            assert got == oracle.observe(set_index, address), step
            hits += got is not None
            count = sum(len(f.stamps) for f in sampler._fifos.values())
            if count < stamp_count - 1:
                prunes += 1  # a probe drops one stamp at most; more is a prune
            stamp_count = count
            assert all(
                len(f.stamps) <= 8 * f.depth + 1 for f in sampler._fifos.values()
            )
        assert got_events == want_events
        assert hits > 0
        if alphabet == "large":
            assert prunes > 0, "the 8 x depth prune never fired"

    @pytest.mark.parametrize("config", ["real", "full", "custom"])
    def test_prune_keeps_the_oldest_live_entry(self, config):
        """The prune's cutoff sits at the FIFO's tail: probe the tail
        right after the first prune."""
        sampler, oracle, got_events, want_events = _sampler_pair(config)
        set_index = sampler.sampled_sets[-1]
        fifo = sampler._fifos[set_index]
        address = set_index
        while True:
            address += 64  # unique: every push adds a stamp
            before = len(fifo.stamps)
            got = sampler.observe(set_index, address)
            assert got == oracle.observe(set_index, address)
            if len(fifo.stamps) < before:
                break
        tail = oracle.fifos[set_index][-1]
        assert tail is not None and len(oracle.fifos[set_index]) == fifo.depth
        got = sampler.observe(set_index, tail)
        assert got == oracle.observe(set_index, tail)
        assert got == (fifo.depth - 1) * sampler.insertion_rate + 1
        assert got_events == want_events
