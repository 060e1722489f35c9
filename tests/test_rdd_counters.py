"""Tests for the RD counter array."""

import pytest

from repro.core.rdd import RDCounterArray


class TestBinning:
    def test_step_one_direct_indexing(self):
        array = RDCounterArray(d_max=8, step=1)
        array.record_distance(1)
        array.record_distance(8)
        assert array.counts[0] == 1
        assert array.counts[7] == 1

    def test_step_four_ranges(self):
        """S_c = 4: first counter covers RDs 1-4, next 5-8 (paper Sec. 3)."""
        array = RDCounterArray(d_max=16, step=4)
        for distance in (1, 2, 3, 4):
            array.record_distance(distance)
        for distance in (5, 8):
            array.record_distance(distance)
        assert array.counts[0] == 4
        assert array.counts[1] == 2

    def test_out_of_range_distances_dropped(self):
        array = RDCounterArray(d_max=16, step=4)
        array.record_distance(0)
        array.record_distance(17)
        array.record_distance(-3)
        assert array.counts.sum() == 0

    def test_d_max_must_divide(self):
        with pytest.raises(ValueError):
            RDCounterArray(d_max=10, step=4)

    def test_bin_edges(self):
        array = RDCounterArray(d_max=16, step=4)
        assert array.bin_upper_edge(0) == 4
        assert array.bin_upper_edge(3) == 16
        assert array.bin_midpoint(0) == pytest.approx(2.5)


class TestTotals:
    def test_long_count(self):
        array = RDCounterArray(d_max=8, step=1)
        for _ in range(10):
            array.record_access()
        array.record_distance(3)
        array.record_distance(5)
        assert array.total == 10
        assert array.reuse_count == 2
        assert array.long_count == 8

    def test_snapshot_is_a_copy(self):
        array = RDCounterArray(d_max=8, step=1)
        array.record_distance(1)
        counts, total = array.snapshot()
        counts[0] = 99
        assert array.counts[0] == 1


class TestSaturation:
    def test_counter_saturation_freezes_array(self):
        array = RDCounterArray(d_max=4, step=1, counter_bits=2)
        for _ in range(3):
            array.record_distance(1)
        assert array.frozen  # 2-bit counter saturates at 3
        array.record_distance(2)
        assert array.counts[1] == 0  # frozen: shape preserved

    def test_default_widths_are_the_papers_16_and_32_bits(self):
        """Sec. 3: 16-bit N_i counters freeze the array at 2**16 - 1."""
        array = RDCounterArray(d_max=4, step=1)
        assert array.total_max == 2**32 - 1
        for _ in range(65_534):
            array.record_distance(1)
        assert not array.frozen
        array.record_distance(1)
        assert array.frozen
        array.record_distance(1)
        assert array.counts[0] == 65_535

    def test_total_saturation_freezes(self):
        array = RDCounterArray(d_max=4, step=1, total_bits=2)
        for _ in range(5):
            array.record_access()
        assert array.frozen
        assert array.total == 3

    def test_reset_unfreezes(self):
        array = RDCounterArray(d_max=4, step=1, counter_bits=2)
        for _ in range(4):
            array.record_distance(1)
        array.reset()
        assert not array.frozen
        assert array.total == 0
        array.record_distance(1)
        assert array.counts[0] == 1

    def test_decay_halves(self):
        array = RDCounterArray(d_max=4, step=1)
        for _ in range(8):
            array.record_distance(1)
            array.record_access()
        array.decay()
        assert array.counts[0] == 4
        assert array.total == 4


class TestStorage:
    def test_storage_bits(self):
        array = RDCounterArray(d_max=256, step=4)
        # 64 counters x 16 bits + 32-bit N_t.
        assert array.storage_bits() == 64 * 16 + 32
