"""The RNG contract the trace generator's speed rests on, and its memory bound.

``RDDProfileGenerator.generate`` does not call ``randrange``/``randint``
per draw: it inlines the ``getrandbits(k)`` rejection loop those calls
run in CPython, with ``k`` precomputed per range. That keeps the output
identical to the stdlib calls only while CPython draws that way, so the
first tests check it on the running interpreter with the stdlib alone
(CI runs them on every supported Python). The pinned generator output
itself lives in ``tests/golden/traces.json`` (``test_golden.py``).
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

WIDTHS = range(1, 301)


def _below(getrandbits, n: int) -> int:
    """The generator's inlined draw: uniform in [0, n)."""
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inlined_draw_equals_randrange(seed):
    stdlib = random.Random(seed)
    inlined = random.Random(seed)
    for n in WIDTHS:
        for _ in range(20):
            assert _below(inlined.getrandbits, n) == stdlib.randrange(n), n
    # Same number of words consumed: the streams stay in lockstep.
    assert inlined.random() == stdlib.random()


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inlined_draw_equals_randint(seed):
    stdlib = random.Random(seed)
    inlined = random.Random(seed)
    for width in WIDTHS:
        for low in (1, 7, 64):
            high = low + width - 1
            assert low + _below(inlined.getrandbits, width) == stdlib.randint(
                low, high
            ), (low, high)
    assert inlined.random() == stdlib.random()


def test_generator_state_is_bounded_by_the_window():
    """``generate`` holds its two output columns (16 bytes per access)
    plus per-set windows of ``history_depth`` entries: nothing that
    grows with the trace length."""
    from repro.workloads import SPEC_LIKE_PROFILES, RDDProfileGenerator

    length = 200_000
    generator = RDDProfileGenerator(
        SPEC_LIKE_PROFILES["464.h264ref"], num_sets=64, seed=3
    )
    tracemalloc.start()
    try:
        trace = generator.generate(length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Trace() adds the all-zero thread column; the generator never
    # touches it.
    generated = peak - trace.thread_ids.nbytes
    assert generated <= 16 * length + 2 * 1024 * 1024, generated


class TestDrawRangesRejectedAtConstruction:
    """An empty draw range fails when the generator or component is
    built, naming the argument — never inside ``generate``."""

    @pytest.mark.parametrize("num_sets", [0, -1])
    def test_nonpositive_num_sets(self, num_sets):
        from repro.workloads import SPEC_LIKE_PROFILES, RDDProfileGenerator

        with pytest.raises(ValueError, match="num_sets"):
            RDDProfileGenerator(SPEC_LIKE_PROFILES["403.gcc"], num_sets=num_sets)

    @pytest.mark.parametrize("pc_pool", [0, -2])
    def test_nonpositive_pc_pool(self, pc_pool):
        from repro.workloads.base import MixtureComponent, fresh

        with pytest.raises(ValueError, match="pc_pool"):
            MixtureComponent(weight=1.0, low=1, high=4, pc_pool=pc_pool)
        with pytest.raises(ValueError, match="pc_pool"):
            fresh(1.0, pc_pool=pc_pool)
