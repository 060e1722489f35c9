"""Utility monitors (UMON) — sampled auxiliary tag directories.

Each thread gets a shadow LRU directory over a few sampled sets. Hits are
tallied per LRU stack position, yielding the thread's utility curve: how
many hits it would score with 1..W ways of the shared cache to itself.
UCP and PIPP both consume these curves (Qureshi & Patt, MICRO 2006).
"""

from __future__ import annotations

import numpy as np


class UtilityMonitor:
    """Per-thread sampled LRU stack-position hit counters.

    Args:
        num_sets: sets of the monitored cache.
        ways: associativity (stack depth of the shadow directory).
        num_sampled_sets: sampled sets, every ``num_sets //
            num_sampled_sets``-th from set 0 (32 in the paper's
            methodology).
    """

    def __init__(self, num_sets: int, ways: int, num_sampled_sets: int = 32) -> None:
        self.ways = ways
        self.num_sampled_sets = min(num_sampled_sets, num_sets)
        stride = max(1, num_sets // self.num_sampled_sets)
        self._stacks: dict[int, list[int]] = {
            set_index: []
            for set_index in range(0, stride * self.num_sampled_sets, stride)
        }
        self.position_hits = np.zeros(ways, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    def is_sampled(self, set_index: int) -> bool:
        """Whether ``set_index`` is one of the monitored sets (the only
        sets :meth:`observe` records)."""
        return set_index in self._stacks

    def observe(self, set_index: int, address: int) -> None:
        """Present one access by this monitor's thread."""
        stack = self._stacks.get(set_index)
        if stack is None:
            return
        self.accesses += 1
        try:
            position = stack.index(address)
        except ValueError:
            position = -1
        if position >= 0:
            self.position_hits[position] += 1
            del stack[position]
        else:
            self.misses += 1
            if len(stack) >= self.ways:
                stack.pop()
        stack.insert(0, address)

    def utility_curve(self) -> np.ndarray:
        """``curve[w]`` = hits this thread would get with w ways (w in 0..W)."""
        curve = np.zeros(self.ways + 1, dtype=np.int64)
        curve[1:] = np.cumsum(self.position_hits)
        return curve

    def decay(self) -> None:
        """Halve the counters so the curve tracks phase changes."""
        self.position_hits >>= 1
        self.accesses >>= 1
        self.misses >>= 1


__all__ = ["UtilityMonitor"]
