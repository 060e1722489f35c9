"""Utility-based cache partitioning (UCP) with the lookahead algorithm.

UCP assigns each thread a way quota from its UMON utility curve and
enforces the quota at replacement time: a thread over quota loses its own
LRU line; a thread under quota steals the LRU line of the most
over-allocated thread. The paper compares UCP in Fig. 12 using the
lookahead allocation algorithm (Sec. 5), reproduced here.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.umon import UtilityMonitor
from repro.policies.base import ReplacementPolicy, register_policy
from repro.types import Access


def lookahead_partition(
    curves: list[np.ndarray], total_ways: int, min_ways: int = 1
) -> list[int]:
    """Greedy lookahead way allocation (Qureshi & Patt).

    Repeatedly grants ways to the thread with the highest *maximum marginal
    utility per way*, looking ahead past concave plateaus:
    ``mu_t = max_k (U_t(alloc + k) - U_t(alloc)) / k``.

    Args:
        curves: per-thread utility curves, ``curves[t][w]`` = hits with w ways.
        total_ways: ways to distribute.
        min_ways: floor per thread (1, so every thread can make progress).
    """
    num_threads = len(curves)
    if num_threads * min_ways > total_ways:
        raise ValueError(
            f"cannot give {min_ways} way(s) to each of {num_threads} threads "
            f"out of {total_ways}"
        )
    allocation = [min_ways] * num_threads
    remaining = total_ways - min_ways * num_threads
    max_per_thread = min(total_ways, len(curves[0]) - 1)
    while remaining > 0:
        best_thread = -1
        best_mu = -1.0
        best_k = 1
        for thread, curve in enumerate(curves):
            current = allocation[thread]
            limit = min(max_per_thread - current, remaining)
            for k in range(1, limit + 1):
                gain = float(curve[current + k] - curve[current])
                mu = gain / k
                better = mu > best_mu
                # Tie-break toward the thread holding fewer ways so equal
                # curves split evenly instead of starving later threads.
                tie = (
                    mu == best_mu
                    and best_thread >= 0
                    and allocation[thread] < allocation[best_thread]
                )
                if better or tie:
                    best_mu = mu
                    best_thread = thread
                    best_k = k
        if best_thread < 0 or best_mu <= 0.0:
            # No thread benefits: spread the remainder round-robin.
            for thread in range(num_threads):
                if remaining == 0:
                    break
                if allocation[thread] < max_per_thread:
                    allocation[thread] += 1
                    remaining -= 1
            break
        allocation[best_thread] += best_k
        remaining -= best_k
    return allocation


@register_policy("ucp")
class UCPPolicy(ReplacementPolicy):
    """UCP: UMON-driven way quotas enforced over an LRU base order.

    Args:
        num_threads: threads sharing the cache.
        repartition_interval: accesses between lookahead re-allocations
            (5M in the original work; scale down for short traces).
        num_sampled_sets: UMON sampling (32 in the paper).
    """

    def __init__(
        self,
        num_threads: int,
        repartition_interval: int = 4096,
        num_sampled_sets: int = 32,
    ) -> None:
        super().__init__()
        self.num_threads = num_threads
        self.repartition_interval = repartition_interval
        self.num_sampled_sets = num_sampled_sets
        self._accesses = 0
        self.allocation: list[int] = []

    def _allocate(self, num_sets: int, ways: int) -> None:
        """Size the recency stamps and one UMON per thread, and start
        from an even way quota (the first ``ways % num_threads`` threads
        get one extra way)."""
        self._ways = ways
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self._clock = [0] * num_sets
        self.monitors = [
            UtilityMonitor(num_sets, ways, self.num_sampled_sets)
            for _ in range(self.num_threads)
        ]
        base = ways // self.num_threads
        extra = ways % self.num_threads
        self.allocation = [
            base + (1 if thread < extra else 0) for thread in range(self.num_threads)
        ]

    def _touch(self, set_index: int, way: int) -> None:
        """Make ``way`` the most recently used line of its set."""
        self._clock[set_index] += 1
        self._stamp[set_index][way] = self._clock[set_index]

    def on_access(self, set_index: int, access: Access) -> None:
        """Feed the accessing thread's UMON; every
        ``repartition_interval`` accesses, re-derive the way quotas."""
        thread = access.thread_id % self.num_threads
        self.monitors[thread].observe(set_index, access.address)
        self._accesses += 1
        if self._accesses % self.repartition_interval == 0:
            self.repartition()

    def repartition(self) -> list[int]:
        """Re-run lookahead over the current UMON curves."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.allocation = lookahead_partition(curves, self._ways)
        for monitor in self.monitors:
            monitor.decay()
        return self.allocation

    def on_hit(self, set_index: int, way: int, access: Access) -> None:
        """A hit refreshes the line's recency; quotas are untouched."""
        self._touch(set_index, way)

    def choose_victim(self, set_index: int, access: Access) -> int | None:
        """Enforce the quota rule on a full set.

        A thread (``thread_id % num_threads``) holding at least its
        quota of the set's ways loses its own LRU line. A thread under
        quota steals the LRU line of the donor: the thread with lines in
        the set whose occupancy most exceeds its quota, the lowest
        thread number winning a tie. UCP never bypasses.
        """
        num_threads = self.num_threads
        thread = access.thread_id % num_threads
        owners = self.cache.owner[set_index]
        stamps = self._stamp[set_index]
        own = [w for w, o in enumerate(owners) if o % num_threads == thread]
        if len(own) >= self.allocation[thread]:
            return min(own, key=stamps.__getitem__)
        # Steal from the most over-allocated thread.
        counts = [0] * num_threads
        for owner in owners:
            counts[owner % num_threads] += 1
        allocation = self.allocation
        donor = max(
            (t for t in range(num_threads) if counts[t] > 0),
            key=lambda t: counts[t] - allocation[t],
        )
        donor_ways = [w for w, o in enumerate(owners) if o % num_threads == donor]
        return min(donor_ways, key=stamps.__getitem__)

    def on_fill(self, set_index: int, way: int, access: Access) -> None:
        """A fill makes the new line the set's most recently used; the
        cache records its owner."""
        self._touch(set_index, way)


__all__ = ["UCPPolicy", "lookahead_partition"]
