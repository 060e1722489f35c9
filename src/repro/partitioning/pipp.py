"""PIPP: promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).

PIPP realizes a partition implicitly through a per-set priority order:
thread t inserts at priority position pi_t (its UMON/lookahead allocation)
and every hit promotes the line one position with probability ``p_prom``.
Threads classified as streaming (many misses at a high miss rate) insert
near the bottom (``p_stream``) and promote with a tiny probability. The
paper uses p_prom = 3/4, p_stream = 1, theta_m and theta_mr per the
original work (Sec. 5).
"""

from __future__ import annotations

import random

from repro.partitioning.ucp import lookahead_partition
from repro.partitioning.umon import UtilityMonitor
from repro.policies.base import ReplacementPolicy, register_policy
from repro.types import Access


@register_policy("pipp")
class PIPPPolicy(ReplacementPolicy):
    """Priority-list pseudo-partitioning with streaming detection.

    Per-set state is an explicit priority list of ways; index 0 is the
    victim end. Insertion places a thread's line ``pi_t`` positions above
    the bottom; promotion moves a hit line up one slot with probability
    ``p_prom`` (or ``stream_promote_prob`` for streaming threads).
    """

    def __init__(
        self,
        num_threads: int,
        p_prom: float = 0.75,
        p_stream: int = 1,
        stream_promote_prob: float = 1 / 128,
        theta_m: int = 512,
        theta_mr: float = 0.875,
        repartition_interval: int = 4096,
        num_sampled_sets: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_threads = num_threads
        self.p_prom = p_prom
        self.p_stream = p_stream
        self.stream_promote_prob = stream_promote_prob
        self.theta_m = theta_m
        self.theta_mr = theta_mr
        self.repartition_interval = repartition_interval
        self.num_sampled_sets = num_sampled_sets
        self._rng = random.Random(seed)
        self._accesses = 0
        self.allocation: list[int] = []
        self.streaming: list[bool] = []
        self._interval_misses = [0] * num_threads
        self._interval_accesses = [0] * num_threads

    def _allocate(self, num_sets: int, ways: int) -> None:
        """Size the per-set priority lists (way order, victim end first)
        and one UMON per thread, and start from an even way allocation
        (the first ``ways % num_threads`` threads get one extra way)
        with no thread streaming."""
        self._ways = ways
        # order[s] lists ways from lowest (index 0, victim) to highest priority.
        self._order = [list(range(ways)) for _ in range(num_sets)]
        self.monitors = [
            UtilityMonitor(num_sets, ways, self.num_sampled_sets)
            for _ in range(self.num_threads)
        ]
        base = ways // self.num_threads
        extra = ways % self.num_threads
        self.allocation = [
            base + (1 if thread < extra else 0) for thread in range(self.num_threads)
        ]
        self.streaming = [False] * self.num_threads

    def on_access(self, set_index: int, access: Access) -> None:
        """Feed the accessing thread's UMON and interval access count;
        every ``repartition_interval`` accesses, :meth:`repartition`."""
        thread = access.thread_id % self.num_threads
        self.monitors[thread].observe(set_index, access.address)
        self._interval_accesses[thread] += 1
        self._accesses += 1
        if self._accesses % self.repartition_interval == 0:
            self.repartition()

    def repartition(self) -> None:
        """Recompute allocations and streaming classification."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.allocation = lookahead_partition(curves, self._ways)
        for thread in range(self.num_threads):
            accesses = self._interval_accesses[thread]
            misses = self._interval_misses[thread]
            miss_rate = misses / accesses if accesses else 0.0
            self.streaming[thread] = (
                misses >= self.theta_m and miss_rate >= self.theta_mr
            )
            self._interval_accesses[thread] = 0
            self._interval_misses[thread] = 0
        for monitor in self.monitors:
            monitor.decay()

    def on_hit(self, set_index: int, way: int, access: Access) -> None:
        """Promote the hit line one priority slot with probability
        ``p_prom`` (``stream_promote_prob`` for a streaming thread); one
        RNG draw per hit, in global hit order."""
        thread = access.thread_id % self.num_threads
        promote_prob = (
            self.stream_promote_prob if self.streaming[thread] else self.p_prom
        )
        if self._rng.random() >= promote_prob:
            return
        order = self._order[set_index]
        position = order.index(way)
        if position + 1 < len(order):
            order[position], order[position + 1] = order[position + 1], order[position]

    def choose_victim(self, set_index: int, access: Access) -> int | None:
        """Evict the lowest-priority line; PIPP never bypasses."""
        return self._order[set_index][0]

    def on_fill(self, set_index: int, way: int, access: Access) -> None:
        """Count the filling thread's miss and insert the line at its
        allocation's priority position (``p_stream`` for a streaming
        thread), capped below the top."""
        thread = access.thread_id % self.num_threads
        self._interval_misses[thread] += 1
        if self.streaming[thread]:
            position = min(self.p_stream, self._ways - 1)
        else:
            position = min(self.allocation[thread], self._ways - 1)
        order = self._order[set_index]
        order.remove(way)
        order.insert(position, way)

    def priority_of(self, set_index: int, way: int) -> int:
        """Current priority position of a way (0 = next victim)."""
        return self._order[set_index].index(way)


__all__ = ["PIPPPolicy"]
