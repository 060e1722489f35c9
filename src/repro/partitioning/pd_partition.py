"""PD-based shared-cache partitioning (the paper's Sec. 4 policy).

One RD sampler observes every access to the shared LLC, so measured
distances are in *shared* set-access time — the time base the RPDs tick
in. Each thread gets its own RD counter array; thread address spaces are
disjoint, so a sampler match always belongs to the accessing thread. A
periodic computation runs the peak-combination heuristic
(:func:`repro.core.hit_rate_model.find_pd_vector`) to pick one protecting
distance per thread such that the shared hit rate E_m is maximized.
Decreasing a thread's PD shrinks its effective partition by retiring its
lines faster; increasing it grows the partition.

Replacement is PDP with bypass (:class:`repro.core.pdp_policy.PDPPolicy`,
one access class per thread): per-line RPDs, unprotected lines first,
bypass when all lines are protected. A line's insertion RPD comes from its
*inserting thread's* PD. The paper uses the single-core PDP parameters
with S_c = 16 (Sec. 6.6).
"""

from __future__ import annotations

from repro.core.pdp_policy import PDPPolicy
from repro.policies.base import register_policy
from repro.types import Access


@register_policy("pd-partition")
class PDPartitionPolicy(PDPPolicy):
    """Thread-aware PDP: one protecting distance per thread.

    Args:
        num_threads: threads sharing the cache.
        n_c: per-line RPD bits (3 or 8, as in Fig. 12's PDP-3/PDP-8).
        d_max: maximum protecting distance.
        step: S_c counter granularity (16 for multi-core in the paper).
        recompute_interval: accesses between PD-vector recomputations.
        bypass: non-inclusive bypass when all lines are protected.
        sampler_mode: "real" or "full" RD sampler, shared by all threads.
        max_peaks: E peaks per thread the joint search combines.
    """

    def __init__(
        self,
        num_threads: int,
        n_c: int = 8,
        d_max: int = 256,
        step: int = 16,
        recompute_interval: int = 8192,
        bypass: bool = True,
        sampler_mode: str = "real",
        max_peaks: int = 3,
    ) -> None:
        super().__init__(
            bypass=bypass,
            n_c=n_c,
            d_max=d_max,
            step=step,
            recompute_interval=recompute_interval,
            sampler_mode=sampler_mode,
        )
        self.num_threads = num_threads
        self.num_classes = num_threads
        self.max_peaks = max_peaks

    def _class_of(self, access: Access) -> int:
        return access.thread_id % self.num_threads


__all__ = ["PDPartitionPolicy"]
