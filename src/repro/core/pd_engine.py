"""Dynamic PD recomputation: sampler + counter arrays + periodic search.

The paper recomputes the PD every 512K LLC accesses (Sec. 3) and resets the
RD counters so each interval sees a fresh RDD — this is what lets PDP adapt
to program phases (Sec. 6.4, Fig. 11). The engine also records the PD
history, which reproduces Fig. 11c directly.

One engine serves the whole PDP family. It tracks K access classes: one
shared RD sampler feeds one RD counter array per class, chosen by the class
of the access being observed. Plain PDP has K = 1; class-based PDP (Sec.
6.3) uses one class per PC hash, and PD partitioning (Sec. 4) one per
thread. A recompute runs Eq. 1 per class, or — with ``max_peaks`` set — the
Sec. 4 joint peak-combination search over all classes at once.
"""

from __future__ import annotations

from repro.core import hit_rate_model
from repro.core.multicore_model import ThreadRDD, find_pd_vector
from repro.core.rdd import RDCounterArray
from repro.core.sampler import RDSampler


class PDEngine:
    """Drives the dynamic protecting distances of one cache.

    Args:
        num_sets: sets of the monitored cache.
        associativity: W, used both as d_e and the minimum PD.
        d_max: maximum protecting distance.
        step: S_c counter granularity.
        recompute_interval: LLC accesses between PD recomputations
            (512K in the paper; scale down for short traces).
        sampler_mode: "real" (32 sets x 32-entry FIFO) or "full" (exact).
        initial_pd: PD of every class before the first recomputation.
        num_classes: K, the access classes with their own RDD and PD.
        max_peaks: ``None`` searches each class alone (Eq. 1); an int
            runs the joint E_m search (Eq. 2) over each class's top
            ``max_peaks`` E peaks.
    """

    def __init__(
        self,
        num_sets: int,
        associativity: int = 16,
        d_max: int = 256,
        step: int = 4,
        recompute_interval: int = 4096,
        sampler_mode: str = "real",
        initial_pd: int | None = None,
        num_classes: int = 1,
        max_peaks: int | None = None,
    ) -> None:
        if sampler_mode not in ("real", "full"):
            raise ValueError(f"sampler_mode must be 'real' or 'full', got {sampler_mode!r}")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        self.associativity = associativity
        self.d_max = d_max
        self.step = step
        self.recompute_interval = recompute_interval
        self.max_peaks = max_peaks
        #: One RD counter array per access class.
        self.class_counters = [
            RDCounterArray(d_max=d_max, step=step) for _ in range(num_classes)
        ]
        self._class = 0
        # One class binds the sampler straight to its array: no dispatch
        # per sampled access.
        if num_classes == 1:
            on_distance = self.class_counters[0].record_distance
            on_access = self.class_counters[0].record_access
        else:
            on_distance, on_access = self._record_distance, self._record_access
        factory = RDSampler.real if sampler_mode == "real" else RDSampler.full
        self.sampler = factory(
            num_sets, d_max=d_max, on_distance=on_distance, on_access=on_access
        )
        #: One protecting distance per class, updated in place.
        start = initial_pd if initial_pd is not None else associativity
        self.pds = [start] * num_classes
        self.accesses_since_recompute = 0
        self.recompute_count = 0
        #: (access_number, pds) pairs — the Fig. 11c series, one PD per class.
        self.pd_history: list[tuple[int, tuple[int, ...]]] = [(0, tuple(self.pds))]
        self._total_accesses = 0

    @property
    def current_pd(self) -> int | None:
        """The single PD in force, or ``None`` when there are several classes."""
        return self.pds[0] if len(self.pds) == 1 else None

    def _record_distance(self, distance: int) -> None:
        self.class_counters[self._class].record_distance(distance)

    def _record_access(self) -> None:
        self.class_counters[self._class].record_access()

    def observe(self, set_index: int, address: int, access_class: int = 0) -> bool:
        """Feed one LLC access of ``access_class``; returns whether it
        triggered a PD recomputation."""
        self._class = access_class
        self.sampler.observe(set_index, address)
        self._total_accesses += 1
        self.accesses_since_recompute += 1
        if self.accesses_since_recompute >= self.recompute_interval:
            self.recompute()
            return True
        return False

    def recompute(self) -> list[int]:
        """Run the E search, update the PDs, reset the counters."""
        arrays = self.class_counters
        d_e = float(self.associativity)
        if self.max_peaks is None:
            min_pd = min(self.associativity, self.d_max)
            for index, array in enumerate(arrays):
                # Looked up on the module so a wrapper installed there
                # sees every search.
                self.pds[index] = hit_rate_model.find_best_pd(
                    array.counts,
                    array.total,
                    step=self.step,
                    d_e=d_e,
                    min_pd=min_pd,
                    default_pd=self.pds[index],
                )
        elif any(array.total > 0 for array in arrays):
            self.pds[:] = find_pd_vector(
                [ThreadRDD(counts=array.counts, total=array.total) for array in arrays],
                step=self.step,
                d_e=d_e,
                max_peaks=self.max_peaks,
                default_pd=self.associativity,
            )
        for array in arrays:
            array.reset()
        self.recompute_count += 1
        self.pd_history.append((self._total_accesses, tuple(self.pds)))
        self.accesses_since_recompute = 0
        return self.pds


__all__ = ["PDEngine"]
