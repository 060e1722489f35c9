"""Cache statistics, including the occupancy breakdown of the paper's Fig. 5.

The paper defines the *occupancy* of a line as the number of accesses to its
cache set between an insertion or a promotion and the eviction or the next
promotion (Sec. 2.3). :class:`OccupancyTracker` accumulates that breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/bypass counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def bypass_fraction(self) -> float:
        """Bypasses as a fraction of all accesses (paper Fig. 10c)."""
        return self.bypasses / self.accesses if self.accesses else 0.0

    def mpki(self, instruction_count: int) -> float:
        """Misses per thousand instructions."""
        if instruction_count <= 0:
            return 0.0
        return 1000.0 * self.misses / instruction_count

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.fills = 0


@dataclass(slots=True)
class OccupancyBreakdown:
    """Accesses and occupancy split into the categories of Fig. 5a."""

    hits: int = 0
    bypasses: int = 0
    evictions_short: int = 0  # evicted with occupancy <= threshold
    evictions_long: int = 0  # evicted with occupancy > threshold
    occupancy_promoted: int = 0  # occupancy closed by a promotion (reuse)
    occupancy_evicted_short: int = 0
    occupancy_evicted_long: int = 0
    max_eviction_occupancy: int = 0

    @property
    def total_occupancy(self) -> int:
        return (
            self.occupancy_promoted
            + self.occupancy_evicted_short
            + self.occupancy_evicted_long
        )

    def occupancy_fractions(self) -> dict[str, float]:
        """Occupancy shares by category ('Ocpy' bars in Fig. 5a)."""
        total = self.total_occupancy or 1
        return {
            "promoted": self.occupancy_promoted / total,
            "evicted_short": self.occupancy_evicted_short / total,
            "evicted_long": self.occupancy_evicted_long / total,
        }

    def access_fractions(self) -> dict[str, float]:
        """Access shares by category ('Acc' bars in Fig. 5a)."""
        total = self.hits + self.bypasses + self.evictions_short + self.evictions_long
        total = total or 1
        return {
            "hit": self.hits / total,
            "bypass": self.bypasses / total,
            "evicted_short": self.evictions_short / total,
            "evicted_long": self.evictions_long / total,
        }


class OccupancyTracker:
    """Observer accumulating the per-line occupancy breakdown of Fig. 5a.

    Attach to a :class:`repro.memory.cache.SetAssociativeCache` via
    ``cache.observers.append(tracker)``. The tracker opens an occupancy
    interval on fill and promotion, and closes it on promotion and eviction.

    Args:
        short_threshold: boundary between "evicted early" and "evicted
            late" lines; the paper uses 16 (the associativity).
    """

    def __init__(self, short_threshold: int = 16) -> None:
        self.short_threshold = short_threshold
        self.breakdown = OccupancyBreakdown()

    def on_hit(self, set_index: int, address: int, occupancy: int) -> None:
        self.breakdown.hits += 1
        self.breakdown.occupancy_promoted += occupancy

    def on_bypass(self, set_index: int, address: int) -> None:
        self.breakdown.bypasses += 1

    def on_evict(
        self, set_index: int, address: int, occupancy: int, was_reused: bool
    ) -> None:
        if occupancy <= self.short_threshold:
            self.breakdown.evictions_short += 1
            self.breakdown.occupancy_evicted_short += occupancy
        else:
            self.breakdown.evictions_long += 1
            self.breakdown.occupancy_evicted_long += occupancy
        if occupancy > self.breakdown.max_eviction_occupancy:
            self.breakdown.max_eviction_occupancy = occupancy


__all__ = ["CacheStats", "OccupancyBreakdown", "OccupancyTracker"]
