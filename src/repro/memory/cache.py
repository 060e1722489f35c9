"""Set-associative cache with a pluggable replacement/bypass policy.

The cache owns tags, valid bits, per-line reuse bits, ownership (inserting
thread) and per-set access counters. Replacement policies keep their own
per-line metadata and are driven through the
:class:`repro.policies.base.ReplacementPolicy` hook interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.memory.stats import CacheStats
from repro.types import Access, AccessResult


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a cache: sets x ways x line size."""

    num_sets: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.ways <= 0:
            raise ValueError(f"ways must be positive, got {self.ways}")

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_size

    @property
    def total_lines(self) -> int:
        return self.num_sets * self.ways

    @classmethod
    def from_capacity(
        cls, capacity_bytes: int, ways: int, line_size: int = 64
    ) -> CacheGeometry:
        """Build a geometry from capacity / associativity / line size."""
        num_sets = capacity_bytes // (ways * line_size)
        if num_sets * ways * line_size != capacity_bytes:
            raise ValueError(
                f"capacity {capacity_bytes} is not sets*ways*line_size-aligned"
            )
        return cls(num_sets=num_sets, ways=ways, line_size=line_size)

    def set_index(self, block_address: int) -> int:
        return block_address % self.num_sets

    def tag(self, block_address: int) -> int:
        return block_address // self.num_sets

    def __str__(self) -> str:
        kib = self.capacity_bytes / 1024
        return f"{kib:g}KB/{self.ways}-way/{self.line_size}B"


class SetAssociativeCache:
    """A set-associative cache driven by a replacement policy.

    Access flow: tag check -> on hit, promote via the policy; on miss, fill
    an invalid way if present, otherwise ask the policy for a victim. A
    policy that supports bypass may return ``None`` from ``choose_victim``,
    in which case the fill is dropped (non-inclusive behaviour, Sec. 2.2).

    Observers (e.g. :class:`repro.memory.stats.OccupancyTracker`) receive
    ``on_hit(set, addr, occupancy)``, ``on_evict(set, addr, occupancy,
    was_reused)`` and ``on_bypass(set, addr)``. Fills have no observer
    event; ``stats.fills`` counts them.
    """

    def __init__(self, geometry: CacheGeometry, policy) -> None:
        self.geometry = geometry
        self.policy = policy
        num_sets, ways = geometry.num_sets, geometry.ways
        self.tags = [[0] * ways for _ in range(num_sets)]
        self.valid = [[False] * ways for _ in range(num_sets)]
        # Reuse bit: set on first hit after insertion (paper Sec. 2.2).
        self.reused = [[False] * ways for _ in range(num_sets)]
        # Thread that inserted the line (shared-cache policies).
        self.owner = [[0] * ways for _ in range(num_sets)]
        # Per-set access count; also drives occupancy accounting.
        self.set_accesses = [0] * num_sets
        # Set access count at the line's last insertion/promotion.
        self._interval_start = [[0] * ways for _ in range(num_sets)]
        # Per-set {tag: way} index of the valid lines. All mutations go
        # through access()/invalidate_all(), which keep it coherent; it
        # replaces the O(ways) tag scans in lookup() and access(). Lines
        # are only invalidated wholesale, so valid ways are always the
        # prefix [0, len(index)) and len(index) names the next free way.
        self._tag_index: list[dict[int, int]] = [{} for _ in range(num_sets)]
        self.stats = CacheStats()
        self.observers: list = []
        policy.attach(self)

    # -- queries ---------------------------------------------------------

    def lookup(self, block_address: int) -> int | None:
        """Way holding ``block_address`` or None; no state change."""
        set_index = self.geometry.set_index(block_address)
        return self._tag_index[set_index].get(self.geometry.tag(block_address))

    def resident_addresses(self, set_index: int) -> list[int]:
        """Block addresses currently valid in ``set_index``."""
        return [
            self.tags[set_index][w] * self.geometry.num_sets + set_index
            for w in range(self.geometry.ways)
            if self.valid[set_index][w]
        ]

    def occupancy_of(self, set_index: int, way: int) -> int:
        """Set accesses since the line's last insertion or promotion."""
        return self.set_accesses[set_index] - self._interval_start[set_index][way]

    # -- the access path --------------------------------------------------

    def access(self, access: Access) -> AccessResult:
        """Present one access; returns hit/miss/bypass outcome."""
        geometry = self.geometry
        set_index = geometry.set_index(access.address)
        tag = geometry.tag(access.address)
        self.stats.accesses += 1
        self.set_accesses[set_index] += 1
        self.policy.on_access(set_index, access)

        index = self._tag_index[set_index]
        hit_way = index.get(tag)
        if hit_way is not None:
            self.stats.hits += 1
            occupancy = self.occupancy_of(set_index, hit_way)
            self.reused[set_index][hit_way] = True
            self._interval_start[set_index][hit_way] = self.set_accesses[set_index]
            self.policy.on_hit(set_index, hit_way, access)
            for observer in self.observers:
                observer.on_hit(set_index, access.address, occupancy)
            return AccessResult(hit=True, way=hit_way)

        self.stats.misses += 1
        row_tags = self.tags[set_index]
        evicted_address: int | None = None
        if len(index) < geometry.ways:
            victim_way = len(index)  # lowest-numbered invalid way
        else:
            chosen = self.policy.choose_victim(set_index, access)
            if chosen is None:
                self.stats.bypasses += 1
                self.policy.on_bypass(set_index, access)
                for observer in self.observers:
                    observer.on_bypass(set_index, access.address)
                return AccessResult(hit=False, bypassed=True)
            victim_way = chosen
            evicted_address = row_tags[victim_way] * geometry.num_sets + set_index
            occupancy = self.occupancy_of(set_index, victim_way)
            was_reused = self.reused[set_index][victim_way]
            self.stats.evictions += 1
            self.policy.on_evict(set_index, victim_way, access)
            for observer in self.observers:
                observer.on_evict(set_index, evicted_address, occupancy, was_reused)
            del index[row_tags[victim_way]]

        row_tags[victim_way] = tag
        self.valid[set_index][victim_way] = True
        self.reused[set_index][victim_way] = False
        self.owner[set_index][victim_way] = access.thread_id
        self._interval_start[set_index][victim_way] = self.set_accesses[set_index]
        index[tag] = victim_way
        self.stats.fills += 1
        self.policy.on_fill(set_index, victim_way, access)
        return AccessResult(hit=False, evicted=evicted_address, way=victim_way)

    def run_trace(self, trace) -> None:
        """Drive a whole :class:`repro.traces.trace.Trace` (fast path).

        Batched equivalent of ``for access in trace: self.access(access)``
        — see :mod:`repro.memory.fastpath`.
        """
        from repro.memory.fastpath import run_trace

        run_trace(self, trace)

    def invalidate_all(self) -> None:
        """Drop all lines (used between experiment phases)."""
        for set_index in range(self.geometry.num_sets):
            self._tag_index[set_index].clear()
            for way in range(self.geometry.ways):
                self.valid[set_index][way] = False
                self.reused[set_index][way] = False

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.geometry}, "
            f"policy={type(self.policy).__name__})"
        )


def log2_int(value: int) -> int:
    """Integer log2 of a power of two."""
    result = int(math.log2(value))
    if 1 << result != value:
        raise ValueError(f"{value} is not a power of two")
    return result


__all__ = ["CacheGeometry", "SetAssociativeCache", "log2_int"]
