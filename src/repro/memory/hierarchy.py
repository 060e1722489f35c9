"""Three-level cache hierarchy (Table 1 of the paper).

L1 and L2 use LRU; the LLC policy is pluggable. The LLC is non-inclusive:
a fill the LLC bypasses is still delivered to the upper levels, matching
the paper's bypass semantics (Sec. 2.2, "the bypassed lines are inserted
in a higher-level cache").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.policies.lru import LRUPolicy
from repro.types import Access


@dataclass(slots=True)
class HierarchyResult:
    """Where accesses in a run were served."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    memory_accesses: int = 0
    llc_bypasses: int = 0

    @property
    def llc_accesses(self) -> int:
        return self.llc_hits + self.memory_accesses

    def mpki(self, instruction_count: int) -> float:
        """LLC misses per thousand instructions."""
        if instruction_count <= 0:
            return 0.0
        return 1000.0 * self.memory_accesses / instruction_count


class CacheHierarchy:
    """L1 -> L2 -> LLC lookup path with a pluggable LLC policy.

    Args:
        llc_policy: replacement policy instance for the LLC.
        l1_geometry / l2_geometry / llc_geometry: shapes; defaults follow
            the paper's Table 1 (32KB/8-way, 256KB/8-way, 2MB/16-way).
    """

    def __init__(
        self,
        llc_policy,
        l1_geometry: CacheGeometry | None = None,
        l2_geometry: CacheGeometry | None = None,
        llc_geometry: CacheGeometry | None = None,
    ) -> None:
        self.l1 = SetAssociativeCache(
            l1_geometry or CacheGeometry.from_capacity(32 * 1024, ways=8),
            LRUPolicy(),
        )
        self.l2 = SetAssociativeCache(
            l2_geometry or CacheGeometry.from_capacity(256 * 1024, ways=8),
            LRUPolicy(),
        )
        self.llc = SetAssociativeCache(
            llc_geometry or CacheGeometry.from_capacity(2 * 1024 * 1024, ways=16),
            llc_policy,
        )
        self.result = HierarchyResult()

    def access(self, access: Access) -> str:
        """Look the access up level by level, filling on the way back.

        Returns the level that served the access: "l1", "l2", "llc" or
        "memory". An LLC bypass still fills L1/L2 (non-inclusive
        semantics), so a bypassed block remains accessible above.
        """
        self.result.accesses += 1
        if self.l1.access(access).hit:
            self.result.l1_hits += 1
            return "l1"
        if self.l2.access(access).hit:
            self.result.l2_hits += 1
            return "l2"
        llc_outcome = self.llc.access(access)
        if llc_outcome.hit:
            self.result.llc_hits += 1
            return "llc"
        self.result.memory_accesses += 1
        if llc_outcome.bypassed:
            self.result.llc_bypasses += 1
        return "memory"


__all__ = ["CacheHierarchy", "HierarchyResult"]
