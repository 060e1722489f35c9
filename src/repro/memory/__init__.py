"""Cache-hierarchy substrate: set-associative caches, hierarchy, timing."""

from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.fastpath import run_shared_trace, run_trace
from repro.memory.hierarchy import CacheHierarchy, HierarchyResult
from repro.memory.stats import CacheStats, OccupancyTracker
from repro.memory.timing import TimingModel

__all__ = [
    "CacheGeometry",
    "CacheHierarchy",
    "CacheStats",
    "HierarchyResult",
    "OccupancyTracker",
    "SetAssociativeCache",
    "TimingModel",
    "run_shared_trace",
    "run_trace",
]
