"""Common value types shared across the simulator.

Addresses in this library are *block* addresses: the byte address divided by
the cache line size. All caches, traces and generators speak block addresses,
so the line size only matters when converting capacities to set counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessType(enum.Enum):
    """Kind of memory access presented to a cache."""

    READ = "read"
    WRITE = "write"
    PREFETCH = "prefetch"


@dataclass(frozen=True, slots=True)
class Access:
    """One memory access.

    Attributes:
        address: block address (byte address >> log2(line size)).
        pc: program counter of the instruction issuing the access; used by
            PC-based predictors (SDP). Synthetic workloads fabricate PCs.
        kind: read / write / prefetch.
        thread_id: originating thread (hardware context) for shared caches.
    """

    address: int
    pc: int = 0
    kind: AccessType = AccessType.READ
    thread_id: int = 0


@dataclass(slots=True)
class AccessResult:
    """Outcome of presenting one access to a cache.

    Attributes:
        hit: the block was resident.
        bypassed: the fill was not inserted (non-inclusive bypass policies).
        evicted: block address evicted to make room, if any.
        way: way touched (hit way or fill way); -1 when bypassed.
    """

    hit: bool
    bypassed: bool = False
    evicted: int | None = None
    way: int = -1


def block_address(byte_address: int, line_size: int = 64) -> int:
    """Convert a byte address to a block address for ``line_size`` lines."""
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(f"line_size must be a power of two, got {line_size}")
    return byte_address // line_size


__all__ = [
    "Access",
    "AccessResult",
    "AccessType",
    "block_address",
]
