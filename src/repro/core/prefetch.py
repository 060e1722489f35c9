"""Stream prefetching and the prefetch-aware PDP variants (Sec. 6.5).

The paper observes that prefetched lines usually belong to very long
streams (large RDs) and pollute the cache if protected like demand lines.
Two prefetch-aware PDP variants are evaluated:

1. ``"pd1"`` — insert prefetched lines with PD = 1 (barely protected);
2. ``"bypass"`` — prefetched fills bypass the LLC entirely.

:class:`StreamPrefetcher` is the "simple stream prefetcher" of the paper's
initial evaluation: it detects ascending/descending block streams per
memory region and emits prefetch accesses ahead of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pdp_policy import PDPPolicy
from repro.types import Access, AccessType


@dataclass(slots=True)
class _StreamEntry:
    """Tracking state for one detected stream."""

    last_address: int
    direction: int
    confidence: int


class StreamPrefetcher:
    """Region-based stream detector issuing ``degree`` prefetches ahead.

    Args:
        num_streams: concurrently tracked streams (LRU-evicted).
        degree: prefetches issued per confirmed stream access.
        region_bits: block-address bits defining a tracking region.
        train_threshold: confirmations before prefetches are issued.
    """

    def __init__(
        self,
        num_streams: int = 16,
        degree: int = 2,
        region_bits: int = 6,
        train_threshold: int = 2,
    ) -> None:
        self.num_streams = num_streams
        self.degree = degree
        self.region_bits = region_bits
        self.train_threshold = train_threshold
        self._streams: dict[int, _StreamEntry] = {}
        self._lru: list[int] = []
        self.issued = 0

    def _region(self, address: int) -> int:
        return address >> self.region_bits

    def observe(self, access: Access) -> list[Access]:
        """Train on a demand access; returns prefetch accesses to issue."""
        region = self._region(access.address)
        entry = self._streams.get(region)
        prefetches: list[Access] = []
        if entry is None:
            if len(self._streams) >= self.num_streams:
                oldest = self._lru.pop(0)
                del self._streams[oldest]
            self._streams[region] = _StreamEntry(access.address, 0, 0)
            self._lru.append(region)
            return prefetches
        delta = access.address - entry.last_address
        if delta in (1, -1):
            if entry.direction == delta:
                entry.confidence = min(entry.confidence + 1, 7)
            else:
                entry.direction = delta
                entry.confidence = 1
            if entry.confidence >= self.train_threshold:
                for ahead in range(1, self.degree + 1):
                    prefetches.append(
                        Access(
                            address=access.address + delta * ahead,
                            pc=access.pc,
                            kind=AccessType.PREFETCH,
                            thread_id=access.thread_id,
                        )
                    )
                self.issued += len(prefetches)
        elif delta != 0:
            entry.confidence = max(entry.confidence - 1, 0)
        entry.last_address = access.address
        self._lru.remove(region)
        self._lru.append(region)
        return prefetches


class PrefetchAwarePDPPolicy(PDPPolicy):
    """PDP that treats prefetched fills specially (Sec. 6.5).

    Args:
        prefetch_mode: ``"none"`` (prefetch-unaware), ``"pd1"`` (insert
            prefetches with PD = 1) or ``"bypass"`` (prefetches skip the
            LLC).
    """

    def __init__(self, prefetch_mode: str = "pd1", **kwargs) -> None:
        if prefetch_mode not in ("none", "pd1", "bypass"):
            raise ValueError(
                f"prefetch_mode must be none/pd1/bypass, got {prefetch_mode!r}"
            )
        super().__init__(**kwargs)
        self.prefetch_mode = prefetch_mode

    def choose_victim(self, set_index: int, access: Access) -> int | None:
        if (
            self.prefetch_mode == "bypass"
            and access.kind is AccessType.PREFETCH
            and self.bypass
        ):
            return None
        return super().choose_victim(set_index, access)

    def on_fill(self, set_index: int, way: int, access: Access) -> None:
        if self.prefetch_mode == "pd1" and access.kind is AccessType.PREFETCH:
            self._expiry[set_index][way] = self._tick[set_index] + 1
        else:
            super().on_fill(set_index, way, access)


def interleave_prefetches(accesses, prefetcher: StreamPrefetcher):
    """Yield demand accesses with trained prefetches injected after them."""
    for access in accesses:
        yield access
        yield from prefetcher.observe(access)


__all__ = [
    "PrefetchAwarePDPPolicy",
    "StreamPrefetcher",
    "interleave_prefetches",
]
