"""First-in-first-out replacement: evict the oldest-inserted line."""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy, register_policy
from repro.types import Access


@register_policy("fifo")
class FIFOPolicy(ReplacementPolicy):
    """Evict in insertion order; hits do not promote."""

    def _allocate(self, num_sets: int, ways: int) -> None:
        self._inserted = [[0] * ways for _ in range(num_sets)]
        self._clock = [0] * num_sets

    def on_hit(self, set_index: int, way: int, access: Access) -> None:
        pass

    def choose_victim(self, set_index: int, access: Access) -> int | None:
        row = self._inserted[set_index]
        return row.index(min(row))  # first way with the oldest stamp

    def on_fill(self, set_index: int, way: int, access: Access) -> None:
        self._clock[set_index] += 1
        self._inserted[set_index][way] = self._clock[set_index]


__all__ = ["FIFOPolicy"]
