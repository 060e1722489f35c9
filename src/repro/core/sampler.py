"""The RD sampler: measures reuse distances on a few sampled sets (Sec. 3).

Each sampled set keeps a FIFO of recently accessing addresses. A new access
searches the FIFO; the position of the most recent match gives the reuse
distance. To keep FIFOs small, a new entry is inserted only every M-th
access to the set (a per-set sampling counter counts to M), and the RD is
reconstructed as ``RD = n * M + t`` where ``n`` is the FIFO position of the
hit and ``t`` the sampling counter's value. A matched entry is invalidated
to reduce measurement error, exactly as in the paper.

The "Full" configuration of Fig. 9 (every set, M = 1, FIFO depth d_max)
measures RDs exactly; the "Real" configuration samples 32 sets with
32-entry FIFOs and M = d_max / 32.

Each FIFO is held as a *stamp map*, not a list: ``stamps`` maps an address
to the number of the push that inserted it, ``pushes`` counts pushes and
``length`` is the FIFO's fill, ``min(pushes, depth)``. Inserting at the
front shifts every entry back by one, so the entry of push ``p`` sits at
position ``pushes - 1 - p`` and is still in the FIFO while that position
is below ``length``. A search is therefore one dict probe instead of a
scan. This is exact because :meth:`RDSampler.observe` always invalidates
(pops) an address before it pushes it again, so an address is live at
most once per FIFO; a stamp whose position has run off the end is stale
and is dropped when probed, or by the prune that keeps the map below
``8 * depth`` entries.
"""

from __future__ import annotations


class _SetFIFO:
    """Address FIFO for one sampled set, as a stamp map (newest first)."""

    __slots__ = ("stamps", "pushes", "length", "depth")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.stamps: dict[int, int] = {}
        self.pushes = 0
        self.length = 0

    def find_and_invalidate(self, address: int) -> int | None:
        """Position of the live match, invalidating it; else None."""
        stamp = self.stamps.pop(address, None)
        if stamp is None:
            return None
        position = self.pushes - 1 - stamp
        return position if position < self.length else None

    def push(self, address: int) -> None:
        """Insert ``address`` at the front; the oldest entry falls off a
        full FIFO, and stale stamps are pruned past ``8 * depth``."""
        self.stamps[address] = self.pushes
        self.pushes += 1
        if self.length < self.depth:
            self.length += 1
        elif len(self.stamps) > 8 * self.depth:
            cutoff = self.pushes - self.length
            self.stamps = {a: p for a, p in self.stamps.items() if p >= cutoff}

    def clear(self) -> None:
        """Empty the FIFO."""
        self.stamps = {}
        self.pushes = 0
        self.length = 0


class RDSampler:
    """Measures per-set access-based reuse distances on sampled sets.

    Args:
        num_sets: sets in the monitored cache.
        num_sampled_sets: how many sets to monitor, every
            ``num_sets // num_sampled_sets``-th from set 0 (32 in the
            "Real" configuration; ``num_sets`` for "Full").
        fifo_depth: entries per sampled-set FIFO.
        insertion_rate: M — a new FIFO entry every M-th access.
        on_distance: callback receiving each measured RD.
        on_access: optional callback invoked for every access to a sampled
            set (feeds the N_t counter).

    The maximum measurable distance is ``fifo_depth * insertion_rate``.
    """

    def __init__(
        self,
        num_sets: int,
        num_sampled_sets: int = 32,
        fifo_depth: int = 32,
        insertion_rate: int = 8,
        on_distance=None,
        on_access=None,
    ) -> None:
        if insertion_rate < 1:
            raise ValueError(f"insertion_rate must be >= 1, got {insertion_rate}")
        if fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        self.num_sets = num_sets
        self.num_sampled_sets = min(num_sampled_sets, num_sets)
        self.fifo_depth = fifo_depth
        self.insertion_rate = insertion_rate
        self.on_distance = on_distance
        self.on_access = on_access
        stride = max(1, num_sets // self.num_sampled_sets)
        self._fifos: dict[int, _SetFIFO] = {
            set_index: _SetFIFO(fifo_depth)
            for set_index in range(0, stride * self.num_sampled_sets, stride)
        }
        self._sampling_counter: dict[int, int] = {s: 0 for s in self._fifos}

    @property
    def d_max(self) -> int:
        """Largest reuse distance this sampler can measure."""
        return self.fifo_depth * self.insertion_rate

    @property
    def sampled_sets(self) -> list[int]:
        """The monitored set indices, ascending."""
        return sorted(self._fifos)

    def is_sampled(self, set_index: int) -> bool:
        """Whether accesses to ``set_index`` reach a FIFO."""
        return set_index in self._fifos

    def observe(self, set_index: int, address: int) -> int | None:
        """Present one access; returns the measured RD on a sampler hit."""
        fifo = self._fifos.get(set_index)
        if fifo is None:
            return None
        if self.on_access is not None:
            self.on_access()
        counter = self._sampling_counter[set_index] + 1
        position = fifo.find_and_invalidate(address)
        distance: int | None = None
        if position is not None:
            distance = position * self.insertion_rate + counter
            if self.on_distance is not None:
                self.on_distance(distance)
        if counter >= self.insertion_rate:
            fifo.push(address)
            counter = 0
        self._sampling_counter[set_index] = counter
        return distance

    def reset(self) -> None:
        """Clear all FIFOs and sampling counters."""
        for set_index, fifo in self._fifos.items():
            fifo.clear()
            self._sampling_counter[set_index] = 0

    def storage_bits(self, tag_bits: int = 16) -> int:
        """SRAM bits this sampler costs (Sec. 3 overhead accounting)."""
        per_set = self.fifo_depth * tag_bits
        counter_bits = max(1, (self.insertion_rate - 1).bit_length())
        return self.num_sampled_sets * (per_set + counter_bits)

    @classmethod
    def full(cls, num_sets: int, d_max: int = 256, **callbacks) -> RDSampler:
        """The exact "Full" configuration: every set, M = 1, depth d_max."""
        return cls(
            num_sets,
            num_sampled_sets=num_sets,
            fifo_depth=d_max,
            insertion_rate=1,
            **callbacks,
        )

    @classmethod
    def real(cls, num_sets: int, d_max: int = 256, **callbacks) -> RDSampler:
        """The paper's "Real" configuration: 32 sets, 32-entry FIFOs."""
        fifo_depth = 32
        insertion_rate = max(1, d_max // fifo_depth)
        return cls(
            num_sets,
            num_sampled_sets=32,
            fifo_depth=fifo_depth,
            insertion_rate=insertion_rate,
            **callbacks,
        )


__all__ = ["RDSampler"]
