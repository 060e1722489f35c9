"""A memory-access trace backed by numpy arrays.

A :class:`Trace` is an ordered sequence of block-address accesses, optionally
carrying per-access program counters and thread ids. Generators produce
traces; simulators consume them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.types import Access, AccessType


def _as_int64_column(values: Iterable[int]) -> np.ndarray:
    """Coerce a trace column to a 1-D int64 array.

    ndarrays (and anything else numpy can consume directly, e.g. lists)
    convert without an intermediate Python list; only true one-shot
    iterables (generators) are materialized first.
    """
    if isinstance(values, np.ndarray):
        return np.asarray(values, dtype=np.int64)
    if not isinstance(values, (list, tuple, range)):
        values = list(values)
    return np.asarray(values, dtype=np.int64)


class Trace:
    """Ordered sequence of memory accesses.

    Stored columnar (numpy int64 arrays) for compactness; iterated as
    :class:`repro.types.Access` records.
    """

    def __init__(
        self,
        addresses: Iterable[int],
        pcs: Iterable[int] | None = None,
        thread_ids: Iterable[int] | None = None,
        name: str = "trace",
        instructions_per_access: float = 1.0,
    ) -> None:
        self.addresses = _as_int64_column(addresses)
        n = len(self.addresses)
        if pcs is None:
            self.pcs = np.zeros(n, dtype=np.int64)
        else:
            self.pcs = _as_int64_column(pcs)
        if thread_ids is None:
            self.thread_ids = np.zeros(n, dtype=np.int64)
        else:
            self.thread_ids = _as_int64_column(thread_ids)
        if len(self.pcs) != n or len(self.thread_ids) != n:
            raise ValueError("addresses, pcs and thread_ids must have equal length")
        self.name = name
        # How many dynamic instructions each access represents. The paper
        # reports MPKI (misses per 1000 instructions); synthetic traces model
        # the instruction stream as a fixed dilution of the memory stream.
        self.instructions_per_access = float(instructions_per_access)

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[Access]:
        for addr, pc, tid in zip(self.addresses, self.pcs, self.thread_ids):
            yield Access(int(addr), int(pc), AccessType.READ, int(tid))

    def __getitem__(self, index: int) -> Access:
        return Access(
            int(self.addresses[index]),
            int(self.pcs[index]),
            AccessType.READ,
            int(self.thread_ids[index]),
        )

    @property
    def instruction_count(self) -> int:
        """Dynamic instruction count this trace represents."""
        return int(round(len(self) * self.instructions_per_access))

    def slice(self, start: int, stop: int) -> Trace:
        """Return a sub-trace covering accesses ``[start, stop)``."""
        sub = Trace.__new__(Trace)
        sub.addresses = self.addresses[start:stop]
        sub.pcs = self.pcs[start:stop]
        sub.thread_ids = self.thread_ids[start:stop]
        sub.name = f"{self.name}[{start}:{stop}]"
        sub.instructions_per_access = self.instructions_per_access
        return sub

    def concat(self, other: Trace, name: str | None = None) -> Trace:
        """Return the concatenation of this trace and ``other``."""
        joined = Trace.__new__(Trace)
        joined.addresses = np.concatenate([self.addresses, other.addresses])
        joined.pcs = np.concatenate([self.pcs, other.pcs])
        joined.thread_ids = np.concatenate([self.thread_ids, other.thread_ids])
        joined.name = name or f"{self.name}+{other.name}"
        joined.instructions_per_access = self.instructions_per_access
        return joined

    def with_thread_id(self, thread_id: int) -> Trace:
        """Return a copy whose accesses are tagged with ``thread_id``."""
        tagged = Trace.__new__(Trace)
        tagged.addresses = self.addresses
        tagged.pcs = self.pcs
        tagged.thread_ids = np.full(len(self), thread_id, dtype=np.int64)
        tagged.name = f"{self.name}@t{thread_id}"
        tagged.instructions_per_access = self.instructions_per_access
        return tagged

    def offset_addresses(self, offset: int) -> Trace:
        """Return a copy with all block addresses shifted by ``offset``.

        Used to give each thread of a multi-programmed mix a private
        address space.
        """
        shifted = Trace.__new__(Trace)
        shifted.addresses = self.addresses + np.int64(offset)
        shifted.pcs = self.pcs
        shifted.thread_ids = self.thread_ids
        shifted.name = self.name
        shifted.instructions_per_access = self.instructions_per_access
        return shifted

    def save(self, path) -> None:
        """Write this trace to ``path`` in the native compressed format
        (shared with the workload cache — see
        :mod:`repro.traces.formats.native`)."""
        from repro.traces.io import save_trace

        save_trace(self, path)

    @classmethod
    def load(cls, path) -> Trace:
        """Read a trace previously written by :meth:`save` (legacy
        ``.npz`` archives are also accepted)."""
        from repro.traces.io import load_trace

        return load_trace(path)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, accesses={len(self)})"


__all__ = ["Trace"]
