"""Generator producing traces whose per-set RDD matches a target profile.

Method: keep, per cache set, the sequence of recent accesses to that set.
To emit an access with reuse distance d, re-reference the block accessed d
set-accesses ago — provided the same block was not touched since (which
would shorten the measured distance). A few resampling attempts keep the
achieved RDD close to the target; unsatisfiable draws fall back to fresh
blocks, which only fattens the "long" tail (harmless: every paper
experiment treats long lines as one class).

Blocks are *owned* by the mixture component that first touched them, and a
component only re-references its own blocks. This mirrors real programs,
where a streaming load PC touches blocks that are never reused while other
PCs cycle a working set — exactly the structure PC-based dead-block
prediction (SDP) exploits. With ``pc_informative=False`` all components
share one PC pool and the correlation disappears (the paper's
h264ref/xalancbmk cases, where SDP mispredicts).

The paper's RDD definition is per-set and access-based (Sec. 1), so the
generator works per set and visits sets uniformly.

Each draw costs O(1), independent of the distance drawn:

- *Touched since.* When a block is re-referenced, its previous window
  entry is overwritten with a marker that matches no owner. A window
  entry that still names its block is therefore that block's latest
  access in the set, so "the block d accesses back was not touched
  since" is one lookup of the entry d back, not a rescan of the d - 1
  entries after it.
- *RNG stream.* Per access, the draws are: the set, the component (one
  ``random()`` against the profile's precomputed running weight sums),
  up to ``retries`` distances, then the PC. The set, distance and PC
  draws inline the ``getrandbits(k)`` rejection loop behind CPython's
  ``randrange``/``randint``, with ``k`` precomputed per range, so the
  stream equals what those calls would draw (checked for every
  supported Python by ``tests/test_generator_stream.py``). The output
  for a given (profile, num_sets, seed, history_depth, retries) is a
  contract: ``tests/golden/traces.json`` pins it, and cached ``.trz``
  entries rely on it (``TRACE_GENERATOR_VERSION``).
- *Memory.* Each set's window holds at most ``history_depth`` entries,
  so generator state is O(num_sets x history_depth) whatever the trace
  length; the output columns are preallocated int64 arrays.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right

import numpy as np

from repro.traces.trace import Trace
from repro.workloads.base import RDDProfile

#: Window entry of a block that was accessed again later: it matches no
#: owner, so it is never re-referenced.
_REUSED = (None, -1)


class RDDProfileGenerator:
    """Synthesizes traces with a controlled reuse-distance distribution.

    Args:
        profile: the target RDD mixture.
        num_sets: sets of the cache the trace is destined for (RDDs are
            per-set, so the generator must agree with the consumer).
        seed: RNG seed (generation is fully deterministic).
        history_depth: how far back re-references may reach; defaults to
            the largest finite component bound.
        retries: resampling attempts when a draw is unsatisfiable.
    """

    def __init__(
        self,
        profile: RDDProfile,
        num_sets: int = 64,
        seed: int = 12345,
        history_depth: int | None = None,
        retries: int = 4,
    ) -> None:
        num_sets = operator.index(num_sets)
        if num_sets < 1:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        self.profile = profile
        self.num_sets = num_sets
        self.seed = seed
        self.retries = retries
        finite_highs = [
            component.high
            for component in profile.components
            if component.high is not None
        ]
        self.history_depth = history_depth or (max(finite_highs, default=64) + 8)
        # Per component: (low, band width, width bits, PC base, PC pool,
        # PC bits, owner id); width 0 marks an infinite component.
        # Components sharing a pc_group share their PC pool and owner id:
        # they model one instruction whose blocks come back at several
        # distances.
        self._plans: list[tuple[int, int, int, int, int, int, int]] = []
        owner_ids: dict[object, int] = {}
        pool_ids: dict[object, int] = {}
        for index, component in enumerate(profile.components):
            if component.pc_group is not None:
                key: object = ("group", component.pc_group)
            else:
                key = ("solo", index)
            owner = owner_ids.setdefault(key, len(owner_ids))
            pool_key: object = 0 if not profile.pc_informative else key
            pool_id = pool_ids.setdefault(pool_key, len(pool_ids))
            width = 0 if component.is_infinite else component.high - component.low + 1
            pc_pool = operator.index(component.pc_pool)
            self._plans.append((
                component.low,
                width,
                width.bit_length(),
                0x400000 + pool_id * 0x1000,
                pc_pool,
                pc_pool.bit_length(),
                owner,
            ))

    def generate(self, length: int) -> Trace:
        """Produce a trace of ``length`` accesses."""
        rng = random.Random(self.seed)
        getrandbits = rng.getrandbits
        uniform = rng.random
        num_sets = self.num_sets
        set_bits = num_sets.bit_length()
        total_weight = self.profile.total_weight
        cumulative = self.profile.cumulative_weights
        plans = self._plans
        last_plan = len(plans) - 1
        retries = range(self.retries)
        depth = self.history_depth
        # Per-set window of the last ``depth`` accesses, oldest first, as
        # (address, owner id) entries.
        histories: list[list[tuple]] = [[] for _ in range(num_sets)]
        next_tag = [1] * num_sets  # tag 0 reserved; fresh blocks count up
        addresses = np.empty(length, dtype=np.int64)
        pcs = np.empty(length, dtype=np.int64)

        for position in range(length):
            # Each `while` below is randrange()/randint() inlined.
            set_index = getrandbits(set_bits)
            while set_index >= num_sets:
                set_index = getrandbits(set_bits)
            choice = bisect_right(cumulative, uniform() * total_weight)
            low, width, bits, pc_base, pc_pool, pc_bits, owner = plans[
                choice if choice < last_plan else last_plan
            ]
            history = histories[set_index]
            entry = None
            if width:
                for _ in retries:
                    offset = getrandbits(bits)
                    while offset >= width:
                        offset = getrandbits(bits)
                    distance = low + offset
                    if distance > len(history):
                        continue
                    # Only this owner's blocks, and only one not touched
                    # since (a touched block's entry is _REUSED).
                    if history[-distance][1] == owner:
                        entry = history[-distance]
                        history[-distance] = _REUSED
                        break
            if entry is None:
                entry = (next_tag[set_index] * num_sets + set_index, owner)
                next_tag[set_index] += 1
            addresses[position] = entry[0]
            pc = getrandbits(pc_bits)
            while pc >= pc_pool:
                pc = getrandbits(pc_bits)
            pcs[position] = pc_base + 4 * pc
            history.append(entry)
            if len(history) > depth:
                del history[0]

        return Trace(
            addresses,
            pcs=pcs,
            name=self.profile.name,
            instructions_per_access=self.profile.instructions_per_access,
        )


__all__ = ["RDDProfileGenerator"]
