"""Software-cache policy families: size-aware LRU, GDSF, TinyLFU, PDP.

Four policies exercise the two seams of
:class:`repro.swcache.model.ObjectCache` (admission and the
:meth:`~repro.swcache.model.SoftwareCachePolicy.victims` plan) in
increasing sophistication:

- ``size-lru`` (:class:`SizeAwareLRUPolicy`) — the baseline: admit
  everything, evict in recency order until the incoming object fits.
- ``gdsf`` (:class:`GDSFPolicy`) — GreedyDual-Size-Frequency: victims
  by the classic ``H = L + frequency / size`` priority with an
  inflation clock, so small hot objects outlive large cold ones.
- ``tinylfu`` (:class:`TinyLFUAdmissionPolicy`) — LRU eviction behind a
  TinyLFU admission filter: a count-min sketch of request frequencies
  decides whether the missing object is hotter than the object it would
  displace; one-hit wonders never enter the cache.
- ``pdp`` (:class:`PDPProtectionPolicy`) — the paper's protecting
  distance transplanted to the object tier: reuse distance is measured
  in *accesses* on a sampled key window, the protecting distance is
  recomputed periodically with the same :func:`find_best_pd` hit-rate
  model the hardware simulators use (``d_e`` = resident object count
  standing in for associativity), and still-protected objects are
  refused as victims — an all-protected cache bypasses the incoming
  fill, exactly the PDP bypass semantics of the paper.

:func:`make_software_policy` is the registry behind the CLI's
``--policies`` option.
"""

from __future__ import annotations

from collections import OrderedDict
import heapq

import numpy as np

from repro.core.hit_rate_model import find_best_pd
from repro.swcache.model import CacheEntry, SoftwareCachePolicy


class SizeAwareLRUPolicy(SoftwareCachePolicy):
    """Evict least-recently-used objects until the new object fits.

    The size awareness is structural: the cache keeps taking victims
    from the recency order until enough *bytes* are free, so one large
    fill may displace many small objects. Admission is unconditional.
    """

    name = "size-lru"

    def __init__(self) -> None:
        super().__init__()
        self._lru: OrderedDict[int, CacheEntry] = OrderedDict()

    def on_hit(self, entry: CacheEntry, now: float) -> None:
        """Move the re-requested object to the MRU end."""
        self._lru.move_to_end(entry.key)

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        """Track the filled object at the MRU end."""
        self._lru[entry.key] = entry

    def on_remove(self, entry: CacheEntry, reason: str) -> None:
        """Forget the departed object."""
        self._lru.pop(entry.key, None)

    def victims(
        self, to_free: int, exclude: CacheEntry | None
    ) -> list[CacheEntry] | None:
        """The least recently used objects that free ``to_free`` bytes."""
        plan = []
        freed = 0
        for entry in self._lru.values():
            if entry is not exclude:
                plan.append(entry)
                freed += entry.size
                if freed >= to_free:
                    return plan
        return None


class GDSFPolicy(SoftwareCachePolicy):
    """GreedyDual-Size-Frequency eviction (Cherkasova's GDSF).

    Each resident object carries a priority ``H = L + hits / size``
    where ``L`` is the inflation clock: whenever a victim is evicted,
    ``L`` rises to its priority, so long-untouched objects decay
    relative to fresh ones without any per-access aging sweep. The
    min-priority object is the next victim; large objects need more
    frequency to earn the same priority, which is what lifts the
    *object* hit ratio of web/CDN caches over plain LRU.

    The victim order comes from a lazy min-heap of
    ``(priority, seq, entry)`` items, ``seq`` a per-push stamp kept in
    ``pstate`` as ``(priority, seq)``: stale items (repriced, or the
    object since removed) are skipped on pop.
    """

    name = "gdsf"

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, CacheEntry]] = []
        self._clock = 0.0
        self._seq = 0

    def _push(self, entry: CacheEntry, now: float | None = None) -> None:
        """(Re)insert ``entry`` into the heap at its priority at the
        current clock, stamping ``pstate`` so older heap items become
        stale: a new object is priced, a hit object repriced (its
        frequency, and maybe its size, changed)."""
        self._seq = seq = self._seq + 1
        size = entry.size
        priority = self._clock + (entry.hits + 1) / (size if size > 1 else 1)
        entry.pstate = (priority, seq)
        heapq.heappush(self._heap, (priority, seq, entry))

    on_hit = on_insert = _push

    def on_remove(self, entry: CacheEntry, reason: str) -> None:
        """Invalidate the object's heap items (lazily skipped on pop)."""
        entry.pstate = None

    def victims(
        self, to_free: int, exclude: CacheEntry | None
    ) -> list[CacheEntry] | None:
        """The lowest-priority objects that free ``to_free`` bytes;
        advances the clock to the last victim's priority.

        ``exclude``'s item goes back on the heap. The heap holds every
        resident object, so the plan is only refused (every popped item
        pushed back, the clock untouched) when the resident bytes
        cannot cover ``to_free``.
        """
        heap = self._heap
        plan = []
        freed = 0
        skipped = None
        while heap:
            item = heapq.heappop(heap)
            priority, seq, entry = item
            if entry.pstate != (priority, seq):
                continue  # stale: repriced or already removed
            if entry is exclude:
                skipped = item
                continue
            plan.append(entry)
            freed += entry.size
            if freed >= to_free:
                self._clock = priority
                if skipped is not None:
                    heapq.heappush(heap, skipped)
                return plan
        if skipped is not None:
            heapq.heappush(heap, skipped)
        for entry in plan:
            heapq.heappush(heap, (*entry.pstate, entry))
        return None


#: ``_HALVE[x] == x >> 1``: the byte-translation table that halves every
#: counter of a sketch row in one C-level pass.
_HALVE = bytes(value >> 1 for value in range(256))

#: Odd 64-bit multipliers, one per sketch row: each row hashes
#: independently.
_MIXERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _FrequencySketch:
    """A count-min sketch with periodic halving (TinyLFU's freshness).

    ``rows`` hash rows of ``width`` saturating 8-bit counters estimate
    request frequencies in O(1) and a few KiB regardless of key-space
    size; after ``sample_period`` increments every counter is halved,
    so estimates decay toward the recent request mix.

    Each row is one ``bytearray`` (``rows[r][i]`` is counter ``i`` of
    row ``r``), indexed by the top ``log2(width)`` bits of
    ``key * mixer`` mod 2**64. Counters saturate at 255; halving is a
    ``translate`` through a ``x >> 1`` table.
    """

    def __init__(
        self, width: int = 1 << 16, rows: int = 4, sample_period: int | None = None
    ) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError(f"sketch width must be a power of two, got {width}")
        self.width = width
        self.rows = [bytearray(width) for _ in range(rows)]
        self.sample_period = (
            sample_period if sample_period is not None else 10 * width
        )
        self._increments = 0
        self._shift = 64 - (width.bit_length() - 1)
        self._hashes = tuple(zip(self.rows, _MIXERS[:rows]))

    def add(self, key: int) -> None:
        """Count one request for ``key`` (halving on period rollover)."""
        shift = self._shift
        for row, mixer in self._hashes:
            index = ((key * mixer) & _MASK64) >> shift
            if row[index] < 255:
                row[index] += 1
        self._increments += 1
        if self._increments >= self.sample_period:
            for row in self.rows:
                row[:] = row.translate(_HALVE)
            self._increments //= 2

    def estimate(self, key: int) -> int:
        """The (over-)estimated request count for ``key``."""
        shift = self._shift
        lowest = 255
        for row, mixer in self._hashes:
            count = row[((key * mixer) & _MASK64) >> shift]
            if count < lowest:
                lowest = count
        return lowest


class TinyLFUAdmissionPolicy(SizeAwareLRUPolicy):
    """LRU eviction guarded by TinyLFU frequency admission.

    Every request feeds the frequency sketch; on a miss with no free
    room, the missing object is admitted only if its estimated
    frequency exceeds that of the LRU victim it would displace. The
    filter costs one sketch probe per miss and shields the cache from
    one-hit wonders — scan-heavy object streams stop flushing the
    resident working set.
    """

    name = "tinylfu"

    def __init__(
        self, sketch_width: int = 1 << 16, sample_period: int | None = None
    ) -> None:
        super().__init__()
        self.sketch = _FrequencySketch(
            width=sketch_width, sample_period=sample_period
        )

    def record_access(self, key: int, size: int, now: float, pos: int) -> None:
        """Feed the frequency sketch (hits and misses alike)."""
        self.sketch.add(key)

    def admit(self, key: int, size: int, now: float) -> bool:
        """Admit freely into free room; otherwise out-compete the LRU
        victim on estimated frequency."""
        cache = self.cache
        if cache is None or cache.bytes_used + size <= cache.capacity_bytes:
            return True
        if not self._lru:
            return True
        victim = next(iter(self._lru.values()))
        return self.sketch.estimate(key) > self.sketch.estimate(victim.key)


#: Protected-heap length below which :class:`PDPProtectionPolicy` never
#: compacts its heaps.
_MIN_COMPACT = 1 << 12


def _live(item: tuple) -> bool:
    """Whether a PDP heap item is its entry's current one.

    Both heaps end their items with ``(..., touched, entry)``; the item
    is live while the entry is resident and ``touched`` is still the
    position of its last touch."""
    state = item[-1].pstate
    return state is not None and state[1] == item[-2]


class PDPProtectionPolicy(SoftwareCachePolicy):
    """Protecting-distance protection for a byte-budget object cache.

    The paper's PDP, re-based from set-relative hardware reuse
    distances to global access counts:

    - every request advances an access clock; a bounded sampler (the
      last-seen position of up to ``sample_keys`` keys, FIFO-evicted)
      yields reuse distances in accesses, kept while below ``max_pd``;
    - every ``recompute_interval`` requests those distances are binned
      into an RDD histogram of ``bins`` bins of width
      ``max_pd / bins`` and the protecting distance is recomputed with
      the shared :func:`find_best_pd` E(d_p) model, with ``d_e`` set
      to the resident object count (the role cache associativity
      plays in hardware); then the samples reset so the PD tracks
      phase changes;
    - an object is *protected* until its insertion/last-hit position
      plus the current PD. Victims are the unprotected objects in LRU
      order; when those do not free enough bytes, a ``bypass=True``
      policy refuses the fill (the incoming object bypasses — the
      paper's PDP-bypass) while ``bypass=False`` falls back to evicting
      protected objects closest to losing protection.

    Victims come from two lazy-deletion min-heaps, so a victim costs
    O(log n) instead of a scan over every protected object. Each touch
    (insertion or hit at position ``p``) sets ``pstate`` to
    ``(protect_until, p)`` and pushes ``(protect_until, p, entry)``
    onto the *protected* heap. A victim search first migrates every
    item whose protection has ended to the *unprotected* heap as
    ``(p, entry)`` — ``p`` orders it exactly as recency does. An item
    whose ``p`` no longer matches ``entry.pstate`` (touched again, or
    removed: ``pstate`` is None) is stale and dropped when popped. A
    refused plan pushes its popped items back, so the next search sees
    the same order.

    Exposes ``current_pd`` and ``protected_count`` so a
    :class:`repro.obs.timeseries.WindowedRecorder` records the PD
    trajectory and protected-byte occupancy per window unchanged.
    """

    name = "pdp"

    def __init__(
        self,
        max_pd: int = 1 << 17,
        bins: int = 256,
        recompute_interval: int = 1 << 15,
        initial_pd: int | None = None,
        sample_keys: int = 1 << 16,
        bypass: bool = True,
    ) -> None:
        super().__init__()
        if max_pd <= 0 or bins <= 0 or recompute_interval <= 0:
            raise ValueError(
                "max_pd, bins and recompute_interval must be positive"
            )
        self.step = max(1, max_pd // bins)
        self.max_pd = self.step * bins
        self.bins = bins
        self.recompute_interval = recompute_interval
        self.sample_keys = sample_keys
        self.bypass = bypass
        self._pd = initial_pd if initial_pd is not None else self.max_pd // 8
        self._pd = max(self.step, self._pd)
        self._distances: list[int] = []
        self._since_recompute = 0
        self._last_seen: OrderedDict[int, int] = OrderedDict()
        self._pos = 0
        self._protected: list[tuple[int, int, CacheEntry]] = []
        self._unprotected: list[tuple[int, CacheEntry]] = []
        self._compact_at = _MIN_COMPACT
        #: ``(position, pd)`` recompute history, for manifests/tests.
        self.pd_history: list[tuple[int, int]] = []

    @property
    def current_pd(self) -> int:
        """The protecting distance currently in force (in accesses)."""
        return self._pd

    def protected_count(self, set_index: int = 0) -> int:
        """Resident objects still under protection (the recorder's
        per-window ``protected_lines`` probe; one set, so ``set_index``
        is ignored).

        Every protected object has its live item on the protected
        heap, so this counts the live items there whose protection
        has not yet ended."""
        pos = self._pos
        return sum(
            1 for item in self._protected if item[0] > pos and _live(item)
        )

    def record_access(self, key: int, size: int, now: float, pos: int) -> None:
        """Sample the reuse distance and periodically recompute the PD."""
        self._pos = pos
        last_seen = self._last_seen
        last = last_seen.pop(key, None)
        if last is not None:
            distance = pos - last
            if distance < self.max_pd:
                self._distances.append(distance)
        last_seen[key] = pos
        if len(last_seen) > self.sample_keys:
            last_seen.popitem(last=False)
        self._since_recompute += 1
        if self._since_recompute >= self.recompute_interval:
            self._recompute()

    def _recompute(self) -> None:
        """Bin the sampled distances into the RDD, re-run the E(d_p)
        search over it, and reset the samples."""
        rdd = np.bincount(
            np.asarray(self._distances, dtype=np.int64) // self.step,
            minlength=self.bins,
        )
        cache = self.cache
        d_e = float(max(1, len(cache) if cache is not None else 1))
        self._pd = find_best_pd(
            rdd,
            self._since_recompute,
            step=self.step,
            d_e=d_e,
            min_pd=self.step,
            default_pd=self._pd,
        )
        self.pd_history.append((self._pos, self._pd))
        self._distances = []
        self._since_recompute = 0

    def _protect(self, entry: CacheEntry, now: float | None = None) -> None:
        """Grant ``entry`` protection for the current PD: stamp its
        ``(protect_until, position)`` and push it on the protected heap
        (any older heap item of the entry becomes stale). A new object
        is protected exactly as a reused one, whose new position also
        refreshes its recency: it sorts after every other one."""
        pos = self._pos
        protect_until = pos + self._pd
        entry.pstate = (protect_until, pos)
        protected = self._protected
        heapq.heappush(protected, (protect_until, pos, entry))
        if len(protected) > self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Drop every stale item from both heaps, in place.

        Stale items otherwise leave a heap only when popped, and a
        cache that rarely evicts pops rarely; compacting whenever the
        protected heap doubles past its live size keeps the heaps
        O(resident objects) at amortised O(1) per touch. Live keys are
        unique, so the victim order is unchanged."""
        for heap in (self._protected, self._unprotected):
            heap[:] = [item for item in heap if _live(item)]
            heapq.heapify(heap)
        self._compact_at = max(_MIN_COMPACT, 2 * len(self._protected))

    on_hit = on_insert = _protect

    def on_remove(self, entry: CacheEntry, reason: str) -> None:
        """Invalidate the object's heap items (lazily skipped on pop)."""
        entry.pstate = None

    def victims(
        self, to_free: int, exclude: CacheEntry | None
    ) -> list[CacheEntry] | None:
        """Unprotected objects in LRU order; then, only for a
        non-bypass policy, protected objects closest to losing
        protection (ties in LRU order) — as many as free ``to_free``
        bytes.

        A ``bypass=True`` policy refuses (None) when the unprotected
        objects do not cover ``to_free``: nothing protected is ever
        evicted, and every popped item is pushed back. ``exclude``'s
        item is pushed back either way."""
        protected = self._protected
        unprotected = self._unprotected
        pos = self._pos
        while protected and protected[0][0] <= pos:
            item = heapq.heappop(protected)
            if _live(item):
                heapq.heappush(unprotected, item[1:])
        popped: list[tuple[list, tuple]] = []
        plan = []
        freed = 0
        for heap in (unprotected,) if self.bypass else (unprotected, protected):
            while heap and freed < to_free:
                item = heapq.heappop(heap)
                entry = item[-1]
                state = entry.pstate  # _live(item), inlined
                if state is not None and state[1] == item[-2]:
                    popped.append((heap, item))
                    if entry is not exclude:
                        plan.append(entry)
                        freed += entry.size
        refused = freed < to_free
        for heap, item in popped:
            if refused or item[-1] is exclude:
                heapq.heappush(heap, item)
        return None if refused else plan


#: Registry name -> policy class (the ``--policies`` option vocabulary).
SOFTWARE_POLICIES: dict[str, type[SoftwareCachePolicy]] = {
    SizeAwareLRUPolicy.name: SizeAwareLRUPolicy,
    GDSFPolicy.name: GDSFPolicy,
    TinyLFUAdmissionPolicy.name: TinyLFUAdmissionPolicy,
    PDPProtectionPolicy.name: PDPProtectionPolicy,
}


def make_software_policy(name: str, **kwargs) -> SoftwareCachePolicy:
    """Instantiate a registered software-cache policy by name.

    Unknown names raise ``ValueError`` listing the known names sorted —
    the same contract as the hardware ``make_policy`` registry.
    """
    try:
        cls = SOFTWARE_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(SOFTWARE_POLICIES))
        raise ValueError(
            f"unknown software-cache policy {name!r}; known: {known}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "GDSFPolicy",
    "PDPProtectionPolicy",
    "SOFTWARE_POLICIES",
    "SizeAwareLRUPolicy",
    "TinyLFUAdmissionPolicy",
    "make_software_policy",
]
