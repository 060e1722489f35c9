"""Variable-size software-cache model: byte budget, admission, TTL.

This is the first capacity model in the repository that is not
set-associative: an :class:`ObjectCache` holds *objects* of
heterogeneous byte sizes against a single byte budget, so "one victim
per fill" becomes "a victim *plan* that frees enough bytes", and
whether to cache at all becomes an explicit admission decision. The
model therefore exposes two seams instead of the hardware
``choose_victim`` hook, both implemented by a
:class:`SoftwareCachePolicy`:

- **admission** (:meth:`SoftwareCachePolicy.admit`) — called once per
  miss before any eviction work; returning False bypasses the fill
  (the object is served but not cached), the TinyLFU-style frequency
  filter's decision point;
- **eviction planning**
  (:meth:`SoftwareCachePolicy.eviction_candidates`) — a lazy iterator
  over victims in eviction-preference order. The cache takes victims
  until the incoming object fits; if the iterator ends first (a
  PDP-style policy refusing to sacrifice still-protected objects), the
  fill is rejected *without evicting anything* — planning is
  side-effect free until the plan is committed.

TTL expiry is checked lazily at access time (and during victim scans):
an object whose ``expires_at`` has passed counts as an ``expiration``,
never as a hit or an eviction, so time-based and capacity-based
removals stay separable in the statistics.

Statistics mirror the hardware :class:`repro.memory.stats.CacheStats`
counter names (``accesses``/``hits``/``misses``/``bypasses``/
``evictions``/``fills``) so a
:class:`repro.obs.timeseries.WindowedRecorder` attaches unchanged, and
add the byte axis (``bytes_requested``/``bytes_hit``/...) that object
caches are judged on — the recorder picks those up per window too.
Accounting invariants (pinned by ``tests/test_swcache.py``):

- ``accesses == hits + misses`` (every op resolves to one or the other);
- ``bypasses <= misses`` (a bypass is a miss that did not fill — an
  admission rejection, a refused eviction plan, or a DELETE) and
  ``misses == fills + bypasses``;
- ``bytes_requested == bytes_hit + bytes_missed`` over GET/HEAD ops.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

from repro.traces.objects import OP_DELETE, OP_GET, OP_HEAD, OP_PUT

#: Reasons an object can leave the cache, as passed to
#: :meth:`SoftwareCachePolicy.on_remove`.
REMOVE_EVICTED = "evicted"
REMOVE_EXPIRED = "expired"
REMOVE_INVALIDATED = "invalidated"


@dataclass(slots=True)
class ObjectCacheStats:
    """Counters for one :class:`ObjectCache`.

    The first six fields use the exact names of the hardware
    :class:`repro.memory.stats.CacheStats` so the windowed recorder's
    stats-delta snapshots work unchanged; ``bypasses`` counts misses
    that did not fill — admission rejections (including PDP-style
    protected-eviction refusals) and DELETE requests. Byte counters cover read
    ops (GET/HEAD) for the request/hit/miss axis — the byte-hit ratio
    of a CDN is a read-side metric — while ``bytes_admitted`` /
    ``bytes_evicted`` cover cache churn for any op.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    fills: int = 0
    expirations: int = 0
    invalidations: int = 0
    writes: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    bytes_missed: int = 0
    bytes_admitted: int = 0
    bytes_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 on an empty run)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def byte_hit_rate(self) -> float:
        """Bytes served from cache over bytes requested (read ops)."""
        if not self.bytes_requested:
            return 0.0
        return self.bytes_hit / self.bytes_requested

    @property
    def bypass_fraction(self) -> float:
        """Misses served without filling the cache, as a fraction of
        all accesses."""
        return self.bypasses / self.accesses if self.accesses else 0.0


@dataclass(slots=True)
class CacheEntry:
    """One resident object.

    ``last_pos``/``inserted_pos`` are logical access positions (the
    cache's own request counter — the clock reuse distances are
    measured in); ``expires_at`` is in trace-timestamp units, None when
    the cache has no TTL. ``pstate`` is policy-private state (a GDSF
    priority, a PDP protect-until position, ...), opaque to the cache.
    """

    key: int
    size: int
    inserted_pos: int
    last_pos: int
    expires_at: float | None = None
    hits: int = 0
    pstate: object = None


@dataclass(slots=True)
class _ScalarGeometry:
    """Degenerate geometry shim: an object cache is one set.

    Exists so the :class:`repro.obs.timeseries.WindowedRecorder`'s
    protected-line probe (which sums ``policy.protected_count(set)``
    over ``cache.geometry.num_sets`` sets) works on a software cache.
    """

    num_sets: int = 1


class SoftwareCachePolicy(ABC):
    """Admission + eviction-ordering policy for an :class:`ObjectCache`.

    Subclasses see every request through :meth:`record_access` (hits,
    misses, and rejected fills alike — frequency filters and
    reuse-distance trackers need the full stream), decide admission in
    :meth:`admit`, and order victims in :meth:`eviction_candidates`.
    State per resident object lives either in the policy's own
    structures or in :attr:`CacheEntry.pstate`.
    """

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self._cache_ref: weakref.ref[ObjectCache] | None = None

    @property
    def cache(self) -> "ObjectCache | None":
        """The bound cache, or None before :meth:`bind` (or once the
        cache has been collected).

        A weak back-reference: the cache owns its policy, so a strong
        link back would make every finished run's cache a reference
        cycle that only the cyclic collector frees.
        """
        ref = self._cache_ref
        return ref() if ref is not None else None

    def bind(self, cache: "ObjectCache") -> None:
        """Attach to the cache this policy instance governs (one cache
        per policy instance, mirroring the hardware policy contract).

        Rebinding to another cache raises ``RuntimeError``, also after
        the first cache was collected."""
        if self._cache_ref is not None and self._cache_ref() is not cache:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a cache; "
                "software-cache policies are single-use"
            )
        self._cache_ref = weakref.ref(cache)

    def record_access(self, key: int, size: int, now: float, pos: int) -> None:
        """Observe one request (every op, before lookup resolution)."""

    def admit(self, key: int, size: int, now: float) -> bool:
        """Whether a missing object should be cached at all.

        Called before any eviction planning; the default admits
        everything that can physically fit (the cache checks the
        capacity bound separately).
        """
        return True

    def on_hit(self, entry: CacheEntry, now: float) -> None:
        """One resident object was requested again."""

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        """One admitted object was filled into the cache."""

    def on_remove(self, entry: CacheEntry, reason: str) -> None:
        """One object left the cache (``reason`` is a ``REMOVE_*``)."""

    @abstractmethod
    def eviction_candidates(self, now: float) -> Iterator[CacheEntry]:
        """Victims in eviction-preference order, lazily.

        The cache consumes this iterator until the incoming object
        fits, then removes exactly the consumed entries and closes the
        iterator — so yielding must not mutate policy state
        irrevocably (use a ``finally`` block to restore state for
        yielded-but-not-removed entries, see the GDSF heap). Ending the
        iteration early *refuses* the remaining bytes: the fill is
        bypassed and nothing is evicted.
        """


class ObjectCache:
    """A byte-budget object cache with pluggable admission/eviction.

    Args:
        capacity_bytes: the byte budget; resident sizes never exceed it.
        policy: a fresh :class:`SoftwareCachePolicy` instance.
        ttl: objects expire this many trace time units after insertion
            (refreshed by PUT overwrites, not by read hits — the
            absolute-TTL model of object stores); None disables expiry.

    Requests arrive through :meth:`access` as ``(key, size, op, now)``
    rows — exactly the columns of an
    :class:`repro.traces.objects.ObjectTrace`. ``observers`` follows the
    hardware cache's observer protocol (``on_hit``/``on_evict``/
    ``on_bypass``; an insertion has no event) with ``set_index=0``, which
    is how the windowed recorder sees eviction causes.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: SoftwareCachePolicy,
        ttl: float | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive (or None), got {ttl}")
        self.capacity_bytes = int(capacity_bytes)
        self.ttl = ttl
        self.policy = policy
        self.stats = ObjectCacheStats()
        self.observers: list = []
        self.geometry = _ScalarGeometry()
        self.bytes_used = 0
        self._entries: dict[int, CacheEntry] = {}
        policy.bind(self)

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    @property
    def object_count(self) -> int:
        """Resident objects right now (expired-but-untouched included)."""
        return len(self._entries)

    def get_entry(self, key: int) -> CacheEntry | None:
        """The resident entry for ``key`` (no accounting, no expiry
        check — introspection only)."""
        return self._entries.get(key)

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate the resident entries (no particular order)."""
        return iter(self._entries.values())

    # -- the access path ---------------------------------------------------

    def _expired(self, entry: CacheEntry, now: float) -> bool:
        """Whether ``entry``'s TTL has passed at time ``now`` (an entry
        expires *at* its deadline: ``now >= expires_at`` is stale)."""
        return entry.expires_at is not None and now >= entry.expires_at

    def access(
        self, key: int, size: int, op: int = OP_GET, now: float | None = None
    ) -> bool:
        """Present one request; returns True on a cache hit.

        Op semantics (documented end-to-end in ``docs/SCENARIOS.md``):

        - GET/HEAD: hit if resident and fresh, else miss; a miss runs
          admission and, when admitted, the eviction plan. Byte
          counters (requested/hit/missed) cover these read ops.
        - PUT: write-allocate upsert. Resident: counts as a hit, the
          size is updated and the TTL deadline refreshed. Absent:
          counts as a miss and goes through admission like any fill.
        - DELETE: always a miss counted as a bypass (nothing fills);
          invalidates the object if resident.

        ``now`` is the request timestamp (TTL clock); defaults to the
        logical access position for traces without timestamps.
        """
        stats = self.stats
        pos = stats.accesses
        stats.accesses += 1
        if now is None:
            now = float(pos)
        read = op == OP_GET or op == OP_HEAD
        self.policy.record_access(key, size, now, pos)
        entry = self._entries.get(key)
        if entry is not None and self._expired(entry, now):
            self._remove(entry, REMOVE_EXPIRED)
            entry = None
        if op == OP_DELETE:
            # A DELETE is a miss that never fills — counted as a bypass
            # so ``misses == fills + bypasses`` holds for every op mix.
            stats.misses += 1
            stats.bypasses += 1
            for observer in self.observers:
                observer.on_bypass(0, key)
            if entry is not None:
                self._remove(entry, REMOVE_INVALIDATED)
            return False
        if entry is not None:
            stats.hits += 1
            if read:
                stats.bytes_requested += entry.size
                stats.bytes_hit += entry.size
            entry.hits += 1
            entry.last_pos = pos
            if op == OP_PUT:
                stats.writes += 1
                if not self._resize(entry, size, now):
                    return True  # overwrite too large to keep cached
                if self.ttl is not None:
                    entry.expires_at = now + self.ttl
            self.policy.on_hit(entry, now)
            for observer in self.observers:
                observer.on_hit(0, key, 0)
            return True
        stats.misses += 1
        if read:
            stats.bytes_requested += size
            stats.bytes_missed += size
        if op == OP_PUT:
            stats.writes += 1
        if (
            size > self.capacity_bytes
            or not self.policy.admit(key, size, now)
            or not self._make_room(size, now)
        ):
            stats.bypasses += 1
            for observer in self.observers:
                observer.on_bypass(0, key)
            return False
        entry = CacheEntry(
            key=key,
            size=size,
            inserted_pos=pos,
            last_pos=pos,
            expires_at=(now + self.ttl) if self.ttl is not None else None,
        )
        self._entries[key] = entry
        self.bytes_used += size
        stats.fills += 1
        stats.bytes_admitted += size
        self.policy.on_insert(entry, now)
        return False

    # -- capacity management -----------------------------------------------

    def _make_room(
        self, needed: int, now: float, exclude: CacheEntry | None = None
    ) -> bool:
        """Free bytes until ``needed`` more fit; True on success.

        Consumes the policy's eviction-candidate iterator, building the
        victim plan first and committing it only once sufficient —
        refusal (the iterator ending early) evicts nothing. Victims
        whose TTL already passed count as expirations, not evictions.
        """
        if self.bytes_used + needed <= self.capacity_bytes:
            return True
        plan: list[CacheEntry] = []
        freed = 0
        fits = False
        candidates = self.policy.eviction_candidates(now)
        try:
            for victim in candidates:
                if victim is exclude:
                    continue
                plan.append(victim)
                freed += victim.size
                if self.bytes_used - freed + needed <= self.capacity_bytes:
                    fits = True
                    break
            if not fits:
                return False
            for victim in plan:
                reason = (
                    REMOVE_EXPIRED
                    if self._expired(victim, now)
                    else REMOVE_EVICTED
                )
                self._remove(victim, reason)
            return True
        finally:
            candidates.close()

    def _resize(self, entry: CacheEntry, new_size: int, now: float) -> bool:
        """Apply a PUT overwrite's size change; True while still cached.

        Growth beyond the free budget triggers an eviction plan that
        excludes the entry itself; if the plan is refused (or the new
        size exceeds the whole budget) the overwritten object is
        invalidated instead — a cache must never exceed its byte
        budget to keep a stale size.
        """
        if new_size == entry.size:
            return True
        growth = new_size - entry.size
        if growth < 0:
            self.bytes_used += growth
            entry.size = new_size
            return True
        if new_size > self.capacity_bytes or not self._make_room(
            growth, now, exclude=entry
        ):
            self._remove(entry, REMOVE_INVALIDATED)
            return False
        self.bytes_used += growth
        entry.size = new_size
        return True

    def _remove(self, entry: CacheEntry, reason: str) -> None:
        """Drop ``entry``, attributing the removal to ``reason``."""
        del self._entries[entry.key]
        self.bytes_used -= entry.size
        stats = self.stats
        if reason == REMOVE_EVICTED:
            stats.evictions += 1
            stats.bytes_evicted += entry.size
            for observer in self.observers:
                observer.on_evict(0, entry.key, 0, entry.hits > 0)
        elif reason == REMOVE_EXPIRED:
            stats.expirations += 1
        else:
            stats.invalidations += 1
        self.policy.on_remove(entry, reason)


__all__ = [
    "CacheEntry",
    "ObjectCache",
    "ObjectCacheStats",
    "REMOVE_EVICTED",
    "REMOVE_EXPIRED",
    "REMOVE_INVALIDATED",
    "SoftwareCachePolicy",
]
