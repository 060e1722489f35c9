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
- **eviction planning** (:meth:`SoftwareCachePolicy.victims`) — given
  the bytes to free and the entry a PUT is growing (never a victim),
  the policy returns the whole plan: a list of victims in
  eviction-preference order whose sizes cover the bytes, or None to
  refuse (a PDP-style policy that will not sacrifice still-protected
  objects). A refused fill is bypassed *without evicting anything*,
  and the policy's victim order is left as it was; the cache commits a
  returned plan in full.

Requests enter through :meth:`ObjectCache.replay`, the one request
loop: it takes parallel ``(keys, sizes, ops, timestamps)`` columns (a
trace slice), binds the policy's hooks once per call, and adds its
request counters to :attr:`ObjectCache.stats` once per call.
:meth:`ObjectCache.access` is a one-row ``replay``.

TTL expiry is checked lazily at access time (and when a plan is
committed): an object whose ``expires_at`` has passed counts as an
``expiration``, never as a hit or an eviction, so time-based and
capacity-based removals stay separable in the statistics.

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
from collections.abc import Iterable, Iterator
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
    :meth:`admit`, and plan victims in :meth:`victims`. State per
    resident object lives either in the policy's own structures or in
    :attr:`CacheEntry.pstate`. A subclass that keeps the base
    :meth:`record_access` / :meth:`admit` costs nothing for them: the
    cache skips the base no-ops.
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
    def victims(
        self, to_free: int, exclude: CacheEntry | None
    ) -> list[CacheEntry] | None:
        """The eviction plan that frees at least ``to_free`` bytes.

        Returns resident entries in eviction-preference order, never
        ``exclude`` (the entry a PUT is growing), whose sizes sum to at
        least ``to_free``; the cache removes every one of them, calling
        :meth:`on_remove` for each. Returns None to *refuse*: the fill
        is bypassed, nothing is evicted, and the policy's victim order
        must be exactly what it was before the call.
        """


class ObjectCache:
    """A byte-budget object cache with pluggable admission/eviction.

    Args:
        capacity_bytes: the byte budget; resident sizes never exceed it.
        policy: a fresh :class:`SoftwareCachePolicy` instance.
        ttl: objects expire this many trace time units after insertion
            (refreshed by PUT overwrites, not by read hits — the
            absolute-TTL model of object stores); None disables expiry.

    Requests arrive through :meth:`replay` as parallel ``keys``/
    ``sizes``/``ops``/``timestamps`` columns — exactly the columns of an
    :class:`repro.traces.objects.ObjectTrace` — or one at a time through
    :meth:`access`. ``observers`` follows the
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

    def access(
        self, key: int, size: int, op: int = OP_GET, now: float | None = None
    ) -> bool:
        """Present one request; returns True on a cache hit.

        A one-row :meth:`replay` (which documents the op semantics).
        ``now`` is the request timestamp (TTL clock); defaults to the
        logical access position for traces without timestamps.
        """
        stats = self.stats
        hits = stats.hits
        if now is None:
            now = float(stats.accesses)
        self.replay((key,), (size,), (op,), (now,))
        return stats.hits != hits

    def replay(
        self,
        keys: Iterable[int],
        sizes: Iterable[int],
        ops: Iterable[int],
        timestamps: Iterable[float],
    ) -> None:
        """Present parallel request columns, one request per row.

        Op semantics (documented end-to-end in ``docs/SCENARIOS.md``):

        - GET/HEAD: hit if resident and fresh, else miss; a miss runs
          admission and, when admitted, the eviction plan. Byte
          counters (requested/hit/missed) cover these read ops.
        - PUT: write-allocate upsert. Resident: counts as a hit, the
          size is updated and the TTL deadline refreshed. Absent:
          counts as a miss and goes through admission like any fill.
        - DELETE: always a miss counted as a bypass (nothing fills);
          invalidates the object if resident.

        ``timestamps`` are the request times (the TTL clock). This is
        the cache's one request loop: the policy hooks are bound once
        per call (a base-class no-op ``record_access``/``admit`` is not
        called at all), and the request counters reach :attr:`stats`
        once, when the call returns or raises. ``bytes_used`` stays
        live throughout, for admission filters that read it.
        """
        policy = self.policy
        kind = type(policy)
        record = (
            None
            if kind.record_access is SoftwareCachePolicy.record_access
            else policy.record_access
        )
        admit = None if kind.admit is SoftwareCachePolicy.admit else policy.admit
        on_hit = policy.on_hit
        on_insert = policy.on_insert
        observers = self.observers
        entries = self._entries
        lookup = entries.get
        capacity = self.capacity_bytes
        ttl = self.ttl
        stats = self.stats
        start = stats.accesses
        # ``pos`` advances at the top of each row, so a row that raises
        # is still counted (as a miss, unless it already hit).
        pos = start - 1
        hits = bypasses = fills = writes = 0
        requested = bytes_hit = admitted = 0
        try:
            for key, size, op, now in zip(keys, sizes, ops, timestamps):
                pos += 1
                if record is not None:
                    record(key, size, now, pos)
                entry = lookup(key)
                if entry is not None:
                    # An entry expires *at* its deadline.
                    expires_at = entry.expires_at
                    if expires_at is not None and now >= expires_at:
                        self._remove(entry, REMOVE_EXPIRED)
                        entry = None
                if op == OP_DELETE:
                    # A DELETE is a miss that never fills — counted as a
                    # bypass so ``misses == fills + bypasses`` holds for
                    # every op mix.
                    bypasses += 1
                    for observer in observers:
                        observer.on_bypass(0, key)
                    if entry is not None:
                        self._remove(entry, REMOVE_INVALIDATED)
                elif entry is not None:
                    hits += 1
                    entry.hits += 1
                    entry.last_pos = pos
                    if op == OP_GET or op == OP_HEAD:
                        requested += entry.size
                        bytes_hit += entry.size
                    elif op == OP_PUT:
                        writes += 1
                        if size != entry.size and not self._resize(
                            entry, size, now
                        ):
                            continue  # overwrite too large to keep cached
                        if ttl is not None:
                            entry.expires_at = now + ttl
                    on_hit(entry, now)
                    for observer in observers:
                        observer.on_hit(0, key, 0)
                else:
                    if op == OP_GET or op == OP_HEAD:
                        requested += size
                    elif op == OP_PUT:
                        writes += 1
                    if (
                        size > capacity
                        or (admit is not None and not admit(key, size, now))
                        or (
                            self.bytes_used + size > capacity
                            and not self._make_room(size, now)
                        )
                    ):
                        bypasses += 1
                        for observer in observers:
                            observer.on_bypass(0, key)
                        continue
                    entry = CacheEntry(
                        key, size, pos, pos, None if ttl is None else now + ttl
                    )
                    entries[key] = entry
                    self.bytes_used += size
                    fills += 1
                    admitted += size
                    on_insert(entry, now)
        finally:
            accesses = pos + 1 - start
            stats.accesses += accesses
            stats.hits += hits
            stats.misses += accesses - hits
            stats.bypasses += bypasses
            stats.fills += fills
            stats.writes += writes
            stats.bytes_requested += requested
            stats.bytes_hit += bytes_hit
            stats.bytes_missed += requested - bytes_hit
            stats.bytes_admitted += admitted

    # -- capacity management -----------------------------------------------

    def _make_room(
        self, needed: int, now: float, exclude: CacheEntry | None = None
    ) -> bool:
        """Free bytes until ``needed`` more fit; True on success.

        Asks the policy for one victim plan and commits all of it; a
        refused plan (None) evicts nothing. Victims whose TTL already
        passed count as expirations, not evictions.
        """
        to_free = self.bytes_used + needed - self.capacity_bytes
        if to_free <= 0:
            return True
        plan = self.policy.victims(to_free, exclude)
        if plan is None:
            return False
        entries = self._entries
        stats = self.stats
        on_remove = self.policy.on_remove
        observers = self.observers
        for victim in plan:
            size = victim.size
            del entries[victim.key]
            self.bytes_used -= size
            expires_at = victim.expires_at
            if expires_at is not None and now >= expires_at:
                stats.expirations += 1
                on_remove(victim, REMOVE_EXPIRED)
                continue
            stats.evictions += 1
            stats.bytes_evicted += size
            for observer in observers:
                observer.on_evict(0, victim.key, 0, victim.hits > 0)
            on_remove(victim, REMOVE_EVICTED)
        return True

    def _resize(self, entry: CacheEntry, new_size: int, now: float) -> bool:
        """Apply a PUT overwrite's size change; True while still cached.

        Growth beyond the free budget triggers an eviction plan that
        excludes the entry itself; if the plan is refused (or the new
        size exceeds the whole budget) the overwritten object is
        invalidated instead — a cache must never exceed its byte
        budget to keep a stale size.
        """
        growth = new_size - entry.size
        if growth > 0 and (
            new_size > self.capacity_bytes
            or not self._make_room(growth, now, exclude=entry)
        ):
            self._remove(entry, REMOVE_INVALIDATED)
            return False
        self.bytes_used += growth
        entry.size = new_size
        return True

    def _remove(self, entry: CacheEntry, reason: str) -> None:
        """Drop ``entry`` outside a victim plan (an expired lookup, a
        DELETE, a PUT overwrite that no longer fits), attributing the
        removal to ``reason``."""
        del self._entries[entry.key]
        self.bytes_used -= entry.size
        if reason == REMOVE_EXPIRED:
            self.stats.expirations += 1
        else:
            self.stats.invalidations += 1
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
