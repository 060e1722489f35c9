"""Windowed time-series introspection for simulation runs.

A :class:`WindowedRecorder` turns one simulation into a sequence of
fixed-size :class:`Window` records — per-window hit/miss/bypass/fill
counts, an eviction-cause breakdown (lines evicted after reuse vs. dead
on eviction), the PDP protecting distance and protected-line occupancy
in force when the window closed, and per-thread shares in shared-LLC
runs. It is the time-resolved counterpart of the end-of-run aggregates
in :class:`repro.sim.single_core.SingleCoreResult`: the paper's own
evidence is windowed (Fig. 5's occupancy breakdown, Fig. 11's PD
adapting across program phases), and this module is what the rewritten
``fig05``/``fig11`` experiment drivers consume instead of bespoke
re-simulation loops.

Design constraints, mirrored from :class:`repro.obs.metrics.MetricsRegistry`:

- **Fixed memory budget.** Closed windows live in a ring buffer of
  ``max_windows`` entries (O(windows) memory, independent of trace
  length); once the budget is exceeded the oldest windows are dropped
  and only counted (``windows_dropped``).
- **Zero overhead when off.** ``window_size=None`` (the drivers'
  default) leaves them on the exact unrecorded code path: no window
  splitting, no observer registration, no per-access or per-chunk work
  (``tests/test_timeseries.py`` pins this).
- **Engine independence.** Window boundaries sit at absolute access
  positions (multiples of ``window_size``), and drivers split incoming
  chunks at those boundaries, so the recorded windows are bit-identical
  across the reference loop, the batched fast path, and any chunked
  streaming split (``tests/test_conformance.py``).

Each driver (``run_llc``, ``run_shared_llc``, ``run_object_cache``)
builds its own default-budget recorder from ``window_size=`` and returns
the payload in ``result.extra["timeseries"]``;
:func:`windows_from_payload` turns it back into :class:`Window` records.
Feeding protocol (what the drivers implement): call
:meth:`WindowedRecorder.attach` once with the recorded cache, then
alternate ``take = min(remaining, recorder.pending())`` slices of
simulation with :meth:`WindowedRecorder.advance` calls, and finish with
:meth:`WindowedRecorder.finalize`. Counters are derived from
``cache.stats`` deltas at window boundaries — never from per-access
bookkeeping — so the recording cost is one stats snapshot per window
plus the (already conditional) observer dispatch for eviction causes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: Schema version of the serialized window payload embedded in run
#: manifests; bump on incompatible layout changes.
TIMESERIES_SCHEMA_VERSION = 1

#: Default accesses per window.
DEFAULT_WINDOW_SIZE = 4096

#: Default ring-buffer budget (windows kept in memory).
DEFAULT_MAX_WINDOWS = 512


@dataclass(slots=True)
class Window:
    """One closed observation window of a recorded run.

    ``start``/``end`` are absolute access positions in the driven stream
    (``end`` exclusive; the final window of a run may be partial).
    Counter semantics match :class:`repro.memory.stats.CacheStats`
    deltas over the window; ``evictions_reused`` / ``evictions_dead``
    split ``evictions`` by whether the victim line was ever hit while
    resident (the update-cost accounting axis of Young & Qureshi).
    ``pd`` and ``protected_lines`` are recorded at window close for
    policies exposing ``current_pd`` / ``protected_count`` (PDP), else
    None. ``thread_accesses`` .. ``thread_bypasses`` are per-thread
    frozen counters in shared-LLC runs, else None.
    ``bytes_requested``/``bytes_hit`` are recorded only for caches whose
    stats carry the byte axis (the software object cache of
    :mod:`repro.swcache`), else None — hardware windows are unchanged,
    so the payload stays schema version 1.
    """

    index: int
    start: int
    end: int
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    fills: int = 0
    evictions_reused: int = 0
    evictions_dead: int = 0
    pd: int | None = None
    protected_lines: int | None = None
    thread_accesses: list[int] | None = None
    thread_hits: list[int] | None = None
    thread_misses: list[int] | None = None
    thread_bypasses: list[int] | None = None
    bytes_requested: int | None = None
    bytes_hit: int | None = None

    @property
    def hit_rate(self) -> float:
        """Hits over accesses within this window (0.0 when empty)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def byte_hit_rate(self) -> float:
        """Bytes served from cache over bytes requested within this
        window (0.0 when the window carries no byte counters)."""
        if not self.bytes_requested:
            return 0.0
        return (self.bytes_hit or 0) / self.bytes_requested

    def to_dict(self) -> dict:
        """JSON-native form (None fields elided to keep manifests lean)."""
        data = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "fills": self.fills,
            "evictions_reused": self.evictions_reused,
            "evictions_dead": self.evictions_dead,
        }
        for name in (
            "pd",
            "protected_lines",
            "thread_accesses",
            "thread_hits",
            "thread_misses",
            "thread_bypasses",
            "bytes_requested",
            "bytes_hit",
        ):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Window":
        """Rebuild a window from :meth:`to_dict` output (unknown keys
        from newer schemas are ignored)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class WindowedRecorder:
    """Fixed-budget windowed statistics recorder for one simulation run.

    Args:
        window_size: accesses per window (boundaries at absolute
            multiples of this, so chunking cannot shift them).
        max_windows: ring-buffer budget; older windows are dropped (and
            counted in ``windows_dropped``) past this many closed
            windows.

    The recorder doubles as a cache observer (it implements the
    ``on_hit``/``on_evict``/``on_bypass`` protocol of
    :class:`repro.memory.cache.SetAssociativeCache`) purely to see
    eviction causes; all other counters come from ``cache.stats`` deltas
    at window boundaries.
    """

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW_SIZE,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        if max_windows <= 0:
            raise ValueError(f"max_windows must be positive, got {max_windows}")
        self.window_size = int(window_size)
        self.max_windows = int(max_windows)
        self._windows: deque[Window] = deque(maxlen=self.max_windows)
        self.windows_closed = 0
        self._position = 0
        self._window_start = 0
        self._cache = None
        self._policy = None
        self._num_threads = 0
        self._stats_base: tuple[int, int, int, int, int, int] = (0,) * 6
        self._reused_evictions = 0
        self._cause_base = 0
        self._thread_window: list[list[int]] | None = None
        self._byte_capable = False
        self._bytes_base: tuple[int, int] = (0, 0)

    # -- observer protocol (eviction causes only) -------------------------

    def on_hit(self, set_index: int, address: int, occupancy: int) -> None:
        """Observer no-op (hits come from ``cache.stats`` deltas)."""

    def on_bypass(self, set_index: int, address: int) -> None:
        """Observer no-op (bypasses come from ``cache.stats`` deltas)."""

    def on_evict(
        self, set_index: int, address: int, occupancy: int, was_reused: bool
    ) -> None:
        """Count one eviction of a reused line (dead evictions are the
        complement of the window's total evictions)."""
        if was_reused:
            self._reused_evictions += 1

    # -- feeding protocol --------------------------------------------------

    def attach(self, cache, policy=None, num_threads: int = 0) -> None:
        """Bind the recorder to the cache (and policy) of one run.

        Registers the recorder as a cache observer for eviction causes
        and snapshots the stats baseline. ``num_threads > 0`` switches
        on per-thread window counters (shared-LLC runs). Idempotent per
        cache.
        """
        self._cache = cache
        self._policy = policy if policy is not None else getattr(cache, "policy", None)
        self._num_threads = int(num_threads)
        if self not in cache.observers:
            cache.observers.append(self)
        self._stats_base = self._stats_snapshot()
        self._cause_base = self._reused_evictions
        self._byte_capable = hasattr(cache.stats, "bytes_requested")
        if self._byte_capable:
            self._bytes_base = self._bytes_snapshot()
        if self._num_threads:
            self._thread_window = [[0] * self._num_threads for _ in range(4)]

    def pending(self) -> int:
        """Accesses until the current window closes (always >= 1)."""
        return self.window_size - (self._position - self._window_start)

    def advance(self, n: int, thread_counts: list[list[int]] | None = None) -> None:
        """Account ``n`` simulated accesses (``n <= pending()``).

        ``thread_counts`` is the shared-LLC per-thread
        ``[accesses, hits, misses, bypasses]`` quadruple covering
        exactly these ``n`` accesses (the
        :func:`repro.memory.fastpath.run_shared_trace` return shape);
        it accumulates into the open window. Closes the window when the
        boundary is reached.
        """
        if n <= 0:
            return
        if n > self.pending():
            raise ValueError(
                f"advance({n}) crosses the window boundary "
                f"(pending={self.pending()})"
            )
        self._position += n
        if thread_counts is not None and self._thread_window is not None:
            for totals, counts in zip(self._thread_window, thread_counts):
                for thread, count in enumerate(counts):
                    totals[thread] += count
        if self._position - self._window_start == self.window_size:
            self._close_window()

    def finalize(self) -> None:
        """Close the trailing partial window, if any accesses are open."""
        if self._position > self._window_start:
            self._close_window()

    # -- window bookkeeping ------------------------------------------------

    def _stats_snapshot(self) -> tuple[int, int, int, int, int, int]:
        """The recorded cache's cumulative counters, as a tuple."""
        stats = self._cache.stats
        return (
            stats.accesses,
            stats.hits,
            stats.misses,
            stats.bypasses,
            stats.evictions,
            stats.fills,
        )

    def _bytes_snapshot(self) -> tuple[int, int]:
        """The recorded cache's cumulative byte counters (only called
        for byte-capable caches, i.e. the software object cache)."""
        stats = self._cache.stats
        return (stats.bytes_requested, stats.bytes_hit)

    def _close_window(self) -> None:
        """Snapshot deltas since the window opened and append the window."""
        now = self._stats_snapshot()
        delta = [now[i] - self._stats_base[i] for i in range(6)]
        reused = self._reused_evictions - self._cause_base
        window = Window(
            index=self.windows_closed,
            start=self._window_start,
            end=self._position,
            accesses=delta[0],
            hits=delta[1],
            misses=delta[2],
            bypasses=delta[3],
            evictions=delta[4],
            fills=delta[5],
            evictions_reused=reused,
            evictions_dead=delta[4] - reused,
        )
        if self._byte_capable:
            byte_now = self._bytes_snapshot()
            window.bytes_requested = byte_now[0] - self._bytes_base[0]
            window.bytes_hit = byte_now[1] - self._bytes_base[1]
            self._bytes_base = byte_now
        policy = self._policy
        if policy is not None:
            current_pd = getattr(policy, "current_pd", None)
            if current_pd is not None:
                window.pd = int(current_pd)
            protected_count = getattr(policy, "protected_count", None)
            if callable(protected_count) and self._cache is not None:
                window.protected_lines = sum(
                    protected_count(set_index)
                    for set_index in range(self._cache.geometry.num_sets)
                )
        if self._thread_window is not None:
            window.thread_accesses = list(self._thread_window[0])
            window.thread_hits = list(self._thread_window[1])
            window.thread_misses = list(self._thread_window[2])
            window.thread_bypasses = list(self._thread_window[3])
            self._thread_window = [
                [0] * self._num_threads for _ in range(4)
            ]
        self._windows.append(window)
        self.windows_closed += 1
        self._window_start = self._position
        self._stats_base = now
        self._cause_base = self._reused_evictions

    # -- results -----------------------------------------------------------

    @property
    def windows(self) -> list[Window]:
        """The retained windows, oldest first (ring-buffer contents)."""
        return list(self._windows)

    @property
    def windows_dropped(self) -> int:
        """Closed windows evicted from the ring buffer."""
        return self.windows_closed - len(self._windows)

    def to_dict(self) -> dict:
        """The schema-versioned JSON payload persisted into manifests."""
        return {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "window_size": self.window_size,
            "max_windows": self.max_windows,
            "accesses": self._position,
            "windows_closed": self.windows_closed,
            "windows_dropped": self.windows_dropped,
            "windows": [window.to_dict() for window in self._windows],
        }


def windows_from_payload(payload: dict) -> list[Window]:
    """Rebuild :class:`Window` records from a manifest's ``timeseries``
    payload; returns ``[]`` for empty/absent/foreign payloads."""
    if not payload:
        return []
    return [Window.from_dict(data) for data in payload.get("windows", [])]


@dataclass(slots=True)
class _WindowFeed:
    """Shared driver-side helper: slice a chunked stream at window
    boundaries and keep the recorder advanced.

    Drivers loop ``for sub, take in feed.slices(chunk): ...`` and call
    :meth:`account` after simulating each slice; with no recorder the
    feed yields each chunk whole, adding no per-access work.
    """

    recorder: WindowedRecorder | None = None
    chunk_limit: int | None = None

    def slices(self, chunk):
        """Yield ``(sub_trace, length)`` pieces of ``chunk`` that never
        cross a window boundary (nor exceed ``chunk_limit`` when set)."""
        n = len(chunk)
        if self.recorder is None and self.chunk_limit is None:
            yield chunk, n
            return
        offset = 0
        while offset < n:
            take = n - offset
            if self.recorder is not None:
                take = min(take, self.recorder.pending())
            if self.chunk_limit is not None:
                take = min(take, self.chunk_limit)
            if take == n and offset == 0:
                yield chunk, n
            else:
                yield chunk.slice(offset, offset + take), take
            offset += take

    def account(self, n: int, thread_counts=None) -> None:
        """Advance the recorder past ``n`` simulated accesses."""
        if self.recorder is not None:
            self.recorder.advance(n, thread_counts)

    def finish(self) -> None:
        """Close the recorder's trailing partial window."""
        if self.recorder is not None:
            self.recorder.finalize()


__all__ = [
    "DEFAULT_MAX_WINDOWS",
    "DEFAULT_WINDOW_SIZE",
    "TIMESERIES_SCHEMA_VERSION",
    "Window",
    "WindowedRecorder",
    "windows_from_payload",
]
