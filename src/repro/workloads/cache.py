"""Deterministic on-disk trace cache.

Workload generation is pure: (generator name, generator version, params,
seed) fully determines the emitted arrays. :func:`cached_trace` memoizes
that function to compressed archives in the native trace format
(``.trz``, :mod:`repro.traces.formats.native` — the same format
``Trace.save`` writes) so repeated benchmark and sweep runs stop
regenerating identical streams. The SPEC-like generator emits about
0.9-1.1M accesses/s (a 100K-access gcc, h264ref or mcf trace in
0.09-0.11 s; 2-CPU x86-64 host, CPython 3.11), so the cache pays off
for long traces and for sweeps that regenerate the same trace in many
processes.

The cache key hashes the canonical JSON of (generator, version, params,
seed). The version tag is part of the key, so bumping a generator's
``*_TRACE_VERSION`` constant invalidates every stale entry without any
cleanup pass. Entries are published atomically (temp file + rename), so
concurrent sweep workers can share one cache directory.

Caching is off unless a directory is configured: pass ``directory=`` or
set ``$REPRO_TRACE_CACHE_DIR``. Cached loads are byte-identical to fresh
generation (``tests/test_workload_cache.py`` pins this for every
generator).

In front of the disk cache sits an optional in-process memo, a
:class:`TraceMemo`: a thread-safe LRU keyed by the same
:func:`trace_cache_key` and bounded by the bytes of the traces' columns
(:data:`TRACE_MEMO_BYTES`, 8 MiB: three 100K-access traces at 24 bytes
an access). It is active only inside :func:`trace_memo_scope`, which the
``repro serve`` daemon enters around each job body, so one daemon builds
a (benchmark, length, seed) trace once for a fresh job, its resubmit and
a predict pass over it. Library callers, sweeps and figure drivers
never enter a scope and keep getting a new, writable trace on every
call. Under a scope every trace :func:`cached_trace` returns, memo hit
or miss, has read-only columns (so do its ``Trace.slice`` views): a job
that writes into a shared trace raises ``ValueError`` instead of
corrupting the next job's input. The memo lives in process memory only;
a restarted daemon starts with it empty.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from repro.traces.trace import Trace

#: Environment variable naming the cache directory (unset = no caching).
ENV_TRACE_CACHE_DIR = "REPRO_TRACE_CACHE_DIR"

#: Entry suffix: the native trace format.
CACHE_SUFFIX = ".trz"

#: Byte budget of every :class:`TraceMemo`, over the bytes of the
#: memoized traces' three int64 columns.
TRACE_MEMO_BYTES = 8 * 1024 * 1024

#: The memo :func:`cached_trace` consults, set by :func:`trace_memo_scope`.
_ACTIVE_MEMO: ContextVar["TraceMemo | None"] = ContextVar(
    "repro_trace_memo", default=None
)


def trace_cache_dir(directory: str | os.PathLike | None = None) -> Path | None:
    """Resolve the cache directory: argument, else $REPRO_TRACE_CACHE_DIR,
    else None (caching disabled)."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_TRACE_CACHE_DIR, "").strip()
    return Path(env) if env else None


def trace_cache_key(
    generator: str, version: int | str, params: Mapping, seed: int
) -> str:
    """Stable cache-file stem for one generation request."""
    payload = json.dumps(
        {
            "generator": generator,
            "version": str(version),
            "params": {key: params[key] for key in sorted(params)},
            "seed": seed,
        },
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    return f"{generator}-v{version}-{digest}"


def cached_trace(
    generator: str,
    params: Mapping,
    seed: int,
    producer: Callable[[], Trace],
    version: int | str = 1,
    directory: str | os.PathLike | None = None,
) -> Trace:
    """Return ``producer()``'s trace, memoized in process (inside a
    :func:`trace_memo_scope`) and to the on-disk cache.

    Args:
        generator: generator family name (e.g. "spec_like").
        params: the generation parameters (must be JSON-stable).
        seed: the RNG seed the producer will use.
        producer: zero-arg callable generating the trace on a miss.
        version: generator version tag; bump to invalidate stale entries.
        directory: cache directory override (else the environment rules).
    """
    memo = _ACTIVE_MEMO.get()
    root = trace_cache_dir(directory)
    if memo is None and root is None:
        return producer()
    stem = trace_cache_key(generator, version, params, seed)
    if memo is not None:
        trace = memo.get(stem)
        if trace is not None:
            return trace
    trace = producer() if root is None else _disk_cached(root, stem, producer)
    if memo is not None:
        memo.put(stem, trace)
    return trace


def _disk_cached(root: Path, stem: str, producer: Callable[[], Trace]) -> Trace:
    """Load entry ``stem`` from the cache directory ``root``, or produce
    and publish it."""
    try:
        root.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise NotADirectoryError(
            f"trace cache path {root} exists and is not a directory"
        ) from None
    path = root / (stem + CACHE_SUFFIX)
    if path.exists():
        try:
            return Trace.load(path)
        except (OSError, ValueError, KeyError):
            path.unlink(missing_ok=True)  # corrupt entry: regenerate
    trace = producer()
    _publish(trace, root, path)
    return trace


def _publish(trace: Trace, root: Path, path: Path) -> None:
    """Atomically write one cache entry (temp file + rename), so
    concurrent workers never observe partial files."""
    handle, temp_path = tempfile.mkstemp(dir=root, suffix=CACHE_SUFFIX)
    os.close(handle)
    try:
        trace.save(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _columns_nbytes(trace: Trace) -> int:
    return trace.addresses.nbytes + trace.pcs.nbytes + trace.thread_ids.nbytes


class TraceMemo:
    """A thread-safe in-process LRU of traces, bounded by
    :data:`TRACE_MEMO_BYTES`.

    Keys are :func:`trace_cache_key` stems. :meth:`put` makes a trace's
    columns read-only and keeps a shallow copy, and :meth:`get` returns
    one, so callers share the column arrays but never a ``Trace``
    object. A trace larger than the whole budget is not kept; otherwise
    least recently used entries are evicted until the held bytes fit.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, Trace] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> Trace | None:
        """The memoized trace for ``key`` (a shallow copy), or None."""
        with self._lock:
            trace = self._entries.get(key)
            if trace is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return None if trace is None else copy.copy(trace)

    def put(self, key: str, trace: Trace) -> None:
        """Make ``trace``'s columns read-only and keep it if it fits."""
        for column in (trace.addresses, trace.pcs, trace.thread_ids):
            column.flags.writeable = False
        size = _columns_nbytes(trace)
        if size > TRACE_MEMO_BYTES:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= _columns_nbytes(previous)
            self._entries[key] = copy.copy(trace)
            self._bytes += size
            while self._bytes > TRACE_MEMO_BYTES:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= _columns_nbytes(evicted)

    def stats(self) -> dict:
        """Lifetime ``hits``/``misses`` and the held ``bytes``/``entries``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bytes": self._bytes,
                "entries": len(self._entries),
            }


@contextmanager
def trace_memo_scope(memo: TraceMemo) -> Iterator[None]:
    """Make :func:`cached_trace` consult ``memo`` within this context
    (the current thread or task only)."""
    token = _ACTIVE_MEMO.set(memo)
    try:
        yield
    finally:
        _ACTIVE_MEMO.reset(token)


__all__ = [
    "CACHE_SUFFIX",
    "ENV_TRACE_CACHE_DIR",
    "TRACE_MEMO_BYTES",
    "TraceMemo",
    "cached_trace",
    "trace_cache_dir",
    "trace_cache_key",
    "trace_memo_scope",
]
