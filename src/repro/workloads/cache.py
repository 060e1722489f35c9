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

Legacy entries written by older builds as ``.npz`` archives are still
honoured: a lookup that misses on ``.trz`` but hits the legacy file
loads it and migrates it to the native format in place (the old file is
left for still-running old workers; the key is unchanged).

Caching is off unless a directory is configured: pass ``directory=`` or
set ``$REPRO_TRACE_CACHE_DIR``. Cached loads are byte-identical to fresh
generation (``tests/test_workload_cache.py`` pins this for every
generator).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable, Mapping
from pathlib import Path

from repro.traces.trace import Trace

#: Environment variable naming the cache directory (unset = no caching).
ENV_TRACE_CACHE_DIR = "REPRO_TRACE_CACHE_DIR"

#: Entry suffixes: the native trace format, and the pre-streaming numpy
#: archive still readable for migration.
CACHE_SUFFIX = ".trz"
LEGACY_CACHE_SUFFIX = ".npz"


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
    """Return ``producer()``'s trace, memoized to the on-disk cache.

    Args:
        generator: generator family name (e.g. "spec_like").
        params: the generation parameters (must be JSON-stable).
        seed: the RNG seed the producer will use.
        producer: zero-arg callable generating the trace on a miss.
        version: generator version tag; bump to invalidate stale entries.
        directory: cache directory override (else the environment rules).
    """
    root = trace_cache_dir(directory)
    if root is None:
        return producer()
    try:
        root.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise NotADirectoryError(
            f"trace cache path {root} exists and is not a directory"
        ) from None
    stem = trace_cache_key(generator, version, params, seed)
    path = root / (stem + CACHE_SUFFIX)
    if path.exists():
        try:
            return Trace.load(path)
        except (OSError, ValueError, KeyError):
            path.unlink(missing_ok=True)  # corrupt entry: regenerate
    legacy_path = root / (stem + LEGACY_CACHE_SUFFIX)
    if legacy_path.exists():
        try:
            trace = Trace.load(legacy_path)
        except (OSError, ValueError, KeyError):
            legacy_path.unlink(missing_ok=True)  # corrupt legacy: regenerate
        else:
            # Migrate in place; keep the legacy file for old workers
            # still running against this cache directory.
            _publish(trace, root, path)
            return trace
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


__all__ = [
    "CACHE_SUFFIX",
    "ENV_TRACE_CACHE_DIR",
    "LEGACY_CACHE_SUFFIX",
    "cached_trace",
    "trace_cache_dir",
    "trace_cache_key",
]
