"""External trace ingestion: chunked readers/writers for on-disk formats.

Four formats ship:

- ``native`` (``.trz``) — our gzip-compressed chunked columnar format,
  the canonical on-disk representation (:meth:`Trace.save` and the
  workload cache). Carries name and
  instructions-per-access metadata and a validated terminator.
- ``champsim`` (``.champsim[.gz]``) — fixed 24-byte binary records in
  the style of ChampSim's published trace suites.
- ``csv`` (``.csv[.gz]``, ``.txt[.gz]``) — one ``address[,pc[,tid]]``
  line per access; the human-readable on-ramp.
- ``objectstore`` (``.objtrace[.gz]``) — object/CDN request streams
  (``timestamp,op,key,size`` lines, IBM-object-store style); reads as
  :class:`repro.traces.objects.ObjectTrace` chunks for the
  software-cache model in :mod:`repro.swcache`.

Every reader yields :class:`repro.traces.trace.Trace` chunks through a
:class:`repro.traces.stream.TraceStream`, so multi-hundred-million-access
traces flow through the simulators in O(chunk) memory.
:func:`open_trace` is the single entry point (format inferred from the
file suffix or content magic); :func:`convert_trace` and
:func:`trace_info` back the ``repro trace`` CLI.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.traces.formats import champsim, csvfmt, native, objectstore
from repro.traces.formats.errors import TraceFormatError
from repro.traces.stream import DEFAULT_CHUNK_SIZE, TraceStream

#: Readable/writable format modules, keyed by format name.
FORMATS = {
    native.FORMAT_NAME: native,
    champsim.FORMAT_NAME: champsim,
    csvfmt.FORMAT_NAME: csvfmt,
    objectstore.FORMAT_NAME: objectstore,
}

#: Suffix -> format name, longest suffixes first (``.champsim.gz`` must
#: win over ``.gz``-agnostic checks).
_SUFFIX_MAP: list[tuple[str, str]] = sorted(
    [
        (suffix, name)
        for name, module in FORMATS.items()
        for suffix in module.SUFFIXES
    ],
    key=lambda pair: -len(pair[0]),
)


def format_names() -> list[str]:
    """Names accepted by the ``format=`` arguments, sorted (error
    messages and ``--help`` listings stay alphabetical)."""
    return sorted(FORMATS)


def _sniff_format(path: Path) -> str | None:
    """Guess a format from file content when the suffix is unknown."""
    import gzip

    probe = max(len(native.MAGIC), len(objectstore.MAGIC))
    try:
        with open(path, "rb") as fh:
            head = fh.read(probe)
    except OSError:
        return None
    if head.startswith(b"\x1f\x8b"):
        try:
            with gzip.open(path, "rb") as fh:
                inner = fh.read(probe)
        except (OSError, EOFError):
            return None
        if native.matches_magic(inner):
            return native.FORMAT_NAME
        if objectstore.matches_magic(inner):
            return objectstore.FORMAT_NAME
        return None
    if objectstore.matches_magic(head):
        return objectstore.FORMAT_NAME
    return None


def detect_format(path: str | Path) -> str:
    """The format of ``path``: by suffix first, then by content magic.

    Raises :class:`TraceFormatError` when neither identifies it — pass
    an explicit ``format=`` in that case.
    """
    path = Path(path)
    lowered = path.name.lower()
    for suffix, name in _SUFFIX_MAP:
        if lowered.endswith(suffix):
            return name
    sniffed = _sniff_format(path)
    if sniffed is not None:
        return sniffed
    raise TraceFormatError(
        f"{path}: cannot infer trace format from suffix or content; "
        f"pass format= explicitly (one of {', '.join(format_names())})"
    )


def _resolve(path: Path, format: str | None) -> str:
    name = format or detect_format(path)
    if name not in FORMATS:
        raise TraceFormatError(
            f"unknown trace format {name!r}; known: {', '.join(format_names())}"
        )
    return name


def open_trace(
    path: str | Path,
    format: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: str | None = None,
    instructions_per_access: float | None = None,
) -> TraceStream:
    """Open an on-disk trace as a chunked, re-iterable stream.

    Args:
        path: the trace file.
        format: explicit format name; inferred via :func:`detect_format`
            when omitted.
        chunk_size: accesses per chunk for formats that chunk on read
            (the native format keeps its own written block boundaries).
        name: workload-name override; defaults to the format's metadata
            (native) or the file stem.
        instructions_per_access: dilution override; defaults to the
            format's metadata (native) or 1.0.

    The stream re-opens the file on every iteration, so one
    ``open_trace`` result can drive a whole policy sweep.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    resolved = _resolve(path, format)

    module = FORMATS[resolved]
    if resolved == native.FORMAT_NAME:
        header = native.read_header(path)
        stream_name = name if name is not None else header["name"]
        ipa = (
            instructions_per_access
            if instructions_per_access is not None
            else header["instructions_per_access"]
        )
    else:
        meta = module.read_metadata(path) if hasattr(module, "read_metadata") else {}
        if name is not None:
            stream_name = name
        else:
            stream_name = meta.get("name") or path.name.split(".")[0]
        if instructions_per_access is not None:
            ipa = instructions_per_access
        else:
            ipa = meta.get("instructions_per_access", 1.0)

    def chunk_factory():
        for chunk in module.read_chunks(path, chunk_size=chunk_size):
            chunk.name = stream_name
            chunk.instructions_per_access = ipa
            yield chunk

    return TraceStream(
        chunk_factory,
        name=stream_name,
        instructions_per_access=ipa,
        length=None,
        source=path,
        format=resolved,
    )


def write_stream(
    stream: TraceStream, path: str | Path, format: str | None = None
) -> int:
    """Persist a stream to ``path`` in ``format`` (default: native, or
    inferred from the suffix); returns the total access count written.
    Consumes the stream once, in O(chunk) memory."""
    path = Path(path)
    if format is None:
        try:
            format = detect_format(path)
        except TraceFormatError:
            format = native.FORMAT_NAME
    module = FORMATS.get(format)
    if module is None:
        raise TraceFormatError(
            f"unknown trace format {format!r}; known: {', '.join(format_names())}"
        )
    return module.write_chunks(
        path,
        stream.chunks(),
        name=stream.name,
        instructions_per_access=stream.instructions_per_access,
    )


def convert_trace(
    src: str | Path,
    dst: str | Path,
    src_format: str | None = None,
    dst_format: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: str | None = None,
    instructions_per_access: float | None = None,
) -> int:
    """Stream-convert ``src`` to ``dst``; returns the accesses copied.

    Both formats are inferred from suffixes/content when omitted. The
    copy is chunked end to end — source and destination sizes are
    unbounded by RAM.
    """
    stream = open_trace(
        src,
        format=src_format,
        chunk_size=chunk_size,
        name=name,
        instructions_per_access=instructions_per_access,
    )
    return write_stream(stream, dst, format=dst_format)


def trace_info(
    path: str | Path,
    format: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> dict:
    """Scan a trace file and summarize it (one validated chunked pass).

    Returns a JSON-native dict: format, name, accesses, thread count,
    address range, instructions-per-access, and the stream's content
    fingerprint (identical to the fingerprint a manifest records when
    the same file is simulated).
    """
    from repro.obs.manifest import FingerprintAccumulator

    stream = open_trace(path, format=format, chunk_size=chunk_size)
    accesses = 0
    threads: set[int] = set()
    min_address: int | None = None
    max_address: int | None = None
    fingerprint = FingerprintAccumulator()
    for chunk in stream.chunks():
        accesses += len(chunk)
        fingerprint.update(chunk)
        if len(chunk):
            threads.update(np.unique(chunk.thread_ids).tolist())
            low = int(chunk.addresses.min())
            high = int(chunk.addresses.max())
            min_address = low if min_address is None else min(min_address, low)
            max_address = high if max_address is None else max(max_address, high)
    return {
        "path": str(path),
        "format": stream.format,
        "name": stream.name,
        "accesses": accesses,
        "instructions_per_access": stream.instructions_per_access,
        "threads": sorted(threads),
        "min_address": min_address,
        "max_address": max_address,
        "fingerprint": fingerprint.digest(
            stream.name, stream.instructions_per_access
        ),
    }


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FORMATS",
    "TraceFormatError",
    "TraceStream",
    "convert_trace",
    "detect_format",
    "format_names",
    "open_trace",
    "trace_info",
    "write_stream",
]
