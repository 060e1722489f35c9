"""Trace persistence in the native compressed format.

``save_trace`` writes the chunked gzip native format
(:mod:`repro.traces.formats.native`) — the one on-disk representation
shared by :meth:`Trace.save` and the workload cache. ``load_trace``
reads it back, checking the content rather than the suffix.
"""

from __future__ import annotations

from pathlib import Path

from repro.traces.trace import Trace


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in the native compressed format."""
    from repro.traces.formats import native

    native.write_chunks(
        path,
        [trace],
        name=trace.name,
        instructions_per_access=trace.instructions_per_access,
    )


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Checks content, not suffix: a native file (gzip magic) loads through
    the chunked reader; anything else raises
    :class:`repro.traces.formats.TraceFormatError`.
    """
    from repro.traces.formats import TraceFormatError, native
    from repro.traces.stream import TraceStream

    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
    except OSError as exc:
        raise TraceFormatError(f"{path}: unreadable trace file: {exc}") from exc
    if not head.startswith(b"\x1f\x8b"):
        raise TraceFormatError(f"{path}: not a native trace (no gzip magic)")
    header = native.read_header(path)
    stream = TraceStream(
        lambda: native.read_chunks(path),
        name=header["name"],
        instructions_per_access=header["instructions_per_access"],
    )
    return stream.materialize()


__all__ = ["load_trace", "save_trace"]
