"""Outside-in span recording for the benchmark's traced iteration.

The benchmark never edits the program: it times calls into public
functions by swapping each one, at the module binding its caller looks
it up through, for a wrapper that records a span around the original
call. Spans are held in memory in the record format of
:mod:`repro.obs.spans` (``name``, ``trace_id``, ``span_id``,
``parent_id``, ``start_s``, ``duration_s``, ``attributes``, ``ts``), so
``python -m repro obs trace <dir>`` renders the file this module writes.

Pool workers forked while a span is open inherit the wrappers and the
open-span stack, so their spans parent correctly; because a forked
worker's memory is lost when it exits, a worker appends each span it
closes to ``<worker_dir>/<pid>.jsonl`` instead, and :meth:`collect`
merges those files back. Only coarse functions are wrapped (a kernel
call over a whole trace slice, a PD recompute, a manifest write), never
a per-access one, so the span count stays small.
"""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import wraps
from pathlib import Path
from time import perf_counter


def _new_id() -> str:
    """A fresh 16-hex-char span/trace identifier."""
    return uuid.uuid4().hex[:16]


class SpanRecorder:
    """Records spans in memory; installs and removes timing wrappers.

    Args:
        worker_dir: where forked pool workers append the spans they
            close (one JSONL file per worker pid).
    """

    def __init__(self, worker_dir: str | os.PathLike) -> None:
        self.spans: list[dict] = []
        self._stack: list[tuple[str, str]] = []
        self._owner = os.getpid()
        self._worker_dir = Path(worker_dir)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, record: dict) -> None:
        """Keep one closed span (in memory, or in the worker's file)."""
        record["ts"] = datetime.now(timezone.utc).isoformat(timespec="milliseconds")
        if os.getpid() == self._owner:
            self.spans.append(record)
            return
        self._worker_dir.mkdir(parents=True, exist_ok=True)
        path = self._worker_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    @contextmanager
    def span(self, name: str, root: bool = False, **attributes):
        """Time the body as a child of the innermost open span.

        ``root=True`` starts a new trace (one per iteration or job).
        Yields the span's attribute dict so the body can add to it.
        """
        parent = None if root or not self._stack else self._stack[-1]
        trace_id = parent[0] if parent else _new_id()
        span_id = _new_id()
        self._stack.append((trace_id, span_id))
        start = perf_counter()
        try:
            yield attributes
        except BaseException as exc:
            attributes.setdefault("error", type(exc).__name__)
            raise
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self._record(
                {
                    "name": name,
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent[1] if parent else None,
                    "start_s": start,
                    "duration_s": duration,
                    "attributes": attributes,
                }
            )

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``measure(args, kwargs, result)`` returns extra attributes for
        the span (e.g. the number of accesses a kernel call covered).
        """
        original = getattr(owner, attr)
        recorder = self

        @wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name) as attributes:
                result = original(*args, **kwargs)
                if measure is not None:
                    attributes.update(measure(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced_stream(self, stream):
        """A copy of a :class:`TraceStream` whose chunk production is
        recorded as one ``traces.chunk`` span per chunk."""
        from repro.traces.stream import TraceStream

        recorder = self

        def chunk_factory():
            iterator = stream.chunks()
            while True:
                with recorder.span("traces.chunk") as attributes:
                    chunk = next(iterator, None)
                    attributes["accesses"] = 0 if chunk is None else len(chunk)
                if chunk is None:
                    return
                yield chunk

        return TraceStream(
            chunk_factory,
            name=stream.name,
            instructions_per_access=stream.instructions_per_access,
            length=stream.length,
            source=stream.source,
            format=stream.format,
        )

    # -- output ------------------------------------------------------------

    def collect(self) -> list[dict]:
        """Merge the spans pool workers wrote into :attr:`spans`."""
        if self._worker_dir.is_dir():
            for path in sorted(self._worker_dir.glob("*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    self.spans.extend(json.loads(line) for line in fh if line.strip())
                path.unlink()
            self._worker_dir.rmdir()
        self.spans.sort(key=lambda span: span["start_s"])
        return self.spans

    def write(self, path: str | os.PathLike) -> None:
        """Write every span as JSONL (the ``repro.obs.spans`` format)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's self time: its duration minus the part of its
    interval covered by its children (the union, since children from
    parallel workers can overlap)."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span.get("parent_id"):
            children.setdefault(span["parent_id"], []).append(span)
    result = {}
    for span in spans:
        start = span["start_s"]
        end = start + span["duration_s"]
        intervals = sorted(
            (max(start, kid["start_s"]), min(end, kid["start_s"] + kid["duration_s"]))
            for kid in children.get(span["span_id"], [])
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["span_id"]] = max(0.0, span["duration_s"] - covered)
    return result


def self_accesses(spans: list[dict]) -> dict[str, int]:
    """Accesses each span handled itself: its ``accesses`` attribute
    minus those its children report (a vector-engine call that falls
    back to the fast path hands its whole slice to the child)."""
    handed_down: dict[str, int] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            handed_down[parent] = handed_down.get(parent, 0) + span["attributes"].get(
                "accesses", 0
            )
    return {
        span["span_id"]: max(
            0, span["attributes"].get("accesses", 0) - handed_down.get(span["span_id"], 0)
        )
        for span in spans
    }
