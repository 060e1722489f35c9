"""Progress and heartbeat reporting for long-running sweeps.

A :class:`ProgressReporter` turns the lifecycle of a task grid (the
(policy x workload) cells of ``run_matrix`` / ``run_mix_matrix``, or the
per-cell runs of a figure driver) into a stream of
:class:`ProgressEvent` records: ``started`` when a task is dispatched,
``finished`` / ``failed`` when it completes, each carrying elapsed wall
time and an ETA extrapolated from the completion rate so far. Events are
delivered synchronously, in emission order, to an ``on_event`` callback
— the parallel runners emit them from the parent process as futures
complete, so the callback needs no locking and never crosses a process
boundary.

``python -m repro ... --progress`` wires :func:`print_event` (one line
per event on stderr) as the callback; library callers can pass any
callable, e.g. to feed a TUI or a log aggregator. The durable record of
the same lifecycle is the grid's ``spans.jsonl`` (:mod:`repro.obs.spans`).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class ProgressEvent:
    """One lifecycle event of one task in a grid run.

    ``done``/``total`` count *completed* tasks (finished + failed +
    skipped) at emission time; ``eta_s`` is None until at least one task
    ran to completion. ``"skipped"`` marks a cell the resuming grid
    runner satisfied from an existing manifest instead of re-running; it
    counts toward ``done``. ``"warning"`` carries a grid-level
    degradation notice (e.g. a parallel sweep falling back to serial
    execution) in ``error`` without touching the counters.
    """

    kind: str  # "started" | "finished" | "failed" | "skipped" | "warning"
    key: str
    done: int
    total: int
    elapsed_s: float
    eta_s: float | None = None
    error: str | None = None


class ProgressReporter:
    """Tracks a fixed-size task grid and emits lifecycle events.

    Args:
        total: number of tasks in the grid.
        on_event: callback receiving each :class:`ProgressEvent`; when
            None the reporter only keeps counts (cheap enough to leave
            in place unconditionally).
        label: short grid name included by :func:`print_event` lines.
    """

    def __init__(
        self,
        total: int,
        on_event: Callable[[ProgressEvent], None] | None = None,
        label: str = "sweep",
    ) -> None:
        self.total = total
        self.on_event = on_event
        self.label = label
        self.started_count = 0
        self.finished_count = 0
        self.failed_count = 0
        self.skipped_count = 0
        self._start = perf_counter()

    @property
    def done(self) -> int:
        """Completed tasks: finished, failed and skipped."""
        return self.finished_count + self.failed_count + self.skipped_count

    def _eta(self, elapsed: float) -> float | None:
        """Remaining seconds extrapolated from the rate of tasks that
        ran (skipped tasks complete instantly and would skew it)."""
        ran = self.finished_count + self.failed_count
        if ran == 0 or self.done >= self.total:
            return None
        return elapsed / ran * (self.total - self.done)

    def _emit(self, kind: str, key, error: str | None = None) -> ProgressEvent:
        """Build one event and deliver it to the callback."""
        elapsed = perf_counter() - self._start
        event = ProgressEvent(
            kind=kind,
            key=str(key),
            done=self.done,
            total=self.total,
            elapsed_s=elapsed,
            eta_s=self._eta(elapsed),
            error=error,
        )
        if self.on_event is not None:
            self.on_event(event)
        return event

    def started(self, key) -> ProgressEvent:
        """Record task ``key`` as dispatched."""
        self.started_count += 1
        return self._emit("started", key)

    def finished(self, key) -> ProgressEvent:
        """Record task ``key`` as successfully completed."""
        self.finished_count += 1
        return self._emit("finished", key)

    def failed(self, key, error: BaseException | str) -> ProgressEvent:
        """Record task ``key`` as failed with ``error``."""
        self.failed_count += 1
        message = (
            f"{type(error).__name__}: {error}"
            if isinstance(error, BaseException)
            else str(error)
        )
        return self._emit("failed", key, error=message)

    def skipped(self, key) -> ProgressEvent:
        """Record task ``key`` as satisfied without running (a resumed
        cell); it counts toward ``done``."""
        self.skipped_count += 1
        return self._emit("skipped", key)

    def warning(self, key, message: str) -> ProgressEvent:
        """Emit a grid-level ``warning`` event (counters untouched).

        Used for degradations the caller should see but that fail no
        task — e.g. a parallel runner silently dropping to one worker
        because the policy factories cannot cross a process boundary.
        """
        return self._emit("warning", key, error=message)


def print_event(event: ProgressEvent, stream=None, label: str = "sweep") -> None:
    """Render one event as a single stderr line (the ``--progress`` sink)."""
    stream = stream if stream is not None else sys.stderr
    eta = f" eta {event.eta_s:.1f}s" if event.eta_s is not None else ""
    suffix = f" ({event.error})" if event.error else ""
    print(
        f"[{label}] {event.done}/{event.total} {event.kind} {event.key} "
        f"elapsed {event.elapsed_s:.1f}s{eta}{suffix}",
        file=stream,
        flush=True,
    )


def console_reporter(label: str = "sweep", stream=None):
    """An ``on_event`` callback printing one line per event."""

    def on_event(event: ProgressEvent) -> None:
        print_event(event, stream=stream, label=label)

    return on_event


__all__ = [
    "ProgressEvent",
    "ProgressReporter",
    "console_reporter",
    "print_event",
]
