"""Objectstore experiment driver, workload generator, and streaming
acceptance.

The slow-marked acceptance test drives a 10M-request generated object
stream through :func:`run_object_cache` with a chunk-spy stream and
asserts O(chunk) memory — the software-cache counterpart of
``tests/test_streaming.py``'s LLC acceptance check. It runs in CI's
conformance job (``-m "slow or not slow"``).
"""

from __future__ import annotations

import re
import weakref

import numpy as np
import pytest

from repro.experiments.objectstore import (
    DEFAULT_POLICIES,
    format_report,
    run_objectstore,
)
from repro.obs.manifest import load_manifests
from repro.swcache.driver import run_object_cache
from repro.swcache.policies import SizeAwareLRUPolicy
from repro.traces.objects import ObjectTrace
from repro.traces.stream import TraceStream
from repro.workloads.objectstore import make_object_stream


# -- workload generator ----------------------------------------------------


def test_generated_stream_is_deterministic_and_reiterable():
    stream = make_object_stream(5_000, num_objects=400, seed=11, chunk_size=1024)
    assert stream.length == 5_000
    first = list(stream.chunks())
    second = list(stream.chunks())
    assert [len(c) for c in first] == [1024] * 4 + [904]
    for a, b in zip(first, second):
        assert isinstance(a, ObjectTrace)
        assert a.keys.tolist() == b.keys.tolist()
        assert a.sizes.tolist() == b.sizes.tolist()
        assert a.ops.tolist() == b.ops.tolist()
        assert a.timestamps.tolist() == b.timestamps.tolist()
    # Timestamps increase monotonically across chunk boundaries.
    all_ts = np.concatenate([c.timestamps for c in first])
    assert (np.diff(all_ts) >= 0).all()


def test_generated_sizes_are_stable_per_object():
    stream = make_object_stream(3_000, num_objects=100, seed=2, chunk_size=500)
    seen: dict[int, int] = {}
    for chunk in stream.chunks():
        for key, size in zip(chunk.keys.tolist(), chunk.sizes.tolist()):
            assert seen.setdefault(key, size) == size, (
                f"object {key} changed size mid-stream"
            )


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_object_stream(0)
    with pytest.raises(ValueError):
        make_object_stream(10, num_objects=0)
    with pytest.raises(ValueError):
        make_object_stream(10, put_fraction=0.9, delete_fraction=0.5)


# -- experiment driver -----------------------------------------------------


def test_run_objectstore_compares_policies_with_timeseries(tmp_path):
    manifest_dir = tmp_path / "manifests"
    rows = run_objectstore(
        accesses=8_000,
        capacity_bytes=2 * 1024 * 1024,
        ttl=30_000.0,
        fast=True,
        seed=4,
        manifest_dir=str(manifest_dir),
    )
    assert [row.policy for row in rows] == list(DEFAULT_POLICIES)
    for row in rows:
        stats = row.result.stats
        assert stats.accesses == 10_000  # fast floor of the generator
        assert stats.accesses == stats.hits + stats.misses
        assert row.window_hit_rates  # every run recorded windows
        assert len(row.window_hit_rates) == len(row.window_byte_hit_rates)
    # One manifest per policy, kind=objectstore, byte metrics present.
    manifests = load_manifests(manifest_dir)
    assert len(manifests) == len(DEFAULT_POLICIES)
    assert {m.policy for m in manifests} == set(DEFAULT_POLICIES)
    for manifest in manifests:
        assert manifest.kind == "objectstore"
        assert 0.0 <= manifest.metrics["byte_hit_rate"] <= 1.0
        assert manifest.config["capacity_bytes"] == 2 * 1024 * 1024
        windows = manifest.timeseries["windows"]
        assert windows and all("bytes_requested" in w for w in windows)
    report = format_report(rows)
    assert "byte-hit" in report
    for policy in DEFAULT_POLICIES:
        assert policy in report


def test_objectstore_report_renders_in_obs_report(tmp_path):
    from repro.obs.bench import render_report

    manifest_dir = tmp_path / "manifests"
    run_objectstore(
        accesses=8_000,
        policies=("pdp",),
        capacity_bytes=1024 * 1024,
        fast=True,
        manifest_dir=str(manifest_dir),
    )
    rendered = render_report(manifest_dir)
    assert "byte hit" in rendered
    assert "PD" in rendered


def test_cli_unknown_experiment_lists_sorted_names(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["experiment", "definitely-not-real"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'definitely-not-real'" in err
    # Python versions differ in whether argparse quotes the choices, so
    # read the names by position rather than by exact text.
    listed = re.findall(r"\w+", err.split("choose from", 1)[1])
    assert listed == sorted(listed)
    assert set(listed) == {
        "fig1", "fig2", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
        "fig12", "objectstore", "prefetch",
    }


# -- streaming acceptance --------------------------------------------------


class _ObjectChunkSpy:
    """Lazily generated object-trace stream counting live chunks."""

    def __init__(self, total: int, chunk_size: int):
        self.total = total
        self.chunk_size = chunk_size
        self.live = 0
        self.peak = 0
        self.produced = 0

    def _release(self):
        self.live -= 1

    def _chunk(self, begin: int, end: int) -> ObjectTrace:
        indexes = np.arange(begin, end, dtype=np.int64)
        keys = (indexes * 16807) % 9973
        return ObjectTrace(
            keys,
            (keys % 512) + 1,
            timestamps=indexes,
            name="spy",
        )

    def _factory(self):
        for begin in range(0, self.total, self.chunk_size):
            chunk = self._chunk(begin, min(begin + self.chunk_size, self.total))
            self.live += 1
            self.peak = max(self.peak, self.live)
            self.produced += 1
            weakref.finalize(chunk, self._release)
            yield chunk

    def stream(self) -> TraceStream:
        return TraceStream(self._factory, name="spy", length=self.total)


def _assert_object_stream_bounded(total: int, chunk_size: int) -> None:
    spy = _ObjectChunkSpy(total, chunk_size)
    result = run_object_cache(
        spy.stream(), SizeAwareLRUPolicy(), capacity_bytes=256 * 1024
    )
    assert spy.produced == -(-total // chunk_size)
    assert spy.peak <= 3, (
        f"object-cache run held {spy.peak} chunks alive at once — "
        "the driver is accumulating chunks instead of streaming them"
    )
    assert result.accesses == total
    stats = result.stats
    assert stats.accesses == stats.hits + stats.misses
    assert stats.misses == stats.fills + stats.bypasses


def test_object_stream_run_is_chunk_bounded():
    _assert_object_stream_bounded(total=200_000, chunk_size=25_000)


@pytest.mark.slow
def test_ten_million_object_requests_stream_in_chunk_memory():
    """Acceptance: a 10M-request object trace flows through
    ``run_object_cache`` holding only O(chunk) trace data."""
    _assert_object_stream_bounded(total=10_000_000, chunk_size=1_000_000)
