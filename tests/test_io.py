"""Tests for trace persistence in the native format."""

import gzip

import numpy as np
import pytest

from repro.traces.formats import TraceFormatError, open_trace
from repro.traces.io import load_trace, save_trace
from repro.traces.trace import Trace


def test_round_trip(tmp_path):
    trace = Trace(
        [1, 2, 3],
        pcs=[10, 20, 30],
        thread_ids=[0, 1, 0],
        name="roundtrip",
        instructions_per_access=12.5,
    )
    path = tmp_path / "trace.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert list(loaded.addresses) == [1, 2, 3]
    assert list(loaded.pcs) == [10, 20, 30]
    assert list(loaded.thread_ids) == [0, 1, 0]
    assert loaded.name == "roundtrip"
    assert loaded.instructions_per_access == 12.5


def test_round_trip_large(tmp_path):
    rng = np.random.default_rng(0)
    trace = Trace(rng.integers(0, 1 << 40, size=5000))
    path = tmp_path / "big.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.addresses, trace.addresses)


def test_save_writes_native_gzip_format(tmp_path):
    """Regardless of the suffix, ``save_trace`` writes the native format
    (gzip stream carrying the REPROTRC magic)."""
    path = tmp_path / "trace.npz"  # legacy-looking name, native content
    save_trace(Trace([1, 2, 3], name="t"), path)
    head = path.read_bytes()[:2]
    assert head == b"\x1f\x8b"
    with gzip.open(path, "rb") as fh:
        assert fh.read(8) == b"REPROTRC"


def test_load_rejects_unknown_content(tmp_path):
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"definitely not a trace")
    # A numpy archive, the format Trace.save wrote before the native one.
    archive = tmp_path / "archive.npz"
    np.savez_compressed(archive, addresses=np.arange(3), pcs=np.arange(3))
    for path in (junk, archive):
        with pytest.raises(TraceFormatError, match="not a native trace"):
            load_trace(path)
        with pytest.raises(TraceFormatError, match="cannot infer trace format"):
            open_trace(path)


def test_load_missing_file_raises_format_error(tmp_path):
    with pytest.raises(TraceFormatError, match="unreadable"):
        load_trace(tmp_path / "absent.trz")
