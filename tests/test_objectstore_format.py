"""Object-trace container and the ``objectstore`` on-disk format.

Covers the :class:`ObjectTrace` column contract (slice/concat preserve
the extra columns; fingerprints incorporate them chunk-size-invariantly
while plain-trace digests stay untouched), the text format's round trip
(plain and gzip), its content-magic detection without a suffix, located
parse errors, and the sorted-names contract of unknown-format errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.manifest import FingerprintAccumulator, trace_fingerprint
from repro.traces.formats import (
    TraceFormatError,
    convert_trace,
    detect_format,
    format_names,
    open_trace,
    trace_info,
    write_stream,
)
from repro.traces.formats.objectstore import parse_key
from repro.traces.objects import (
    DEFAULT_OBJECT_SIZE,
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ObjectTrace,
)
from repro.traces.stream import TraceStream
from repro.traces.trace import Trace


def _object_trace(n: int = 100, seed: int = 5) -> ObjectTrace:
    rng = np.random.default_rng(seed)
    return ObjectTrace(
        rng.integers(0, 50, n),
        rng.integers(1, 1000, n),
        ops=rng.integers(0, 3, n),
        timestamps=np.cumsum(rng.integers(1, 5, n)),
        name="fixture",
    )


# -- container -------------------------------------------------------------


def test_object_trace_validates_columns():
    with pytest.raises(ValueError):
        ObjectTrace([1, 2], [10])  # length mismatch
    with pytest.raises(ValueError):
        ObjectTrace([1], [-5])  # negative size


def test_slice_and_concat_preserve_object_columns():
    trace = _object_trace(50)
    part = trace.slice(10, 30)
    assert isinstance(part, ObjectTrace)
    assert part.sizes.tolist() == trace.sizes[10:30].tolist()
    assert part.ops.tolist() == trace.ops[10:30].tolist()
    assert part.timestamps.tolist() == trace.timestamps[10:30].tolist()
    joined = trace.slice(0, 10).concat(trace.slice(10, 50))
    assert isinstance(joined, ObjectTrace)
    assert joined.sizes.tolist() == trace.sizes.tolist()
    assert joined.timestamps.tolist() == trace.timestamps.tolist()


def test_from_trace_coerces_plain_traces():
    plain = Trace([1, 2, 3], name="cpu")
    obj = ObjectTrace.from_trace(plain, position_offset=7)
    assert obj.sizes.tolist() == [DEFAULT_OBJECT_SIZE] * 3
    assert obj.ops.tolist() == [OP_GET] * 3
    assert obj.timestamps.tolist() == [7, 8, 9]
    # ObjectTrace passes through unchanged.
    fixture = _object_trace(4)
    assert ObjectTrace.from_trace(fixture) is fixture


def test_fingerprint_covers_extra_columns_chunk_invariantly():
    trace = _object_trace(60)
    whole = FingerprintAccumulator()
    whole.update(trace)
    split = FingerprintAccumulator()
    split.update(trace.slice(0, 17))
    split.update(trace.slice(17, 60))
    digest = whole.digest("fixture", 1.0)
    assert digest == split.digest("fixture", 1.0)
    # Same keys, different sizes -> different fingerprint.
    resized = ObjectTrace(
        trace.keys, trace.sizes + 1, ops=trace.ops, timestamps=trace.timestamps
    )
    other = FingerprintAccumulator()
    other.update(resized)
    assert other.digest("fixture", 1.0) != digest
    # Plain traces keep their historical digest (no extra columns).
    plain = Trace(trace.keys, name="fixture")
    assert trace_fingerprint(plain) != digest


# -- on-disk format --------------------------------------------------------


def _stream(trace: ObjectTrace, chunk_size: int = 32) -> TraceStream:
    return TraceStream.from_trace(trace, chunk_size=chunk_size)


@pytest.mark.parametrize("suffix", [".objtrace", ".objtrace.gz"])
def test_round_trip_preserves_every_column(tmp_path, suffix):
    trace = _object_trace(80)
    path = tmp_path / f"t{suffix}"
    written = write_stream(_stream(trace), path)
    assert written == 80
    back = open_trace(path)
    assert back.format == "objectstore"
    assert back.name == "fixture"
    loaded = back.materialize()
    assert loaded.addresses.tolist() == trace.keys.tolist()
    chunks = list(back.chunks())
    assert all(isinstance(c, ObjectTrace) for c in chunks)
    sizes = np.concatenate([c.sizes for c in chunks])
    ops = np.concatenate([c.ops for c in chunks])
    timestamps = np.concatenate([c.timestamps for c in chunks])
    assert sizes.tolist() == trace.sizes.tolist()
    assert ops.tolist() == trace.ops.tolist()
    assert timestamps.tolist() == trace.timestamps.tolist()


def test_magic_detection_without_suffix(tmp_path):
    trace = _object_trace(10)
    path = tmp_path / "t.objtrace"
    write_stream(_stream(trace), path)
    bare = tmp_path / "no_extension"
    bare.write_bytes(path.read_bytes())
    assert detect_format(bare) == "objectstore"
    info = trace_info(bare)
    assert info["format"] == "objectstore" and info["accesses"] == 10


def test_gzip_magic_detection_without_suffix(tmp_path):
    trace = _object_trace(10)
    path = tmp_path / "t.objtrace.gz"
    write_stream(_stream(trace), path)
    bare = tmp_path / "mystery"
    bare.write_bytes(path.read_bytes())
    assert detect_format(bare) == "objectstore"


def test_missing_header_is_rejected(tmp_path):
    path = tmp_path / "bad.objtrace"
    path.write_text("1,GET,42,100\n")
    with pytest.raises(TraceFormatError, match="missing"):
        list(open_trace(path).chunks())


@pytest.mark.parametrize(
    "row, match",
    [
        ("1,GET,42", "expected 4 columns"),
        ("1,FROB,42,100", "unknown op"),
        ("x,GET,42,100", "timestamp is not an integer"),
        ("1,GET,42,-5", "negative object size"),
    ],
)
def test_malformed_rows_fail_with_line_numbers(tmp_path, row, match):
    path = tmp_path / "bad.objtrace"
    path.write_text(f"#objectstore v1\n1,GET,7,10\n{row}\n")
    with pytest.raises(TraceFormatError, match=match) as excinfo:
        list(open_trace(path).chunks())
    assert ":3:" in str(excinfo.value)  # the offending line is named


def test_op_names_case_insensitive_and_numeric(tmp_path):
    path = tmp_path / "ops.objtrace"
    path.write_text(
        "#objectstore v1\n"
        "1,get,7,10\n"
        "2,Put,8,20\n"
        "3,2,9,0\n"  # numeric DELETE code
    )
    chunk = next(open_trace(path).chunks())
    assert chunk.ops.tolist() == [OP_GET, OP_PUT, OP_DELETE]


def test_opaque_keys_hash_stably():
    a = parse_key("8d4fcda3d675bac9aa1b51a9d78c2883")
    b = parse_key("8d4fcda3d675bac9aa1b51a9d78c2883")
    assert a == b and 0 <= a < (1 << 63)
    assert parse_key("42") == 42
    assert parse_key("0x1a") == 26
    assert parse_key("other") != a


def test_convert_plain_trace_to_objectstore(tmp_path):
    plain = Trace(np.arange(40) % 7, name="cpu")
    src = tmp_path / "cpu.trz"
    write_stream(TraceStream.from_trace(plain, chunk_size=16), src)
    dst = tmp_path / "cpu.objtrace"
    assert convert_trace(src, dst) == 40
    chunk = next(open_trace(dst).chunks())
    assert chunk.sizes.tolist() == [DEFAULT_OBJECT_SIZE] * 40
    # Position timestamps keep increasing across the 16-access chunks.
    full = np.concatenate([c.timestamps for c in open_trace(dst).chunks()])
    assert full.tolist() == list(range(40))


def test_format_registry_errors_list_sorted_names(tmp_path):
    assert format_names() == sorted(format_names())
    trace = _object_trace(4)
    with pytest.raises(TraceFormatError) as excinfo:
        write_stream(_stream(trace), tmp_path / "x.objtrace", format="bogus")
    message = str(excinfo.value)
    assert "champsim, csv, native, objectstore" in message


def test_metadata_comment_round_trips_name_and_dilution(tmp_path):
    trace = _object_trace(12)
    path = tmp_path / "meta.objtrace"
    stream = _stream(trace)
    stream.instructions_per_access = 2.5
    write_stream(stream, path)
    back = open_trace(path)
    assert back.name == "fixture"
    assert back.instructions_per_access == 2.5
