"""Sweep service: specs, protocol, job store, resume scheduler, daemon.

The resume tests pin the PR's acceptance contract: an interrupted sweep,
resumed against its per-cell manifests, skips completed cells (visibly —
``skipped`` progress events) and merges to results bit-identical to an
uninterrupted run, including windowed time-series payloads.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.memory.cache import CacheGeometry
from repro.obs.manifest import Manifest, scan_manifests
from repro.policies.base import make_policy
from repro.service.jobs import JobRecord, JobStore, SpecError, SweepSpec
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    ServiceClient,
    decode_message,
    encode_message,
    service_socket,
)
from repro.service.scheduler import CorruptManifestError
from repro.service.server import SweepService
from repro.sim.parallel import llc_cells, mix_cells, run_cells, run_matrix
from repro.traces.trace import Trace

REPO_ROOT = Path(__file__).parent.parent
GEOMETRY = CacheGeometry(num_sets=16, ways=4)


def _trace(seed: int = 11, n: int = 3000, name: str | None = None) -> Trace:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 300, size=n)
    cold = rng.integers(300, 12_000, size=n)
    addresses = np.where(rng.random(n) < 0.6, hot, cold)
    return Trace(addresses, name=name or f"svc-test-{seed}")


#: The smallest valid matrix spec fields, for validation cases.
_MATRIX = {"benchmark": "x", "policies": ["lru"]}


def _factories(*names: str) -> dict:
    return {name: partial(make_policy, name) for name in names}


def run_resumable_matrix(
    trace, factories, geometry, manifest_dir, window_size=None,
    max_workers=None, **resume,
):
    """A ``matrix`` job's grid as the daemon runs it: :func:`llc_cells`
    through ``run_cells(..., resume=True)``; ``resume`` takes ``force``,
    ``match_git_sha`` and ``on_event``."""
    trace, cells = llc_cells(
        trace, factories, geometry, None, "vector", manifest_dir, window_size
    )
    return run_cells(
        "matrix", cells, trace, max_workers=max_workers,
        manifest_dir=manifest_dir, resume=True, **resume,
    )


def run_resumable_mix_matrix(mixes, factories, geometry, manifest_dir, max_workers=None):
    """A ``mix_matrix`` job's grid as the daemon runs it: :func:`mix_cells`
    through ``run_cells(..., resume=True)``."""
    cells = mix_cells(mixes, factories, geometry, None, None, "vector", manifest_dir)
    return run_cells(
        "mix_matrix", cells, mixes, config={"mixes": len(mixes)},
        max_workers=max_workers, manifest_dir=manifest_dir, resume=True,
    )


def _cell_fields(result):
    """Every manifest-persisted field of a SingleCoreResult, bitwise."""
    return (
        result.name,
        result.accesses,
        result.hits,
        result.misses,
        result.bypasses,
        result.instructions,
        result.ipc,
        result.evictions,
        result.extra.get("timeseries"),
    )


def _mix_fields(result):
    """Every manifest-persisted field of a MultiCoreResult, bitwise."""
    return (
        result.name,
        [
            (t.accesses, t.hits, t.misses, t.bypasses, t.instructions, t.ipc)
            for t in result.threads
        ],
        result.weighted,
        result.throughput,
        result.hmean,
    )


class TestSweepSpec:
    def test_round_trip(self):
        spec = SweepSpec(
            benchmark="429.mcf",
            policies=["lru", {"key": "pdp8", "name": "pdp", "kwargs": {}}],
            window_size=500,
        )
        spec.validate()
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_policy_items_normalization(self):
        spec = SweepSpec(
            benchmark="429.mcf",
            policies=["lru", {"name": "pdp"}, {"key": "x", "name": "srrip"}],
        )
        assert spec.policy_items() == [
            ("lru", "lru", {}),
            ("pdp", "pdp", {}),
            ("x", "srrip", {}),
        ]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kind": "nope"}, "kind"),
            ({"namespace": "a/b", "benchmark": "x", "policies": ["lru"]}, "namespace"),
            ({"namespace": "..", "benchmark": "x", "policies": ["lru"]}, "namespace"),
            ({"policies": ["lru"]}, "exactly one"),
            ({"benchmark": "x", "trace_file": "y", "policies": ["lru"]}, "exactly one"),
            ({"benchmark": "x"}, "at least one policy"),
            ({"kind": "mix_matrix", "policies": ["lru"]}, "mixes"),
            ({"benchmark": "x", "policies": ["lru", "lru"]}, "duplicate"),
            ({"benchmark": "x", "policies": ["lru"], "workers": -1}, "workers"),
            ({"benchmark": "x", "policies": ["lru"], "window_size": 0}, "window_size"),
            ({"benchmark": "x", "policies": ["lru"], "num_sets": 100}, "num_sets"),
            ({"benchmark": "x", "policies": ["lru"], "num_sets": 0}, "num_sets"),
            ({"benchmark": "x", "policies": ["lru"], "ways": 0}, "ways"),
            ({"benchmark": "x", "policies": ["lru"], "line_size": 0}, "line_size"),
            ({"benchmark": "x", "policies": ["lru"], "line_size": 48}, "line_size"),
            ({"benchmark": "x", "policies": ["lru"], "engine": "warp"}, "engine"),
            ({"benchmark": "x", "policies": ["lru"], "length": 0}, "length"),
            (
                {"kind": "mix_matrix", "mixes": {"m": ["x"]}, "policies": ["lru"],
                 "length": 0},
                "length",
            ),
            ({"kind": "predict", "benchmark": "x", "length": 0}, "length"),
            ({"benchmark": "999.nope", "policies": ["lru"]}, "unknown benchmark"),
            ({"kind": "predict", "benchmark": "999.nope"}, "unknown benchmark"),
            (
                {"kind": "mix_matrix", "mixes": {"m": ["403.gcc", "999.nope"]},
                 "policies": ["lru"]},
                "unknown benchmark",
            ),
            (
                {"kind": "mix_matrix", "mixes": {"m": "403.gcc"}, "policies": ["lru"]},
                "non-empty list",
            ),
            (
                {"kind": "mix_matrix", "mixes": {"m": []}, "policies": ["lru"]},
                "non-empty list",
            ),
            # every field holds its JSON type: an int is no float, bool or string
            ({**_MATRIX, "length": 5000.0}, "length must be an int"),
            ({**_MATRIX, "length": True}, "length must be an int"),
            ({**_MATRIX, "length": "5000"}, "length must be an int"),
            ({**_MATRIX, "seed": 1.5}, "seed must be an int"),
            ({**_MATRIX, "seed": False}, "seed must be an int"),
            ({**_MATRIX, "num_sets": 16.0}, "num_sets must be an int"),
            ({**_MATRIX, "ways": 16.0}, "ways must be an int"),
            ({**_MATRIX, "line_size": "64"}, "line_size must be an int"),
            ({**_MATRIX, "workers": True}, "workers must be an int"),
            ({**_MATRIX, "window_size": 5e2}, "window_size must be an int"),
            ({**_MATRIX, "trace_num_sets": 16.0}, "trace_num_sets must be an int"),
            ({"kind": "predict", "benchmark": "x", "top_k": 1.0}, "top_k must be an int"),
            ({"kind": "predict", "benchmark": "x", "pd_max": "256"}, "pd_max must be an int"),
            ({"kind": "predict", "benchmark": "x", "pd_step": 4.0}, "pd_step must be an int"),
            ({"kind": "predict", "benchmark": "x", "d_max": None}, "d_max must be an int"),
            ({**_MATRIX, "force": "no"}, "force must be true or false"),
            ({**_MATRIX, "match_git_sha": 1}, "match_git_sha must be true or false"),
            ({**_MATRIX, "namespace": 5}, "namespace must be a string"),
            ({"trace_file": 5, "policies": ["lru"]}, "trace_file must be a string"),
            ({"benchmark": "x", "policies": {"lru": {}}}, "policies must be a list"),
            (
                {"benchmark": "x", "policies": [{"name": "lru", "kwargs": 5}]},
                "policy entries must be",
            ),
            ({"kind": "predict", "benchmark": "x", "explore_sets": 64}, "explore_sets must be a list"),
            (
                {"trace_file": "t.csv", "trace_format": 1, "policies": ["lru"]},
                "trace_format must be a string",
            ),
            (
                {"kind": "mix_matrix", "mixes": [["403.gcc"]], "policies": ["lru"]},
                "mixes must be an object",
            ),
        ],
    )
    def test_validate_rejects(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            SweepSpec(**kwargs).validate()

    def test_optional_int_fields_accept_none(self):
        SweepSpec(
            benchmark="403.gcc", policies=["lru"], seed=None, window_size=None,
            trace_num_sets=None,
        ).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            SweepSpec.from_dict({"benchmark": "x", "surprise": 1})

    def test_unknown_policy_name_fails_fast(self):
        from repro.service.jobs import policy_factories

        spec = SweepSpec(benchmark="x", policies=["not-a-policy"])
        with pytest.raises(SpecError, match="unknown policy"):
            policy_factories(spec)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        payload = {"op": "submit", "spec": {"policies": ["lru"], "length": 1}}
        line = encode_message(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_message(line) == payload

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="JSON objects"):
            decode_message(b'["a", "list"]\n')
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_message(b"{nope\n")

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
            encode_message({"blob": "x" * (MAX_LINE_BYTES + 1)})


class TestJobStore:
    def test_save_get_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord.new(SweepSpec(benchmark="x", policies=["lru"]))
        store.save(record)
        assert store.get(record.job_id) == record
        assert store.get("missing") is None
        # atomic write leaves no temp litter
        assert list((tmp_path / "jobs").glob("*.tmp")) == []

    @pytest.mark.parametrize("writer", ["manifest", "job_record"])
    def test_full_disk_keeps_the_stored_record(self, tmp_path, monkeypatch, writer):
        """A write that fails with ENOSPC at ``os.replace`` leaves the
        record already on disk byte for byte and no ``*.json.tmp``."""
        if writer == "manifest":
            record = Manifest(kind="llc", workload="w", policy="LRUPolicy")
            save = partial(record.save, tmp_path)
            counter = "accesses"
        else:
            record = JobRecord.new(SweepSpec(benchmark="x", policies=["lru"]))
            save = partial(JobStore(tmp_path).save, record)
            counter = "ran_cells"
        path = save()
        before = path.read_bytes()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        setattr(record, counter, 7)
        with pytest.raises(OSError) as excinfo:
            save()
        assert excinfo.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert list(tmp_path.rglob("*.json.tmp")) == []

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        done = JobRecord.new(SweepSpec(benchmark="a", policies=["lru"]))
        done.state = "done"
        running = JobRecord.new(SweepSpec(benchmark="b", policies=["lru"]))
        running.state = "running"
        queued = JobRecord.new(SweepSpec(benchmark="c", policies=["lru"]))
        for record in (done, running, queued):
            store.save(record)
        pending = store.recover()
        assert sorted(r.spec.benchmark for r in pending) == ["b", "c"]
        revived = store.get(running.job_id)
        assert revived.state == "queued" and revived.interrupted


class TestMatrixResume:
    def test_second_run_skips_all_cells_bit_identical(self, tmp_path):
        trace = _trace()
        factories = _factories("lru", "fifo", "srrip")
        events = []
        first, plan1 = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800
        )
        second, plan2 = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800,
            on_event=events.append,
        )
        assert not plan1.skipped and len(plan1.to_run) == 3
        assert len(plan2.skipped) == 3 and not plan2.to_run
        assert [e.kind for e in events] == ["skipped"] * 3
        assert list(second) == list(first)  # original grid order
        for key in factories:
            assert _cell_fields(second[key]) == _cell_fields(first[key])

    def test_interrupted_sweep_resumes_and_merges_bit_identical(self, tmp_path):
        """The acceptance scenario: cell 2 of 3 dies mid-sweep; the
        retry skips the completed cells and the merged results match an
        uninterrupted reference run bitwise, windows included."""
        trace = _trace()
        reference_dir = tmp_path / "ref"
        resumed_dir = tmp_path / "resumed"
        factories = _factories("lru", "fifo", "srrip")
        reference, _ = run_resumable_matrix(
            trace, factories, GEOMETRY, reference_dir, window_size=800
        )

        class Boom(Exception):
            pass

        def exploding_factory():
            raise Boom("injected cell failure")

        broken = dict(factories)
        broken["fifo"] = exploding_factory
        with pytest.raises(Exception, match="injected cell failure"):
            run_resumable_matrix(
                trace, broken, GEOMETRY, resumed_dir, window_size=800
            )
        survivors = [
            m for m in scan_manifests(resumed_dir).manifests if m.kind == "llc"
        ]
        assert sorted(m.label for m in survivors) == ["lru", "srrip"]

        events = []
        merged, plan = run_resumable_matrix(
            trace, factories, GEOMETRY, resumed_dir, window_size=800,
            on_event=events.append,
        )
        assert sorted(str(k) for k in plan.skipped) == ["lru", "srrip"]
        assert plan.to_run == ["fifo"]
        skipped_keys = sorted(e.key for e in events if e.kind == "skipped")
        assert skipped_keys == ["lru", "srrip"]
        assert list(merged) == list(reference)
        for key in factories:
            assert _cell_fields(merged[key]) == _cell_fields(reference[key])

    def test_manifests_with_legacy_telemetry_block_still_resume(self, tmp_path):
        """Manifests written before the ``telemetry`` field was dropped
        load through the unknown-field path and still satisfy resume."""
        from repro.obs.manifest import Manifest

        trace = _trace()
        factories = _factories("lru", "fifo")
        fresh, _ = run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        legacy = {
            "counters": {"columnar.accesses": len(trace)},
            "timers": {"columnar.run_trace": {
                "calls": 1, "total_s": 0.01, "min_s": 0.01, "max_s": 0.01,
            }},
        }
        cells = []
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            data["telemetry"] = legacy
            path.write_text(json.dumps(data))
            if data["kind"] == "llc":
                cells.append(path)
        assert len(cells) == 2
        for path in cells:
            loaded = Manifest.load(path)
            assert loaded.extra["_unknown"] == {"telemetry": legacy}
        resumed, plan = run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        assert len(plan.skipped) == 2 and not plan.to_run
        for key in factories:
            assert _cell_fields(resumed[key]) == _cell_fields(fresh[key])

    def test_fingerprint_mismatch_forces_rerun(self, tmp_path):
        factories = _factories("lru")
        run_resumable_matrix(
            _trace(seed=1, name="same-name"), factories, GEOMETRY, tmp_path
        )
        # same workload name, different content: must not be skipped
        _, plan = run_resumable_matrix(
            _trace(seed=2, name="same-name"), factories, GEOMETRY, tmp_path
        )
        assert not plan.skipped and plan.to_run == ["lru"]

    def test_window_size_mismatch_forces_rerun(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path, window_size=800)
        _, hit = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=800
        )
        assert hit.skipped and not hit.to_run
        _, miss = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, window_size=400
        )
        assert not miss.skipped and miss.to_run == ["lru"]

    def test_match_git_sha_gates_resume(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        # forge the recorded SHA: the cell must re-run under matching
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            if data.get("kind") == "llc":
                data["git_sha"] = "0" * 40
                path.write_text(json.dumps(data))
        _, relaxed = run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        assert relaxed.skipped  # default: SHA not part of the identity
        _, strict = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, match_git_sha=True
        )
        assert not strict.skipped and strict.to_run == ["lru"]

    def test_corrupt_manifest_refused_without_force(self, tmp_path):
        trace = _trace()
        factories = _factories("lru")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        with pytest.raises(CorruptManifestError, match="corrupt.json"):
            run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        _, plan = run_resumable_matrix(
            trace, factories, GEOMETRY, tmp_path, force=True
        )
        assert plan.skipped and not plan.to_run

    def test_skip_events_reach_spans_jsonl(self, tmp_path):
        """Each resumed cell is a zero-duration ``skipped`` cell span
        under ``resume-scan``."""
        from repro.obs.spans import SPANS_FILENAME, read_spans

        trace = _trace()
        factories = _factories("lru", "fifo")
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        run_resumable_matrix(trace, factories, GEOMETRY, tmp_path)
        spans = read_spans(tmp_path / SPANS_FILENAME)
        (scan,) = [s for s in spans if s["name"] == "resume-scan"
                   and s["attributes"]["skipped"] == 2]
        skipped = [s for s in spans
                   if s["attributes"].get("status") == "skipped"]
        assert sorted(s["name"] for s in skipped) == ["cell:fifo", "cell:lru"]
        assert all(s["parent_id"] == scan["span_id"] for s in skipped)
        assert all(s["duration_s"] == 0.0 for s in skipped)

    def test_skipped_cells_count_toward_grid_progress(self, tmp_path):
        """Resumed cells are part of the grid's progress: with 2 of 3
        cells skipped, the last event of the resumed run is 3/3."""
        trace = _trace()
        run_resumable_matrix(trace, _factories("lru", "fifo"), GEOMETRY, tmp_path)
        events = []
        run_resumable_matrix(
            trace, _factories("lru", "fifo", "srrip"), GEOMETRY, tmp_path,
            on_event=events.append,
        )
        assert [(e.kind, e.done, e.total) for e in events] == [
            ("skipped", 1, 3),
            ("skipped", 2, 3),
            ("started", 2, 3),
            ("finished", 3, 3),
        ]

    def test_resumed_span_tree(self, tmp_path):
        """job -> resume-scan and the grid span, cells under the grid."""
        from repro.obs.spans import SPANS_FILENAME, read_spans

        trace = _trace()
        run_resumable_matrix(trace, _factories("lru"), GEOMETRY, tmp_path)
        spans = read_spans(tmp_path / SPANS_FILENAME)
        by_name = {span["name"]: span for span in spans}
        assert sorted(by_name) == ["cell:lru", "job", "matrix", "resume-scan"]
        job = by_name["job"]["span_id"]
        assert by_name["job"]["parent_id"] is None
        assert by_name["resume-scan"]["parent_id"] == job
        assert by_name["matrix"]["parent_id"] == job
        assert by_name["cell:lru"]["parent_id"] == by_name["matrix"]["span_id"]

    def test_resume_ignores_foreign_and_sweep_manifests(self, tmp_path):
        """Sweep-level manifests and other-geometry cells never satisfy
        a cell: only a full identity match skips work."""
        trace = _trace()
        factories = _factories("lru")
        run_matrix(trace, factories, GEOMETRY, manifest_dir=tmp_path)
        other = CacheGeometry(num_sets=32, ways=4)
        _, plan = run_resumable_matrix(trace, factories, other, tmp_path)
        assert not plan.skipped and plan.to_run == ["lru"]


def test_mix_job_builds_each_benchmark_trace_once(tmp_path, monkeypatch):
    """Two mixes sharing a benchmark generate it once per job, and the
    results equal those of per-mix generation."""
    from repro.service.jobs import load_mix_traces, policy_factories, spec_geometry
    from repro.service.scheduler import execute_spec
    from repro.workloads.spec_like import make_benchmark_trace
    from repro.workloads.synthetic import RDDProfileGenerator

    spec = SweepSpec(
        kind="mix_matrix",
        mixes={"a": ["403.gcc", "429.mcf"], "b": ["403.gcc", "433.milc"]},
        length=1500,
        num_sets=16,
        ways=4,
        policies=["lru", "fifo"],
    )
    factories = policy_factories(spec)
    per_mix = {
        key: [
            make_benchmark_trace(name, length=spec.length, num_sets=spec.num_sets)
            for name in names
        ]
        for key, names in spec.mixes.items()
    }
    expected, _ = run_resumable_mix_matrix(
        per_mix, factories, spec_geometry(spec), tmp_path / "per-mix"
    )

    generated = []
    real_generate = RDDProfileGenerator.generate

    def counting_generate(self, length):
        generated.append(self.profile.name)
        return real_generate(self, length)

    monkeypatch.setattr(RDDProfileGenerator, "generate", counting_generate)
    shared, _ = run_resumable_mix_matrix(
        load_mix_traces(spec), factories, spec_geometry(spec), tmp_path / "shared"
    )
    assert sorted(generated) == ["403.gcc", "429.mcf", "433.milc"]
    assert list(shared) == list(expected)
    for key in expected:
        assert _mix_fields(shared[key]) == _mix_fields(expected[key])

    generated.clear()
    summary = execute_spec(spec, tmp_path / "job")
    assert summary["ran_cells"] == 4
    assert sorted(generated) == ["403.gcc", "429.mcf", "433.milc"]


def test_resubmitted_vector_mix_job_skips_every_cell(tmp_path):
    """A ``mix_matrix`` job keeps its ``vector`` engine: its manifests
    record it, so resubmitting the identical spec skips every cell."""
    from repro.service.scheduler import execute_spec

    spec = SweepSpec(
        kind="mix_matrix",
        mixes={"a": ["403.gcc", "429.mcf"], "b": ["433.milc", "450.soplex"]},
        length=1500,
        num_sets=16,
        ways=4,
        policies=[
            "lru",
            {"name": "pd-partition", "kwargs": {"num_threads": 2}},
            {"name": "ucp", "kwargs": {"num_threads": 2}},
        ],
    )
    assert spec.engine == "vector"
    first = execute_spec(spec, tmp_path)
    assert first["ran_cells"] == first["total_cells"] == 6
    cells = [
        m for m in scan_manifests(tmp_path).manifests if m.kind == "shared_llc"
    ]
    assert len(cells) == 6 and {m.engine for m in cells} == {"vector"}
    # The requested engine is the resume identity; the tier that ran is
    # recorded beside it: UCP has no vector kernel.
    assert {(m.policy, m.engine_ran) for m in cells} == {
        ("LRUPolicy", "vector"), ("PDPartitionPolicy", "vector"), ("UCPPolicy", "fast"),
    }
    second = execute_spec(spec, tmp_path)
    assert second["skipped_cells"] == 6 and second["ran_cells"] == 0


class TestMixResume:
    def _mixes(self):
        return {
            "mix0": [_trace(1, 900, "t1"), _trace(2, 700, "t2")],
            "mix1": [_trace(3, 800, "t3"), _trace(4, 800, "t4")],
        }

    def test_second_run_skips_all_cells_bit_identical(self, tmp_path):
        factories = _factories("lru", "fifo")
        first, plan1 = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        second, plan2 = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        assert len(plan1.to_run) == 4 and not plan2.to_run
        assert list(second) == list(first)
        for key in first:
            assert _mix_fields(second[key]) == _mix_fields(first[key])

    def test_ragged_remainder_runs_per_cell(self, tmp_path):
        """Deleting one cell's manifest leaves a remainder that is not a
        full sub-grid; resume must re-run exactly that cell."""
        factories = _factories("lru", "fifo")
        first, _ = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        victim = str(("mix1", "fifo"))
        for path in tmp_path.glob("*.json"):
            if json.loads(path.read_text()).get("label") == victim:
                path.unlink()
        merged, plan = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path
        )
        assert plan.to_run == [("mix1", "fifo")]
        for key in first:
            assert _mix_fields(merged[key]) == _mix_fields(first[key])


    def test_ragged_remainder_runs_as_one_pooled_grid(self, tmp_path):
        """Missing cells on different policies of different mixes still
        run as one grid: one sweep manifest, both tasks, both workers."""
        factories = _factories("lru", "fifo")
        run_resumable_mix_matrix(self._mixes(), factories, GEOMETRY, tmp_path)
        victims = {str(("mix0", "lru")), str(("mix1", "fifo"))}
        for path in tmp_path.glob("*.json"):
            if json.loads(path.read_text()).get("label") in victims:
                path.unlink()
        before = {m.run_id for m in scan_manifests(tmp_path).manifests}
        _, plan = run_resumable_mix_matrix(
            self._mixes(), factories, GEOMETRY, tmp_path, max_workers=2
        )
        assert plan.to_run == [("mix0", "lru"), ("mix1", "fifo")]
        sweeps = [
            m for m in scan_manifests(tmp_path).manifests
            if m.kind == "mix_matrix" and m.run_id not in before
        ]
        assert len(sweeps) == 1
        assert len(sweeps[0].tasks) == 2
        assert sweeps[0].config["workers_effective"] == 2
        assert "workers" not in sweeps[0].config


def _identity_cells() -> dict:
    """One cell of each kind, a simulation cell with a window."""
    from repro.explore.explorer import ExploreCell, design_space
    from repro.sim.parallel import LLCCell, SharedLLCCell

    return {
        "llc": LLCCell(
            "lru", "svc-test", _factories("lru")["lru"], GEOMETRY, window_size=800
        ),
        "shared_llc": SharedLLCCell(("mix0", "lru"), _factories("lru")["lru"], GEOMETRY),
        "explore": ExploreCell("svc-test", design_space(sets=[16, 32], ways=[4])),
    }


def _satisfying_manifest(cell):
    """The manifest a completed run of ``cell`` over trace "fp" leaves."""
    from repro.obs.manifest import Manifest, git_sha

    return Manifest(
        kind=cell.kind,
        workload=cell.workload,
        policy=cell.policy,
        engine=cell.engine,
        label=str(cell.key),
        config={**cell.config, "extra-entry": 1},
        trace_fingerprint="fp",
        git_sha=git_sha(),
        timeseries={"window_size": cell.window_size} if cell.window_size else {},
    )


def _identity_mutations() -> list:
    """``(cell kind, mutation)`` pairs: each changes exactly one identity
    dimension of the satisfying manifest."""

    def setter(attr, value):
        return lambda m: setattr(m, attr, value)

    def config_entry(key):
        return lambda m: m.config.update({key: ["changed"]})

    cases = []
    for kind, cell in _identity_cells().items():
        cases += [
            (kind, "kind", setter("kind", "other")),
            (kind, "label", setter("label", "other")),
            (kind, "workload", setter("workload", "other")),
            (kind, "engine", setter("engine", "other")),
            (kind, "git_sha", setter("git_sha", "0" * 40)),
        ]
        cases += [(kind, f"config.{key}", config_entry(key)) for key in cell.config]
        cases.append((kind, "config-missing", setter("config", None)))
    cases.append(("llc", "window_size", setter("timeseries", {"window_size": 400})))
    return [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in cases]


class TestIdentityRule:
    """``manifest_satisfies_cell``: the one resume rule of every cell kind."""

    @pytest.mark.parametrize("kind", ["llc", "shared_llc", "explore"])
    def test_unchanged_manifest_satisfies(self, kind):
        from repro.sim.parallel import manifest_satisfies_cell

        cell = _identity_cells()[kind]
        manifest = _satisfying_manifest(cell)
        assert manifest_satisfies_cell(manifest, cell, "fp")
        assert manifest_satisfies_cell(manifest, cell, "fp", match_git_sha=True)
        assert not manifest_satisfies_cell(manifest, cell, "other-fp")
        assert not manifest_satisfies_cell(manifest, cell, None)

    @pytest.mark.parametrize("kind, dimension, mutate", _identity_mutations())
    def test_one_changed_dimension_does_not_satisfy(self, kind, dimension, mutate):
        from repro.sim.parallel import manifest_satisfies_cell

        cell = _identity_cells()[kind]
        manifest = _satisfying_manifest(cell)
        mutate(manifest)
        assert not manifest_satisfies_cell(manifest, cell, "fp", match_git_sha=True)
        if dimension == "git_sha":
            assert manifest_satisfies_cell(manifest, cell, "fp")


def _submit_and_wait(client: ServiceClient, spec: SweepSpec) -> tuple[dict, list]:
    job = client.submit(spec.to_dict())
    responses = list(client.watch(job["job_id"]))
    events = [r["event"] for r in responses if "event" in r]
    return responses[-1]["done"], events


class TestServiceDaemon:
    """In-process daemon end-to-end: submit → watch → resume."""

    def _spec(self, **overrides) -> SweepSpec:
        base = dict(
            benchmark="429.mcf",
            length=2000,
            num_sets=16,
            ways=4,
            policies=["lru", "fifo"],
            namespace="t",
            window_size=500,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_submit_watch_resume_cycle(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        assert client.ping()["ok"]
                        done1, events1 = _submit_and_wait(client, self._spec())
                        done2, events2 = _submit_and_wait(client, self._spec())
                        jobs = client.jobs()
                        return done1, events1, done2, events2, jobs

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done1, events1, done2, events2, jobs = asyncio.run(scenario())
        assert done1["state"] == "done"
        assert done1["ran_cells"] == 2 and done1["skipped_cells"] == 0
        # the resubmitted identical sweep is satisfied purely from manifests
        assert done2["state"] == "done"
        assert done2["ran_cells"] == 0 and done2["skipped_cells"] == 2
        assert [e["kind"] for e in events2 if e["kind"] == "skipped"] == [
            "skipped",
            "skipped",
        ]
        assert len(jobs) == 2 and all(j["state"] == "done" for j in jobs)

    def test_rejects_bad_specs_and_unknown_ops(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        with pytest.raises(ProtocolError, match="unknown policy"):
                            client.submit(
                                {"benchmark": "429.mcf", "policies": ["nope"]}
                            )
                        with pytest.raises(ProtocolError, match="exactly one"):
                            client.submit({"policies": ["lru"]})
                        with pytest.raises(ProtocolError, match="length must be an int"):
                            client.submit(
                                {"benchmark": "429.mcf", "policies": ["lru"],
                                 "length": "5000"}
                            )
                        with pytest.raises(ProtocolError, match="unknown op"):
                            client.request({"op": "frobnicate"})
                        with pytest.raises(ProtocolError, match="unknown job"):
                            list(client.watch("no-such-job"))

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_corrupt_namespace_fails_job_without_force(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            ns = service.store.namespace_dir("t")
            (ns / "corrupt.json").write_text("{not json")
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        refused, _ = _submit_and_wait(client, self._spec())
                        forced, _ = _submit_and_wait(
                            client, self._spec(force=True)
                        )
                        return refused, forced

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        refused, forced = asyncio.run(scenario())
        assert refused["state"] == "failed"
        assert "corrupt" in refused["error"]
        assert forced["state"] == "done" and forced["ran_cells"] == 2

    def test_cell_failure_is_isolated_and_job_fails(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    # an unknown kwarg blows up exactly one cell's
                    # factory inside the sweep; "lru" runs first and its
                    # manifest survives for the retry to skip
                    spec = self._spec(
                        policies=[
                            "lru",
                            {"key": "bad", "name": "fifo",
                             "kwargs": {"bogus": 1}},
                        ]
                    )
                    with ServiceClient(service_socket(tmp_path)) as client:
                        done, events = _submit_and_wait(client, spec)
                        fixed, _ = _submit_and_wait(
                            client,
                            self._spec(
                                policies=[
                                    "lru",
                                    {"key": "bad", "name": "fifo"},
                                ]
                            ),
                        )
                        return done, events, fixed

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done, events, fixed = asyncio.run(scenario())
        assert done["state"] == "failed"
        assert done["error"]
        # the retry with the fixed spec skips lru's completed cell and
        # only re-runs the repaired one
        assert fixed["state"] == "done"
        assert fixed["skipped_cells"] == 1 and fixed["ran_cells"] == 1

    def test_stats_verb_reports_queue_jobs_and_latencies(self, tmp_path):
        from repro.obs.metrics import METRICS

        METRICS.reset()  # the registry is process-global; drop counts
        # accumulated by earlier in-process daemon tests

        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        idle = client.stats()
                        _submit_and_wait(client, self._spec())
                        _submit_and_wait(client, self._spec())  # all-skip
                        busy = client.stats()
                        return idle, busy

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        idle, busy = asyncio.run(scenario())
        assert idle["ok"] and idle["queue_depth"] == 0
        assert idle["jobs_by_state"] == {}
        assert idle["running"] is None and idle["running_cell"] is None
        # after one real run + one fully resumed run
        assert busy["queue_depth"] == 0
        assert busy["jobs_by_state"] == {"done": 2}
        assert busy["running"] is None
        assert busy["skipped_cells_total"] == 2
        runtime = busy["percentiles"]["service.job_runtime_s"]
        assert runtime["count"] == 2
        assert runtime["p50"] is not None and runtime["p99"] is not None
        cell = busy["percentiles"]["grid.cell_runtime_s"]
        assert cell["count"] == 2  # two policies ran in the first job
        assert busy["metrics"]["counters"]["service.jobs_done"] == 2
        # the gauges reflect the state at scrape time
        assert busy["metrics"]["gauges"]["service.queue_depth"] == 0

    def test_jobs_share_read_only_traces_through_the_memo(self, tmp_path, monkeypatch):
        """Three jobs on one (benchmark, length, seed) build the trace
        once. A job that writes into the shared trace fails with
        ``ValueError`` and leaves the next job's input intact: its stats
        equal a memo-free run's."""
        from repro.service import scheduler

        real_llc_cells = scheduler.llc_cells

        def mutating_llc_cells(trace, *args):
            trace.addresses[0] += 1
            return real_llc_cells(trace, *args)

        root = tmp_path / "svc"

        async def scenario():
            service = SweepService(root, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(root)) as client:
                        warm, _ = _submit_and_wait(client, self._spec(namespace="warm"))
                        monkeypatch.setattr(scheduler, "llc_cells", mutating_llc_cells)
                        try:
                            bad, _ = _submit_and_wait(client, self._spec(namespace="bad"))
                        finally:
                            monkeypatch.setattr(scheduler, "llc_cells", real_llc_cells)
                        good, _ = _submit_and_wait(client, self._spec(namespace="good"))
                        return warm, bad, good, client.stats()

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        warm, bad, good, stats = asyncio.run(scenario())
        assert warm["state"] == "done" and good["state"] == "done"
        assert bad["state"] == "failed"
        assert bad["error"].startswith("ValueError") and "read-only" in bad["error"]
        assert stats["trace_memo"]["misses"] == 1
        assert stats["trace_memo"]["hits"] == 2
        assert stats["trace_memo"]["entries"] == 1
        assert stats["trace_memo"]["bytes"] == 3 * 8 * 2000
        gauges = stats["metrics"]["gauges"]
        for name, value in stats["trace_memo"].items():
            assert gauges[f"workloads.trace_memo.{name}"] == value

        # the same job outside any daemon: no memo, a fresh trace
        scheduler.execute_spec(self._spec(), tmp_path / "fresh")

        def cell_stats(directory):
            return {
                m.label: m.stats
                for m in scan_manifests(directory).manifests
                if m.kind == "llc"
            }

        fresh = cell_stats(tmp_path / "fresh")
        assert sorted(fresh) == ["fifo", "lru"]
        assert cell_stats(root / "namespaces" / "good") == fresh
        assert cell_stats(root / "namespaces" / "warm") == fresh

    def test_jobs_listing_carries_queue_wait_and_runtime(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        _submit_and_wait(client, self._spec())
                        return client.jobs()

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        jobs = asyncio.run(scenario())
        (job,) = jobs
        assert job["queue_wait_s"] is not None and job["queue_wait_s"] >= 0.0
        assert job["runtime_s"] is not None and job["runtime_s"] > 0.0


@pytest.mark.slow
class TestServiceProcess:
    """Black-box daemon lifecycle over a real subprocess: SIGTERM
    mid-sweep, restart, resume — the CI smoke scenario."""

    def _serve(self, root: Path) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root)],
            env=env,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
        )
        deadline = time.monotonic() + 15
        sock = service_socket(root)
        while time.monotonic() < deadline and not sock.exists():
            time.sleep(0.1)
        assert sock.exists(), "daemon did not bind its socket"
        return proc

    def test_sigterm_restart_resume(self, tmp_path):
        spec = SweepSpec(
            benchmark="429.mcf",
            length=250_000,
            engine="reference",  # slow on purpose: survivable mid-kill
            policies=["lru", "fifo", "random", "srrip", "drrip", "pdp"],
            namespace="smoke",
        )
        proc = self._serve(tmp_path)
        try:
            with ServiceClient(service_socket(tmp_path)) as client:
                job = client.submit(spec.to_dict())
            # let some — but not all — cells complete, then kill
            ns = tmp_path / "namespaces" / "smoke"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(list(ns.glob("*.json"))) >= 2:
                    break
                time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        record = json.loads(
            (tmp_path / "jobs" / f"{job['job_id']}.json").read_text()
        )
        partial_cells = len(
            [m for m in scan_manifests(ns).manifests if m.kind == "llc"]
        )
        if record["state"] == "done":
            pytest.skip("machine too fast: sweep finished before SIGTERM")
        assert record["state"] == "queued" and record["interrupted"]
        assert 0 < partial_cells < len(spec.policies)

        proc = self._serve(tmp_path)
        try:
            with ServiceClient(service_socket(tmp_path), timeout=300) as client:
                responses = list(client.watch(job["job_id"]))
            done = responses[-1]["done"]
            assert done["state"] == "done"
            assert done["skipped_cells"] == partial_cells
            assert done["skipped_cells"] + done["ran_cells"] == len(spec.policies)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestPredictTier:
    """The analytical fast-forward tier: predict specs, resume-skip,
    and auto-submitted follow-up simulation jobs."""

    def _spec(self, **overrides) -> SweepSpec:
        base = dict(
            kind="predict",
            benchmark="403.gcc",
            length=4000,
            namespace="t",
            explore_sets=[16, 32, 64],
            explore_ways=[2, 4],
            pd_max=64,
            pd_step=8,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_spec_validation(self):
        self._spec().validate()
        with pytest.raises(SpecError, match="exactly one"):
            self._spec(benchmark=None).validate()
        with pytest.raises(SpecError, match="no policies"):
            self._spec(policies=["lru"]).validate()
        with pytest.raises(SpecError, match="powers of two"):
            self._spec(explore_sets=[48]).validate()
        with pytest.raises(SpecError, match="positive ints"):
            self._spec(explore_ways=[0]).validate()
        with pytest.raises(SpecError, match="positive ints"):
            self._spec(explore_sets=[True]).validate()
        with pytest.raises(SpecError, match="top_k"):
            self._spec(top_k=-1).validate()
        # round-trips through the wire format
        SweepSpec.from_dict(self._spec().to_dict()).validate()

    def test_execute_predict_with_resume_and_followups(self, tmp_path):
        from repro.service.scheduler import execute_spec

        events: list = []
        spec = self._spec(top_k=2)
        first = execute_spec(spec, tmp_path, on_event=events.append)
        assert first["kind"] == "predict"
        assert first["ran_cells"] == 1 and first["skipped_cells"] == 0
        assert first["frontier"] and len(first["followups"]) == 2
        manifests = scan_manifests(tmp_path).manifests
        assert sorted(m.kind for m in manifests) == ["explore", "predict"]

        # identical spec resumes from the manifest (no second profiling)
        second = execute_spec(
            SweepSpec.from_dict(spec.to_dict()), tmp_path, on_event=events.append
        )
        assert second["ran_cells"] == 0 and second["skipped_cells"] == 1
        assert second["frontier"] == first["frontier"]
        assert [e.kind for e in events] == ["started", "finished", "skipped"]

        # a different design space is a different cell: it re-runs
        third = execute_spec(self._spec(pd_step=16), tmp_path)
        assert third["ran_cells"] == 1

        # follow-ups are valid single-cell matrix specs pinned to the
        # predict pass's exact trace (same fingerprint after num_sets
        # changes geometry)
        followup = SweepSpec.from_dict(first["followups"][0])
        followup.validate()
        assert followup.kind == "matrix"
        assert followup.trace_num_sets == spec.num_sets
        assert followup.policies[0]["name"] == "pdp"
        assert followup.policies[0]["kwargs"]["bypass"] is True

    def test_match_git_sha_gates_predict_resume(self, tmp_path):
        from repro.service.scheduler import execute_spec

        execute_spec(self._spec(), tmp_path)
        # forge the recorded SHA: the pass must re-run under matching
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            if data.get("kind") == "explore":
                data["git_sha"] = "0" * 40
                path.write_text(json.dumps(data))
        relaxed = execute_spec(self._spec(), tmp_path)
        # default: SHA not part of the identity
        assert relaxed["skipped_cells"] == 1 and relaxed["ran_cells"] == 0
        strict = execute_spec(self._spec(match_git_sha=True), tmp_path)
        assert strict["skipped_cells"] == 0 and strict["ran_cells"] == 1

    def test_match_git_sha_resumes_predict_at_same_head(self, tmp_path):
        """The explore manifest records HEAD like every other kind, so a
        strict resubmit at the same HEAD skips the pass."""
        from repro.service.scheduler import execute_spec

        first = execute_spec(self._spec(match_git_sha=True), tmp_path)
        assert first["ran_cells"] == 1
        again = execute_spec(self._spec(match_git_sha=True), tmp_path)
        assert again["skipped_cells"] == 1 and again["ran_cells"] == 0

    def test_null_config_explore_manifest_reruns(self, tmp_path):
        """A parseable explore manifest whose ``config`` is null holds no
        design space: it satisfies no predict cell, so the pass re-runs."""
        from repro.service.scheduler import execute_spec

        execute_spec(self._spec(), tmp_path)
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            if data.get("kind") == "explore":
                data["config"] = None
                path.write_text(json.dumps(data))
        rerun = execute_spec(self._spec(), tmp_path)
        assert rerun["skipped_cells"] == 0 and rerun["ran_cells"] == 1

    def test_failed_pass_leaves_sweep_manifest_and_reruns(self, tmp_path, monkeypatch):
        """A failing explore pass propagates after the grid writes its
        ``kind="predict"`` sweep manifest with the failure and a
        ``cell:explore`` span; a resubmit then runs the pass."""
        import repro.explore.explorer as explorer
        from repro.obs.spans import SPANS_FILENAME, read_spans
        from repro.service.scheduler import execute_spec

        def exploding_explore(*args, **kwargs):
            raise RuntimeError("injected explore failure")

        monkeypatch.setattr(explorer, "explore", exploding_explore)
        with pytest.raises(RuntimeError, match="injected explore failure"):
            execute_spec(self._spec(), tmp_path)
        (sweep,) = scan_manifests(tmp_path).manifests
        assert sweep.kind == "predict"
        assert [f.key for f in sweep.failures] == ["explore"]
        (span,) = [
            s for s in read_spans(tmp_path / SPANS_FILENAME)
            if s["name"] == "cell:explore"
        ]
        assert span["attributes"]["status"] == "failed"

        monkeypatch.undo()
        rerun = execute_spec(self._spec(), tmp_path)
        assert rerun["skipped_cells"] == 0 and rerun["ran_cells"] == 1

    def test_daemon_runs_predict_and_auto_submits_followups(self, tmp_path):
        async def scenario():
            service = SweepService(tmp_path, install_signal_handlers=False)
            await service.start()
            try:
                def client_side():
                    with ServiceClient(service_socket(tmp_path)) as client:
                        done, events = _submit_and_wait(
                            client, self._spec(top_k=1)
                        )
                        deadline = time.monotonic() + 60
                        while time.monotonic() < deadline:
                            jobs = client.jobs()
                            if len(jobs) == 2 and all(
                                j["state"] == "done" for j in jobs
                            ):
                                break
                            time.sleep(0.05)
                        return done, events, client.jobs()

                return await asyncio.to_thread(client_side)
            finally:
                await service.stop()

        done, events, jobs = asyncio.run(scenario())
        assert done["state"] == "done"
        followup_events = [e for e in events if e["kind"] == "followup"]
        assert len(followup_events) == 1
        assert len(jobs) == 2 and all(j["state"] == "done" for j in jobs)
        child = next(
            j for j in jobs if j["job_id"] == followup_events[0]["job_id"]
        )
        assert child["spec"]["kind"] == "matrix"
        manifests = scan_manifests(tmp_path / "namespaces" / "t").manifests
        kinds = sorted(m.kind for m in manifests)
        assert "explore" in kinds and "llc" in kinds
        explore_manifest = next(m for m in manifests if m.kind == "explore")
        llc = next(m for m in manifests if m.kind == "llc")
        # the join key of the prediction-error report holds end to end
        assert llc.trace_fingerprint == explore_manifest.trace_fingerprint
