"""Self-test of the benchmark: ``python -m pytest bench/``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402


def test_smoke_output_names_every_metric_with_its_unit(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(tmp_path / "set.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {}
    for line in lines[:-1]:
        workload, metric, _value, unit, *_ = line.split()
        printed[workload, metric] = unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert printed.get((workload["name"], metric["name"])) == metric["unit"], (
                workload["name"], metric["name"],
            )


def test_a_kernel_that_drops_one_hit_fails_the_check(monkeypatch, tmp_path):
    import repro.sim.single_core as single_core

    kernel = single_core.run_trace_vector

    def drops_one_hit(cache, trace, *args, **kwargs):
        kernel(cache, trace, *args, **kwargs)
        if cache.stats.hits:
            # Keeps hits + misses == accesses: only the reference
            # engine comparison can see it.
            cache.stats.hits -= 1
            cache.stats.misses += 1

    monkeypatch.setattr(single_core, "run_trace_vector", drops_one_hit)
    record = harness.run_workload("llc-single", 0, 0.0, False, True, tmp_path)
    assert not record["correct"]
    assert record["failed"] >= 1
    assert any(failure.startswith("reference engine") for failure in record["failures"])


def _result_set(path: Path, wall_s: list[float], digest: str) -> Path:
    runs = [
        {
            "workload": "w",
            "seed": seed,
            "sim_digest": digest,
            "end_to_end": {"wall_s": wall, "sim_hit_rate": 0.5},
        }
        for seed, wall in enumerate(wall_s)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_verdicts(tmp_path):
    spec = {
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "sim_hit_rate", "unit": "fraction", "better": "higher", "bound": 0.1},
        ]
    }
    parent = [1.0 + 0.001 * i for i in range(10)]
    a = _result_set(tmp_path / "a.json", parent, "d1")

    def verdict_of(b_walls, digest="d1"):
        b = _result_set(tmp_path / "b.json", b_walls, digest)
        lines, ok = compare.compare(a, b, spec)
        row = next(line for line in lines if " wall_s " in line)
        return row.split()[-1], ok

    assert verdict_of(parent) == ("same", True)
    assert verdict_of([0.8 * x for x in parent]) == ("better", True)
    assert verdict_of([1.3 * x for x in parent]) == ("worse", False)
    noisy = [0.5 if i % 2 else 1.5 for i in range(10)]
    assert verdict_of(noisy) == ("unresolved", False)
    assert verdict_of(parent, digest="d2")[1] is False
