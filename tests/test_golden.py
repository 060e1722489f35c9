"""Golden-result drift tripwire.

Recomputes the pinned (policy x workload) grid and compares it against
``tests/golden/single_core.json``. A mismatch fails with a readable
per-cell diff naming every drifted number — if the drift is an
*intended* behavior change, regenerate the fixture:

    PYTHONPATH=src python tools/regen_golden.py

and commit it with the change. The grid definition lives in
``tools/regen_golden.py`` (single source of truth: the test imports the
tool, so the fixture and the check can never disagree about what is
pinned).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "single_core.json"
OBJECTSTORE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "objectstore.json"
TRACE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "traces.json"
REGEN_PATH = REPO_ROOT / "tools" / "regen_golden.py"


def _load_regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", REGEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; run "
        "`PYTHONPATH=src python tools/regen_golden.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def recomputed() -> dict:
    return _load_regen_module().compute_golden()


def _diff(expected: dict, got: dict) -> list[str]:
    """Readable per-cell drift lines (empty when identical)."""
    lines: list[str] = []
    for name in sorted(set(expected["trace_fingerprints"]) | set(got["trace_fingerprints"])):
        want = expected["trace_fingerprints"].get(name)
        have = got["trace_fingerprints"].get(name)
        if want != have:
            lines.append(f"  workload {name}: fingerprint {want} -> {have}")
    for cell in sorted(set(expected["cells"]) | set(got["cells"])):
        want = expected["cells"].get(cell)
        have = got["cells"].get(cell)
        if want is None:
            lines.append(f"  cell {cell}: new (not in fixture)")
            continue
        if have is None:
            lines.append(f"  cell {cell}: gone (in fixture, not recomputed)")
            continue
        for field in sorted(set(want) | set(have)):
            if want.get(field) != have.get(field):
                lines.append(
                    f"  cell {cell}: {field} {want.get(field)} -> {have.get(field)}"
                )
    return lines


def test_golden_grid_has_not_drifted(golden, recomputed):
    drift = _diff(golden, recomputed)
    assert not drift, (
        "golden results drifted (fixture -> recomputed):\n"
        + "\n".join(drift)
        + "\n\nIf this change is intended, regenerate with "
        "`PYTHONPATH=src python tools/regen_golden.py` and commit the fixture."
    )


def test_golden_fixture_covers_every_pinned_cell(golden):
    regen = _load_regen_module()
    workloads = sorted(regen._workloads())
    expected_cells = {
        f"{workload}/{policy}" for workload in workloads for policy in regen.POLICIES
    }
    assert set(golden["cells"]) == expected_cells
    assert set(golden["trace_fingerprints"]) == set(workloads)


@pytest.fixture(scope="module")
def objectstore_golden() -> dict:
    assert OBJECTSTORE_GOLDEN_PATH.exists(), (
        f"missing golden fixture {OBJECTSTORE_GOLDEN_PATH}; run "
        "`PYTHONPATH=src python tools/regen_golden.py`"
    )
    return json.loads(OBJECTSTORE_GOLDEN_PATH.read_text())


def test_objectstore_golden_has_not_drifted(objectstore_golden):
    """The seeded software-cache grid (workload generator, object-cache
    model, all four policy families, TTL expiry, byte counters) must
    reproduce the pinned fixture exactly."""
    regen = _load_regen_module()
    recomputed = regen.compute_objectstore_golden()
    drift: list[str] = []
    if recomputed["trace_fingerprint"] != objectstore_golden["trace_fingerprint"]:
        drift.append(
            "  stream fingerprint "
            f"{objectstore_golden['trace_fingerprint']} -> "
            f"{recomputed['trace_fingerprint']}"
        )
    for cell in sorted(
        set(objectstore_golden["cells"]) | set(recomputed["cells"])
    ):
        want = objectstore_golden["cells"].get(cell)
        have = recomputed["cells"].get(cell)
        if want is None or have is None:
            drift.append(f"  cell {cell}: fixture/recompute mismatch")
            continue
        for field in sorted(set(want) | set(have)):
            if want.get(field) != have.get(field):
                drift.append(
                    f"  cell {cell}: {field} {want.get(field)} -> {have.get(field)}"
                )
    assert not drift, (
        "objectstore golden results drifted (fixture -> recomputed):\n"
        + "\n".join(drift)
        + "\n\nIf this change is intended, regenerate with "
        "`PYTHONPATH=src python tools/regen_golden.py` and commit the fixture."
    )


def test_objectstore_golden_covers_every_pinned_policy(objectstore_golden):
    regen = _load_regen_module()
    assert set(objectstore_golden["cells"]) == set(regen.SWCACHE_POLICIES)
    # The fixture must exercise both removal paths somewhere in the grid.
    cells = objectstore_golden["cells"].values()
    assert any(cell["expirations"] for cell in cells)
    assert any(cell["bypasses"] for cell in cells)


def test_windowed_sums_match_golden_aggregates(golden):
    """Per-window counter sums must equal the pinned golden aggregates —
    the windowed recorder is a decomposition of the same run, not a
    second measurement."""
    from repro.memory.cache import CacheGeometry
    from repro.obs.timeseries import windows_from_payload
    from repro.policies.base import make_policy
    from repro.sim.single_core import run_llc

    regen = _load_regen_module()
    geometry = CacheGeometry(num_sets=16, ways=8)
    for workload_name, trace in sorted(regen._workloads().items()):
        for policy_name in regen.POLICIES:
            result = run_llc(
                trace, make_policy(policy_name), geometry,
                window_size=700,  # partial tail
            )
            windows = windows_from_payload(result.extra["timeseries"])
            pinned = golden["cells"][f"{workload_name}/{policy_name}"]
            for field in ("accesses", "hits", "misses", "bypasses", "evictions"):
                total = sum(getattr(w, field) for w in windows)
                assert total == pinned[field], (
                    f"{workload_name}/{policy_name}: windowed {field} sum "
                    f"{total} != golden aggregate {pinned[field]}"
                )


@pytest.fixture(scope="module")
def trace_golden() -> dict:
    assert TRACE_GOLDEN_PATH.exists(), (
        f"missing golden fixture {TRACE_GOLDEN_PATH}; run "
        "`PYTHONPATH=src python tools/regen_golden.py`"
    )
    return json.loads(TRACE_GOLDEN_PATH.read_text())


def test_trace_golden_has_not_drifted(trace_golden):
    """The trace generator's exact output — every SPEC-like profile over
    several set counts and seeds, the phased workloads, and non-default
    history depth and retries — must match the pinned fingerprints."""
    recomputed = _load_regen_module().compute_trace_golden()
    want_all = trace_golden["fingerprints"]
    have_all = recomputed["fingerprints"]
    drift = [
        f"  trace {key}: fingerprint {want_all.get(key)} -> {have_all.get(key)}"
        for key in sorted(set(want_all) | set(have_all))
        if want_all.get(key) != have_all.get(key)
    ]
    assert recomputed["config"] == trace_golden["config"]
    assert not drift, (
        "trace generator output drifted (fixture -> recomputed):\n"
        + "\n".join(drift)
        + "\n\nAn intended change must bump TRACE_GENERATOR_VERSION, then "
        "regenerate with `PYTHONPATH=src python tools/regen_golden.py`."
    )


def test_trace_golden_covers_every_pinned_config(trace_golden):
    from repro.workloads import SPEC_LIKE_PROFILES

    regen = _load_regen_module()
    expected = {
        f"{name}/sets={num_sets}/seed={seed}"
        for name in SPEC_LIKE_PROFILES
        for num_sets in (1, 16, 64, 1024)
        for seed in ("default", 0, 12345)
    }
    expected |= {
        f"phased/{name}"
        for name in ("403.gcc", "429.mcf", "450.soplex", "482.sphinx3", "483.xalancbmk")
    }
    expected |= set(regen._custom_generators())
    assert set(trace_golden["fingerprints"]) == expected
