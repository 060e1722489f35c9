"""The JSON shape of every manifest kind.

Resume, ``repro obs report``, the sweep daemon and the benchmark read
manifests written by six entry points. This file pins, for each kind,
the top-level keys and the key sets of ``stats``, ``metrics``,
``config`` and ``extra``, plus the fields every writer must fill the
same way: ``git_sha``, ``seed`` (lifted out of ``run_meta``) and
``accesses_per_sec``. Grids are checked with their cells' manifests.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.explore.explorer import ExploreCell, design_space, explore
from repro.memory.cache import CacheGeometry
from repro.obs.manifest import git_sha
from repro.obs.metrics import METRICS
from repro.policies.lru import LRUPolicy
from repro.sim.multi_core import run_shared_llc
from repro.sim.parallel import run_cells, run_matrix, run_mix_matrix
from repro.sim.single_core import run_llc
from repro.swcache.driver import run_object_cache
from repro.swcache.policies import SizeAwareLRUPolicy
from repro.traces.trace import Trace

GEOMETRY = CacheGeometry(num_sets=16, ways=4)

TOP_LEVEL = {
    "accesses",
    "accesses_per_sec",
    "config",
    "created_at",
    "engine",
    "extra",
    "failures",
    "git_sha",
    "kind",
    "label",
    "metrics",
    "policy",
    "run_id",
    "schema_version",
    "seed",
    "stats",
    "tasks",
    "timeseries",
    "trace_fingerprint",
    "wall_time_s",
    "workload",
}
GEOMETRY_CONFIG = {"num_sets", "ways", "line_size"}
EXPLORE_CONFIG = {
    "sets", "ways", "pd_max", "pd_step", "d_max", "line_size", "model_variant",
}

GRID_CONFIG = {"workers_requested", "workers_effective"}

#: kind -> (stats keys, metrics keys, config keys, extra keys); the
#: extra keys of a run that takes ``run_meta`` are its non-seed keys,
#: checked in ``test_run_meta_seed_is_lifted``.
SHAPES = {
    "llc": (
        {"accesses", "hits", "misses", "bypasses", "evictions", "instructions"},
        {"hit_rate", "mpki", "ipc", "bypass_fraction"},
        GEOMETRY_CONFIG,
        None,
    ),
    "shared_llc": (
        {"threads", "singles"},
        {"weighted", "throughput", "hmean"},
        GEOMETRY_CONFIG | {"threads"},
        None,
    ),
    "objectstore": (
        {
            "accesses", "hits", "misses", "bypasses", "evictions", "fills",
            "expirations", "invalidations", "writes", "bytes_requested",
            "bytes_hit", "bytes_missed", "bytes_admitted", "bytes_evicted",
        },
        {"hit_rate", "byte_hit_rate", "bypass_fraction"},
        {"capacity_bytes", "ttl"},
        None,
    ),
    "explore": (
        {"geometries", "points", "unique_blocks", "total_reuses"},
        {"best_hit_rate", "elapsed_s"},
        EXPLORE_CONFIG,
        {"profile", "predictions", "frontier"},
    ),
    "matrix": (set(), set(), GEOMETRY_CONFIG | GRID_CONFIG, set()),
    "mix_matrix": (set(), set(), GEOMETRY_CONFIG | GRID_CONFIG | {"mixes"}, set()),
    "predict": (set(), set(), EXPLORE_CONFIG | GRID_CONFIG, set()),
}


def _trace(seed: int, n: int = 1500) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(rng.integers(0, 400, size=n) * 64, name=f"shape-{seed}")


def _write_every_kind(root: Path) -> None:
    """One run of every manifest-writing entry point, each into its own
    subdirectory of ``root``."""
    run_llc(
        _trace(1), LRUPolicy(), GEOMETRY, manifest_dir=root / "llc",
        run_label="lru", run_meta={"seed": 3, "note": "llc"}, window_size=500,
    )
    run_shared_llc(
        [_trace(2), _trace(3)], LRUPolicy(), GEOMETRY, name="mix",
        manifest_dir=root / "shared_llc",
        run_meta={"seed": 4, "note": "shared"}, window_size=500,
    )
    run_object_cache(
        _trace(4), SizeAwareLRUPolicy(), 4096, ttl=50.0,
        manifest_dir=root / "objectstore",
        run_meta={"seed": 5, "note": "obj"}, window_size=500,
    )
    explore(_trace(5), sets=[16], ways=[4], pd_max=32, pd_step=8,
            manifest_dir=root / "explore", run_label="solo")
    run_matrix(_trace(6), {"lru": LRUPolicy}, GEOMETRY, max_workers=1,
               manifest_dir=root / "matrix")
    run_mix_matrix({"m0": [_trace(7), _trace(8)]}, {"lru": LRUPolicy},
                   GEOMETRY, max_workers=1, manifest_dir=root / "mix_matrix")
    space = design_space(sets=[16], ways=[4], pd_max=32, pd_step=8)
    trace = _trace(9)
    predict_dir = str(root / "predict")
    run_cells(
        "predict",
        [ExploreCell(trace.name, space, predict_dir, accesses=len(trace))],
        trace, max_workers=1, manifest_dir=predict_dir,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """``{entry point: {kind: [raw JSON document, ...]}}`` of one run of
    every writer (a grid's directory also holds its cells' manifests)."""
    root = tmp_path_factory.mktemp("shapes")
    enabled = METRICS.enabled
    METRICS.enabled = False
    try:
        _write_every_kind(root)
    finally:
        METRICS.enabled = enabled
    runs: dict = {}
    for path in sorted(root.glob("*/*.json")):
        document = json.loads(path.read_text())
        runs.setdefault(path.parent.name, {}).setdefault(
            document["kind"], []
        ).append(document)
    return runs


def _documents(runs: dict, kind: str) -> list[dict]:
    """Every manifest of ``kind`` across all entry points' directories."""
    return [d for by_kind in runs.values() for d in by_kind.get(kind, [])]


def _only(runs: dict, entry: str) -> dict:
    """The one manifest an entry point wrote of its own kind."""
    (document,) = runs[entry][entry]
    return document


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_manifest_shape(runs, kind):
    stats, metrics, config, extra = SHAPES[kind]
    documents = _documents(runs, kind)
    assert documents, f"no {kind} manifest written"
    for document in documents:
        assert set(document) == TOP_LEVEL
        assert set(document["stats"]) == stats
        assert set(document["metrics"]) == metrics
        assert set(document["config"]) == config
        if extra is not None:
            assert set(document["extra"]) == extra


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_manifest_common_fields(runs, kind):
    """``accesses_per_sec`` is accesses over wall time; ``git_sha`` is
    HEAD (explore manifests are pinned by the resume test in
    ``test_service.py``)."""
    for document in _documents(runs, kind):
        wall = document["wall_time_s"]
        expected = document["accesses"] / wall if wall > 0 else 0.0
        assert document["accesses_per_sec"] == expected
        assert document["accesses"] > 0
        if kind != "explore":
            assert document["git_sha"] == git_sha()


def test_run_meta_seed_is_lifted(runs):
    """A ``seed`` key in ``run_meta`` becomes the manifest's ``seed``;
    the rest of ``run_meta`` lands in ``extra``. Grid cells pass no
    ``run_meta``."""
    seeds = {"llc": (3, "llc"), "shared_llc": (4, "shared"), "objectstore": (5, "obj")}
    for kind, (seed, note) in seeds.items():
        document = _only(runs, kind)
        assert document["seed"] == seed
        assert document["extra"] == {"note": note}
        assert document["timeseries"]["window_size"] == 500
    for entry, kind in (("matrix", "llc"), ("mix_matrix", "shared_llc")):
        (cell,) = runs[entry][kind]
        assert cell["seed"] is None and cell["extra"] == {}
        assert cell["timeseries"] == {}
    for kind in ("explore", "matrix", "mix_matrix", "predict"):
        for document in _documents(runs, kind):
            assert document["seed"] is None
            assert document["timeseries"] == {}


def test_labels_and_engines(runs):
    llc = _only(runs, "llc")
    assert (llc["label"], llc["policy"], llc["engine"]) == ("lru", "LRUPolicy", "vector")
    obj = _only(runs, "objectstore")
    assert (obj["label"], obj["engine"]) == (obj["policy"], "swcache")
    shared = _only(runs, "shared_llc")
    assert (shared["label"], shared["workload"]) == (None, "mix")
    assert _only(runs, "explore")["label"] == "solo"
    (cell,) = runs["predict"]["explore"]
    assert (cell["label"], cell["engine"]) == ("explore", "analytic")
    (cell,) = runs["matrix"]["llc"]
    assert cell["label"] == "lru"
    (cell,) = runs["mix_matrix"]["shared_llc"]
    assert cell["label"] == str(("m0", "lru"))
    for kind in ("matrix", "mix_matrix", "predict"):
        sweep = _only(runs, kind)
        assert sweep["label"] is None and sweep["extra"] == {}
        assert [t["status"] for t in sweep["tasks"]] == ["finished"]
