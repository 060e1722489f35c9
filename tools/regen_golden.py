#!/usr/bin/env python
"""Regenerate the golden result fixtures in ``tests/golden/``.

The golden grid pins exact statistics (hits, misses, evictions,
bypasses, instructions) and the trace content fingerprint for a fixed
set of (policy x workload x geometry) cells run through the fast-path
engine. ``tests/test_golden.py`` recomputes the grid on every CI run and
fails with a readable per-cell diff when any number drifts — the
tripwire for unintended behavior changes in the policies, the kernels,
or the workload generators.

Run after an *intended* behavior change:

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated ``tests/golden/single_core.json`` together with
the change that moved the numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "single_core.json"
OBJECTSTORE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "objectstore.json"
EXPLORE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "explore.json"
TRACE_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "traces.json"

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Policies pinned by the grid (constructor-default instantiations).
POLICIES = ("fifo", "lru", "srrip", "dip", "pdp", "pdp-classified", "ship")

#: Deterministic workloads pinned by the grid, keyed by cell name.
WORKLOAD_SEED = 1234


def _workloads():
    from repro.workloads.streams import (
        cyclic_loop,
        random_working_set,
        thrash_loop,
    )

    return {
        "cyclic": cyclic_loop(3_000, working_set=96),
        "random": random_working_set(3_000, working_set=256, seed=WORKLOAD_SEED),
        "thrash": thrash_loop(3_000, ways=8, num_sets=16, overshoot=2),
    }


def compute_golden() -> dict:
    """Run the full grid and return the JSON-native golden dict."""
    from repro.memory.cache import CacheGeometry
    from repro.obs.manifest import trace_fingerprint
    from repro.policies.base import make_policy
    from repro.sim.single_core import run_llc

    geometry = CacheGeometry(num_sets=16, ways=8)
    cells = {}
    for workload_name, trace in sorted(_workloads().items()):
        for policy_name in POLICIES:
            result = run_llc(trace, make_policy(policy_name), geometry)
            cells[f"{workload_name}/{policy_name}"] = {
                "accesses": result.accesses,
                "hits": result.hits,
                "misses": result.misses,
                "bypasses": result.bypasses,
                "evictions": result.evictions,
                "instructions": result.instructions,
            }
    fingerprints = {
        name: trace_fingerprint(trace)
        for name, trace in sorted(_workloads().items())
    }
    return {
        "geometry": {"num_sets": 16, "ways": 8, "line_size": 64},
        "trace_fingerprints": fingerprints,
        "cells": cells,
    }


#: Software-cache policies pinned by the objectstore grid.
SWCACHE_POLICIES = ("size-lru", "gdsf", "tinylfu", "pdp")

#: Objectstore grid workload parameters (seeded, fully deterministic).
OBJECTSTORE_ACCESSES = 20_000
OBJECTSTORE_SEED = 99
OBJECTSTORE_CAPACITY_BYTES = 8 * 1024 * 1024
OBJECTSTORE_TTL_MS = 8_000.0


def _object_stream():
    """The pinned seeded object-request stream (re-iterable)."""
    from repro.workloads.objectstore import make_object_stream

    return make_object_stream(
        OBJECTSTORE_ACCESSES,
        num_objects=2_000,
        seed=OBJECTSTORE_SEED,
        chunk_size=4_096,
    )


def compute_objectstore_golden() -> dict:
    """Run the software-cache grid and return the golden dict.

    Pins the full counter set (byte counters and TTL expirations
    included), PDP's final protecting distance, and the stream's
    content fingerprint — drift in the generator, the cache model, or
    any policy family fails the tripwire.
    """
    from repro.obs.manifest import FingerprintAccumulator
    from repro.swcache.driver import run_object_cache
    from repro.swcache.policies import make_software_policy

    stream = _object_stream()
    accumulator = FingerprintAccumulator()
    for chunk in stream.chunks():
        accumulator.update(chunk)
    cells = {}
    for policy_name in SWCACHE_POLICIES:
        kwargs = (
            {"max_pd": 8_192, "recompute_interval": 2_048}
            if policy_name == "pdp"
            else {}
        )
        result = run_object_cache(
            stream,
            make_software_policy(policy_name, **kwargs),
            OBJECTSTORE_CAPACITY_BYTES,
            ttl=OBJECTSTORE_TTL_MS,
        )
        stats = result.stats
        cells[policy_name] = {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "bypasses": stats.bypasses,
            "evictions": stats.evictions,
            "fills": stats.fills,
            "expirations": stats.expirations,
            "invalidations": stats.invalidations,
            "writes": stats.writes,
            "bytes_requested": stats.bytes_requested,
            "bytes_hit": stats.bytes_hit,
            "bytes_missed": stats.bytes_missed,
            "bytes_admitted": stats.bytes_admitted,
            "bytes_evicted": stats.bytes_evicted,
            "final_pd": result.extra.get("final_pd"),
        }
    return {
        "config": {
            "accesses": OBJECTSTORE_ACCESSES,
            "seed": OBJECTSTORE_SEED,
            "capacity_bytes": OBJECTSTORE_CAPACITY_BYTES,
            "ttl_ms": OBJECTSTORE_TTL_MS,
        },
        "trace_fingerprint": accumulator.digest(
            stream.name, stream.instructions_per_access
        ),
        "cells": cells,
    }


#: Explorer golden grid: one seeded benchmark, a small design space.
EXPLORE_BENCHMARK = "403.gcc"
EXPLORE_LENGTH = 8_000
EXPLORE_SETS = (16, 32, 64)
EXPLORE_WAYS = (2, 4, 8)
EXPLORE_PD_MAX = 128
EXPLORE_PD_STEP = 8


def compute_explore_golden() -> dict:
    """Run the pinned explorer grid and return the golden dict.

    Pins every predicted hit-rate curve (rounded to 9 decimal places,
    the manifest precision), the per-geometry best PD, the frontier
    flags, and the profile's content fingerprint. Drift in the profiler
    (RDD collection, per-set folding, arrival ranks), the rescaling, or
    the model itself fails the tripwire in ``tests/test_explore.py``
    with a per-geometry diff.
    """
    from repro.explore import explore
    from repro.workloads import make_benchmark_trace

    trace = make_benchmark_trace(EXPLORE_BENCHMARK, length=EXPLORE_LENGTH)
    result = explore(
        trace,
        sets=EXPLORE_SETS,
        ways=EXPLORE_WAYS,
        pd_max=EXPLORE_PD_MAX,
        pd_step=EXPLORE_PD_STEP,
    )
    cells = {
        f"{p.num_sets}x{p.ways}": {
            "pds": list(p.pds),
            "hit_rates": [round(h, 9) for h in p.hit_rates],
            "best_pd": p.best_pd,
            "best_hit_rate": round(p.best_hit_rate, 9),
            "confidence": p.confidence,
            "on_frontier": p.on_frontier,
        }
        for p in result.predictions
    }
    return {
        "config": {
            "benchmark": EXPLORE_BENCHMARK,
            "length": EXPLORE_LENGTH,
            "sets": list(EXPLORE_SETS),
            "ways": list(EXPLORE_WAYS),
            "pd_max": EXPLORE_PD_MAX,
            "pd_step": EXPLORE_PD_STEP,
        },
        "trace_fingerprint": result.profile_summary["fingerprint"],
        "profile": {
            "total_accesses": result.profile_summary["total_accesses"],
            "unique_blocks": result.profile_summary["unique_blocks"],
            "total_reuses": result.profile_summary["total_reuses"],
        },
        "cells": cells,
    }


#: Trace-generator pins: every SPEC-like profile over these set counts
#: and seeds (``None`` is the profile's own default seed), plus the
#: phased workloads and two non-default generator settings.
TRACE_LENGTH = 6_000
TRACE_SETS = (1, 16, 64, 1024)
TRACE_SEEDS = (None, 0, 12345)
TRACE_PHASE_LENGTH = 2_000


def _custom_generators():
    """The non-default generator settings pinned by the trace grid."""
    from repro.workloads import SPEC_LIKE_PROFILES, RDDProfileGenerator

    return {
        "custom/403.gcc/history_depth=5": RDDProfileGenerator(
            SPEC_LIKE_PROFILES["403.gcc"], num_sets=16, seed=7, history_depth=5
        ),
        "custom/464.h264ref/retries=1": RDDProfileGenerator(
            SPEC_LIKE_PROFILES["464.h264ref"], num_sets=16, seed=7, retries=1
        ),
    }


def compute_trace_golden() -> dict:
    """Fingerprint every pinned generator output; returns the golden dict.

    The generator's contract is its exact output for a given (profile,
    num_sets, seed, history_depth, retries): cached ``.trz`` entries
    and every other golden fixture rest on it. Any change that moves
    one of these fingerprints must bump ``TRACE_GENERATOR_VERSION``.
    """
    from repro.obs.manifest import trace_fingerprint
    from repro.workloads import SPEC_LIKE_PROFILES, RDDProfileGenerator
    from repro.workloads.phased import phase_changing_profiles
    from repro.workloads.spec_like import benchmark_seed

    fingerprints = {}
    for name, profile in sorted(SPEC_LIKE_PROFILES.items()):
        for num_sets in TRACE_SETS:
            for seed in TRACE_SEEDS:
                generator = RDDProfileGenerator(
                    profile,
                    num_sets=num_sets,
                    seed=benchmark_seed(name) if seed is None else seed,
                )
                label = "default" if seed is None else seed
                key = f"{name}/sets={num_sets}/seed={label}"
                fingerprints[key] = trace_fingerprint(generator.generate(TRACE_LENGTH))
    for name, workload in sorted(phase_changing_profiles(TRACE_PHASE_LENGTH).items()):
        fingerprints[f"phased/{name}"] = trace_fingerprint(workload.generate())
    for key, generator in _custom_generators().items():
        fingerprints[key] = trace_fingerprint(generator.generate(TRACE_LENGTH))
    return {
        "config": {
            "length": TRACE_LENGTH,
            "sets": list(TRACE_SETS),
            "seeds": ["default" if seed is None else seed for seed in TRACE_SEEDS],
            "phase_length": TRACE_PHASE_LENGTH,
        },
        "fingerprints": fingerprints,
    }


def main() -> int:
    golden = compute_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden['cells'])} cells to {GOLDEN_PATH}")
    objectstore = compute_objectstore_golden()
    OBJECTSTORE_GOLDEN_PATH.write_text(
        json.dumps(objectstore, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {len(objectstore['cells'])} cells to {OBJECTSTORE_GOLDEN_PATH}"
    )
    explore_golden = compute_explore_golden()
    EXPLORE_GOLDEN_PATH.write_text(
        json.dumps(explore_golden, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {len(explore_golden['cells'])} cells to {EXPLORE_GOLDEN_PATH}"
    )
    trace_golden = compute_trace_golden()
    TRACE_GOLDEN_PATH.write_text(
        json.dumps(trace_golden, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {len(trace_golden['fingerprints'])} fingerprints to "
        f"{TRACE_GOLDEN_PATH}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
