"""SPEC-CPU2006-like RDD profiles (the paper's 16 LLC-stressing benchmarks).

Each profile is tuned to the qualitative behaviour the paper reports —
best static PDs (Appendix A / Sec. 2.3), bypass sensitivity, LRU
friendliness, streaming, PC-predictability — positioned relative to the
default experiment geometry (W = 16, d_max = 256):

- ``436.cactusADM``: dominant reuse peak near RD 72-76, just covered by a
  PD around the paper's 72/76; protecting past it pollutes.
- ``464.h264ref``: a protectable near peak plus a broad far band — the
  bypass-heavy benchmark (89% of misses bypass under SPDP-B).
- ``429.mcf``: mostly dead-on-arrival lines (best with PD = 1 inserts).
- ``462.libquantum``: reuse peak at d_max exactly; PDP with n_c < 8
  cannot represent the PD and loses (Sec. 6.2).
- ``473.astar``: LRU-friendly, reuse below the associativity.
- ``433.milc / 459.GemsFDTD / 470.lbm``: streaming with huge RDs.
- ``437.leslie3d / 459.GemsFDTD``: PC-informative deadness (SDP wins).
- ``464.h264ref / 483.xalancbmk``: PC-misleading (SDP loses, Sec. 6.2).
- ``483.xalancbmk.1/.2/.3``: three phase windows with best PDs near
  100 / 88 / 124 (Sec. 2.3).
"""

from __future__ import annotations

import os

from repro.traces.trace import Trace
from repro.workloads.base import RDDProfile, band, fresh, peak
from repro.workloads.cache import cached_trace
from repro.workloads.synthetic import RDDProfileGenerator

#: Bump when RDDProfileGenerator or any profile changes output for the
#: same (name, length, num_sets, seed) — invalidates stale cache entries.
#: Any change that moves a fingerprint pinned in tests/golden/traces.json
#: (``test_golden.py``) changes that output and must bump this.
TRACE_GENERATOR_VERSION = 1


def _profile(name, components, pc_informative=True, ipa=20.0) -> RDDProfile:
    return RDDProfile(
        name=name,
        components=tuple(components),
        pc_informative=pc_informative,
        instructions_per_access=ipa,
    )


SPEC_LIKE_PROFILES: dict[str, RDDProfile] = {
    "403.gcc": _profile(
        "403.gcc",
        [peak(8, 4, 0.30), peak(40, 12, 0.22), band(64, 200, 0.08), fresh(0.40)],
    ),
    "429.mcf": _profile(
        "429.mcf",
        [peak(8, 4, 0.15), peak(192, 30, 0.10), fresh(0.75)],
    ),
    "433.milc": _profile(
        "433.milc",
        [peak(240, 14, 0.08), fresh(0.92)],
    ),
    "434.zeusmp": _profile(
        "434.zeusmp",
        [peak(12, 4, 0.42), peak(60, 10, 0.13), fresh(0.45)],
    ),
    "436.cactusADM": _profile(
        "436.cactusADM",
        [peak(8, 3, 0.10), peak(72, 8, 0.45), fresh(0.45)],
    ),
    # PC-informative: one load instruction (pc_group 1) brings blocks back
    # at both near and mid distances; the stream has its own dead PCs.
    # This is SDP's favourable case (Sec. 6.2).
    "437.leslie3d": _profile(
        "437.leslie3d",
        [
            band(4, 16, 0.25, pc_group=1),
            band(36, 64, 0.12, pc_group=1),
            fresh(0.63, pc_pool=2),
        ],
    ),
    # Near peak + beyond-W peak + scans: the RRIP-friendly mixture where
    # DRRIP clearly beats DIP (the paper's soplex/hmmer/xalancbmk.3).
    "450.soplex": _profile(
        "450.soplex",
        [peak(8, 2, 0.15), peak(24, 4, 0.35), fresh(0.50)],
    ),
    "456.hmmer": _profile(
        "456.hmmer",
        [peak(8, 2, 0.15), peak(36, 6, 0.35), fresh(0.50)],
    ),
    "459.GemsFDTD": _profile(
        "459.GemsFDTD",
        [
            band(4, 14, 0.12, pc_group=1),
            band(30, 44, 0.06, pc_group=1),
            fresh(0.82, pc_pool=2),
        ],
    ),
    "462.libquantum": _profile(
        "462.libquantum",
        [peak(253, 3, 0.38), fresh(0.62)],
    ),
    "464.h264ref": _profile(
        "464.h264ref",
        [peak(30, 8, 0.30), band(60, 250, 0.28), fresh(0.42)],
        pc_informative=False,
    ),
    "470.lbm": _profile(
        "470.lbm",
        [peak(8, 3, 0.08), fresh(0.92)],
    ),
    "471.omnetpp": _profile(
        "471.omnetpp",
        [peak(50, 12, 0.25), peak(220, 20, 0.15), fresh(0.60)],
    ),
    "473.astar": _profile(
        "473.astar",
        [peak(6, 3, 0.60), peak(30, 8, 0.10), fresh(0.30)],
    ),
    "482.sphinx3": _profile(
        "482.sphinx3",
        [peak(14, 5, 0.20), peak(90, 14, 0.35), fresh(0.45)],
    ),
    "483.xalancbmk.1": _profile(
        "483.xalancbmk.1",
        [peak(100, 14, 0.35), peak(20, 6, 0.15), fresh(0.50)],
        pc_informative=False,
    ),
    "483.xalancbmk.2": _profile(
        "483.xalancbmk.2",
        [peak(88, 10, 0.50), peak(16, 5, 0.10), fresh(0.40)],
        pc_informative=False,
    ),
    "483.xalancbmk.3": _profile(
        "483.xalancbmk.3",
        [peak(8, 2, 0.10), peak(124, 16, 0.28), band(40, 80, 0.12), fresh(0.50)],
        pc_informative=False,
    ),
}

#: The 16-benchmark single-core suite (one xalancbmk window, as in the
#: paper's averages: "results from only one window ... are used").
SINGLE_CORE_SUITE: tuple[str, ...] = (
    "403.gcc",
    "429.mcf",
    "433.milc",
    "434.zeusmp",
    "436.cactusADM",
    "437.leslie3d",
    "450.soplex",
    "456.hmmer",
    "459.GemsFDTD",
    "462.libquantum",
    "464.h264ref",
    "470.lbm",
    "471.omnetpp",
    "473.astar",
    "482.sphinx3",
    "483.xalancbmk.1",
)


def benchmark_names(include_windows: bool = True) -> list[str]:
    """All profile names, optionally with every xalancbmk window."""
    if include_windows:
        return sorted(SPEC_LIKE_PROFILES)
    return list(SINGLE_CORE_SUITE)


def benchmark_seed(name: str) -> int:
    """The default seed of a named profile: a stable hash of the name."""
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name)) % 100_000


def make_benchmark_trace(
    name: str,
    length: int = 60_000,
    num_sets: int = 64,
    seed: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> Trace:
    """Generate the trace for a named SPEC-like profile.

    The seed defaults to a stable hash of the name, so repeated calls give
    identical traces — experiments are reproducible end to end. With a
    cache directory configured (``cache_dir`` or $REPRO_TRACE_CACHE_DIR),
    generated traces are memoized to disk and later calls load them back
    byte-identically instead of regenerating.
    """
    try:
        profile = SPEC_LIKE_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(SPEC_LIKE_PROFILES))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
    if seed is None:
        seed = benchmark_seed(name)

    def produce() -> Trace:
        generator = RDDProfileGenerator(profile, num_sets=num_sets, seed=seed)
        return generator.generate(length)

    return cached_trace(
        "spec_like",
        {"name": name, "length": length, "num_sets": num_sets},
        seed,
        produce,
        version=TRACE_GENERATOR_VERSION,
        directory=cache_dir,
    )


__all__ = [
    "SINGLE_CORE_SUITE",
    "SPEC_LIKE_PROFILES",
    "TRACE_GENERATOR_VERSION",
    "benchmark_names",
    "benchmark_seed",
    "make_benchmark_trace",
]
