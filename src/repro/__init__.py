"""repro — reproduction of "Improving Cache Management Policies Using
Dynamic Reuse Distances" (Duong et al., MICRO 2012).

The package implements the Protecting Distance based Policy (PDP) with its
dynamic reuse-distance machinery, the PD-based shared-cache partitioning
policy, every baseline the paper compares against (LRU, DIP, DRRIP,
TA-DRRIP, EELRU, SDP, UCP, PIPP), and the full substrate: a set-associative
cache simulator, a three-level hierarchy, synthetic SPEC-like workload
generators with controlled reuse-distance distributions, an analytic
timing model, and hardware overhead/cycle models. Beyond the LLC,
:mod:`repro.swcache` applies the protecting-distance idea to
variable-size software caches (object/CDN tier) — see
``docs/SCENARIOS.md``.

Quickstart::

    from repro import (
        ExperimentConfig, PDPPolicy, make_benchmark_trace, run_llc,
    )

    config = ExperimentConfig()
    trace = make_benchmark_trace("436.cactusADM", num_sets=config.num_sets)
    result = run_llc(trace, PDPPolicy(), config.llc)
    print(result.mpki, result.ipc)
"""

from repro.core import (
    ClassifiedPDPPolicy,
    PDEngine,
    PDPPolicy,
    PrefetchAwarePDPPolicy,
    RDCounterArray,
    RDSampler,
    StreamPrefetcher,
    find_best_pd,
    find_pd_vector,
)
from repro.obs import (
    Manifest,
    ProgressReporter,
    load_manifests,
    scan_manifests,
    summarize_manifests,
)
from repro.memory import (
    CacheGeometry,
    CacheHierarchy,
    OccupancyTracker,
    SetAssociativeCache,
    TimingModel,
)
from repro.partitioning import PDPartitionPolicy, PIPPPolicy, UCPPolicy
from repro.policies import (
    BeladyPolicy,
    DIPPolicy,
    DRRIPPolicy,
    EELRUPolicy,
    LRUPolicy,
    SDPPolicy,
    TADRRIPPolicy,
    make_policy,
)
from repro.sim import (
    ExperimentConfig,
    run_llc,
    run_shared_llc,
)
from repro.swcache import (
    ObjectCache,
    PDPProtectionPolicy,
    make_software_policy,
    run_object_cache,
)
from repro.traces import ObjectTrace, Trace, reuse_distance_distribution
from repro.types import Access, AccessType
from repro.workloads import (
    RDDProfileGenerator,
    benchmark_names,
    generate_mixes,
    make_benchmark_trace,
    make_object_stream,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "AccessType",
    "BeladyPolicy",
    "CacheGeometry",
    "CacheHierarchy",
    "ClassifiedPDPPolicy",
    "DIPPolicy",
    "DRRIPPolicy",
    "EELRUPolicy",
    "ExperimentConfig",
    "LRUPolicy",
    "Manifest",
    "OccupancyTracker",
    "PDEngine",
    "PDPPolicy",
    "PDPartitionPolicy",
    "PIPPPolicy",
    "PrefetchAwarePDPPolicy",
    "ProgressReporter",
    "RDCounterArray",
    "RDDProfileGenerator",
    "RDSampler",
    "SDPPolicy",
    "SetAssociativeCache",
    "StreamPrefetcher",
    "TADRRIPPolicy",
    "TimingModel",
    "Trace",
    "UCPPolicy",
    "benchmark_names",
    "find_best_pd",
    "find_pd_vector",
    "generate_mixes",
    "load_manifests",
    "make_benchmark_trace",
    "make_policy",
    "reuse_distance_distribution",
    "run_llc",
    "run_shared_llc",
    "scan_manifests",
    "summarize_manifests",
]
