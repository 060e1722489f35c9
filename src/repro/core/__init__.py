"""The paper's primary contribution: Protecting Distance based Policy (PDP).

Exports the RD sampler, the RD counter array (dynamic RDD), the hit-rate
model E(d_p) (Eq. 1), the dynamic PD engine, the PDP replacement/bypass
policy, prefetch-aware variants, and the multi-core hit-rate model (Eq. 2).
"""

from repro.core.classified_pdp import ClassifiedPDPPolicy
from repro.core.hit_rate_model import (
    evaluate_e_curve,
    find_best_pd,
    find_peaks,
)
from repro.core.multicore_model import MulticoreHitRateModel, find_pd_vector
from repro.core.pd_engine import PDEngine
from repro.core.pdp_policy import PDPPolicy
from repro.core.prefetch import PrefetchAwarePDPPolicy, StreamPrefetcher
from repro.core.rdd import RDCounterArray
from repro.core.sampler import RDSampler

__all__ = [
    "ClassifiedPDPPolicy",
    "MulticoreHitRateModel",
    "PDEngine",
    "PDPPolicy",
    "PrefetchAwarePDPPolicy",
    "RDCounterArray",
    "RDSampler",
    "StreamPrefetcher",
    "evaluate_e_curve",
    "find_best_pd",
    "find_peaks",
    "find_pd_vector",
]
