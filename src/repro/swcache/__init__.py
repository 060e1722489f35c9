"""Software object caches: PDP-style protection beyond the LLC.

The paper's protecting-distance idea is not hardware-specific: an
object/CDN cache also wants to keep an object resident exactly until
its predicted reuse and to bypass objects whose reuse lies beyond what
the budget can hold. This package models that tier:

- :mod:`repro.swcache.model` — :class:`ObjectCache`, a variable-size,
  byte-budget cache with TTL expiry, one batched request loop
  (:meth:`ObjectCache.replay` over a trace slice's columns;
  :meth:`ObjectCache.access` is a one-row replay) and an explicit
  admission / eviction-plan policy seam (:class:`SoftwareCachePolicy`:
  ``admit`` gates a fill, ``victims`` returns the whole victim list or
  None to refuse);
- :mod:`repro.swcache.policies` — size-aware LRU, GDSF, TinyLFU
  admission, and the PDP-style :class:`PDPProtectionPolicy` built on
  the same :func:`repro.core.hit_rate_model.find_best_pd` model as the
  hardware simulators;
- :mod:`repro.swcache.driver` — :func:`run_object_cache`, the
  streaming driver (one ``replay`` per slice, O(chunk) memory, windowed
  time-series with a byte axis, provenance manifests).

``repro experiment objectstore`` compares the policy families end to
end; ``docs/SCENARIOS.md`` is the narrative guide.
"""

from repro.traces.objects import OP_DELETE, OP_GET, OP_HEAD, OP_PUT
from repro.swcache.driver import ObjectCacheResult, run_object_cache
from repro.swcache.model import (
    CacheEntry,
    ObjectCache,
    ObjectCacheStats,
    SoftwareCachePolicy,
)
from repro.swcache.policies import (
    GDSFPolicy,
    PDPProtectionPolicy,
    SOFTWARE_POLICIES,
    SizeAwareLRUPolicy,
    TinyLFUAdmissionPolicy,
    make_software_policy,
)

__all__ = [
    "OP_DELETE",
    "OP_GET",
    "OP_HEAD",
    "OP_PUT",
    "CacheEntry",
    "GDSFPolicy",
    "ObjectCache",
    "ObjectCacheResult",
    "ObjectCacheStats",
    "PDPProtectionPolicy",
    "SOFTWARE_POLICIES",
    "SizeAwareLRUPolicy",
    "SoftwareCachePolicy",
    "TinyLFUAdmissionPolicy",
    "make_software_policy",
    "run_object_cache",
]
