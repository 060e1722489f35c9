"""Always-on sweep service: daemon, job store, resume scheduler, protocol.

The service layer turns the batch sweep runners
(:mod:`repro.sim.parallel`) into a long-running, resumable system:

- :mod:`repro.service.protocol` — line-delimited JSON over a unix
  socket; :class:`ServiceClient` is the synchronous client.
- :mod:`repro.service.jobs` — :class:`SweepSpec` (declarative sweep
  descriptions), :class:`JobRecord` lifecycle, :class:`JobStore` atomic
  persistence and restart recovery.
- :mod:`repro.service.scheduler` — the job bodies: run a spec through
  the resumable grid runner of :mod:`repro.sim.parallel`, which skips
  cells whose identity (config, trace fingerprint, engine, optional git
  SHA) matches an existing per-cell manifest, reconstructs their results
  bit-identically and runs only the remainder.
- :mod:`repro.service.server` — the :class:`SweepService` asyncio
  daemon behind ``repro serve`` / ``submit`` / ``jobs`` / ``watch``.

See ``docs/SERVICE.md`` for the lifecycle, wire protocol, and resume
rules.
"""

from repro.service.jobs import JobRecord, JobStore, SpecError, SweepSpec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceClient,
    service_socket,
)
from repro.service.scheduler import (
    CorruptManifestError,
    ResumePlan,
    execute_spec,
    run_resumable_matrix,
    run_resumable_mix_matrix,
)
from repro.service.server import SweepService, serve

__all__ = [
    "CorruptManifestError",
    "JobRecord",
    "JobStore",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResumePlan",
    "ServiceClient",
    "SpecError",
    "SweepSpec",
    "SweepService",
    "execute_spec",
    "run_resumable_matrix",
    "run_resumable_mix_matrix",
    "serve",
    "service_socket",
]
