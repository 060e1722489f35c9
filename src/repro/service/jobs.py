"""Job specs, job records, and the on-disk job store of the sweep service.

A :class:`SweepSpec` is the declarative description of one sweep — what
to simulate (a generated benchmark or an on-disk trace file for
``matrix`` jobs, a dict of benchmark mixes for ``mix_matrix`` jobs),
under which policies (registered policy names plus keyword arguments —
resolvable to picklable factories via :func:`policy_factories`), on what
geometry/engine, and into which manifest *namespace*. Namespaces are the
multi-tenant unit: each one is a separate manifest directory under the
service root, and resume matching only ever looks inside the submitting
job's namespace.

The third kind, ``predict``, is the analytical fast-forward tier: one
:func:`repro.explore.explore` pass over the workload instead of a
simulation grid. Its geometry fields (``explore_sets``/``explore_ways``
and the PD-grid knobs) describe the design space to evaluate, and
``top_k > 0`` asks the service to auto-submit follow-up ``matrix`` jobs
(:func:`predict_followup_specs`) that *simulate* the top-K predicted
frontier geometries at their predicted-best static PD — cheap triage
first, expensive confirmation only where the model says it matters.

A :class:`JobRecord` tracks one submitted spec through its lifecycle
(``queued → running → done|failed``, plus ``cancelled``), and the
:class:`JobStore` persists records as atomic JSON files under
``<root>/jobs/`` — the same temp-file + ``os.replace`` discipline as run
manifests — so a killed daemon recovers its queue on restart: ``running``
jobs are re-queued (their completed cells are skipped by the resume
scheduler) and ``queued`` jobs simply run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from repro.obs.manifest import new_run_id, utc_now_iso

#: Sweep kinds the service can schedule.
VALID_KINDS = ("matrix", "mix_matrix", "predict")

#: Lifecycle states of a job record.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Job states that will never change again.
TERMINAL_STATES = ("done", "failed", "cancelled")


class SpecError(ValueError):
    """An invalid or unsatisfiable sweep spec."""


@dataclass
class SweepSpec:
    """Declarative description of one sweep job.

    ``policies`` entries are either a registered policy name (``"lru"``)
    or a dict ``{"key": ..., "name": ..., "kwargs": {...}}`` — ``key``
    defaults to ``name`` and becomes the cell key / manifest label, so
    two parameterizations of the same policy need distinct keys.
    ``workers=0`` means auto (``$REPRO_MAX_WORKERS``, else CPU count).
    ``match_git_sha=True`` additionally requires a manifest's recorded
    git SHA to equal the current one before its cell is skipped on
    resume; ``force=True`` lets the job resume over a namespace
    containing corrupt manifests (which are otherwise refused — see
    :class:`repro.service.scheduler.CorruptManifestError`).

    ``num_sets`` doubles as the benchmark *generation* parameter and the
    simulated geometry; ``trace_num_sets`` decouples them when set — the
    trace generates with ``trace_num_sets`` while the cache simulates at
    ``num_sets``. Predict follow-up jobs rely on this so their simulated
    geometries all share the predict pass's exact trace (and therefore
    its fingerprint, the join key of the prediction-error report).

    ``explore_sets``/``explore_ways`` (empty → the explorer's defaults),
    ``pd_max``/``pd_step``/``d_max`` and ``top_k`` only apply to
    ``predict`` jobs; see the module docstring.
    """

    kind: str = "matrix"
    namespace: str = "default"
    benchmark: str | None = None
    trace_file: str | None = None
    trace_format: str | None = None
    length: int = 40_000
    seed: int | None = None
    policies: list = field(default_factory=list)
    mixes: dict = field(default_factory=dict)
    num_sets: int = 64
    ways: int = 16
    line_size: int = 64
    engine: str = "vector"
    workers: int = 1
    window_size: int | None = None
    match_git_sha: bool = False
    force: bool = False
    trace_num_sets: int | None = None
    # -- predict-kind fields (ignored by matrix/mix_matrix jobs) ----------
    explore_sets: list = field(default_factory=list)
    explore_ways: list = field(default_factory=list)
    pd_max: int = 256
    pd_step: int = 4
    d_max: int = 1_024
    top_k: int = 0

    #: Fields that must hold a plain ``int`` (``bool`` is not one), and
    #: those of them that may also be ``None``.
    INT_FIELDS = (
        "length", "seed", "num_sets", "ways", "line_size", "workers",
        "window_size", "trace_num_sets", "top_k", "pd_max", "pd_step", "d_max",
    )
    OPTIONAL_INT_FIELDS = ("seed", "window_size", "trace_num_sets")

    def validate(self) -> None:
        """Reject malformed specs with an actionable :class:`SpecError`."""
        self._validate_field_types()
        if self.kind not in VALID_KINDS:
            raise SpecError(f"kind must be one of {VALID_KINDS}, got {self.kind!r}")
        if not self.namespace or "/" in self.namespace or self.namespace in (".", ".."):
            raise SpecError(
                f"namespace must be a plain directory name, got {self.namespace!r}"
            )
        if self.kind == "matrix":
            if (self.benchmark is None) == (self.trace_file is None):
                raise SpecError(
                    "matrix jobs need exactly one of benchmark/trace_file"
                )
            if not self.policies:
                raise SpecError("matrix jobs need at least one policy")
        elif self.kind == "predict":
            if (self.benchmark is None) == (self.trace_file is None):
                raise SpecError(
                    "predict jobs need exactly one of benchmark/trace_file"
                )
            if self.policies:
                raise SpecError(
                    "predict jobs are analytical and take no policies; "
                    "follow-up simulation jobs pick theirs automatically"
                )
            for label, values in (
                ("explore_sets", self.explore_sets),
                ("explore_ways", self.explore_ways),
            ):
                for value in values:
                    if type(value) is not int or value < 1:
                        raise SpecError(
                            f"{label} entries must be positive ints, got {value!r}"
                        )
            for value in self.explore_sets:
                if value & (value - 1):
                    raise SpecError(
                        f"explore_sets entries must be powers of two, got {value}"
                    )
            if self.pd_max < 1 or self.pd_step < 1 or self.d_max < 1:
                raise SpecError(
                    "pd_max, pd_step and d_max must be >= 1, got "
                    f"{self.pd_max}/{self.pd_step}/{self.d_max}"
                )
            if self.top_k < 0:
                raise SpecError(f"top_k must be >= 0, got {self.top_k}")
        else:
            if not self.mixes:
                raise SpecError("mix_matrix jobs need a non-empty mixes dict")
            if not self.policies:
                raise SpecError("mix_matrix jobs need at least one policy")
        if self.kind != "predict":
            from repro.sim.single_core import ENGINES

            # The simulated geometry and engine, held to CacheGeometry's
            # and run_llc's rules at submit time rather than at run time.
            if self.num_sets < 1 or self.num_sets & (self.num_sets - 1):
                raise SpecError(
                    f"num_sets must be a power of two, got {self.num_sets}"
                )
            if self.ways < 1:
                raise SpecError(f"ways must be positive, got {self.ways}")
            if self.engine not in ENGINES:
                raise SpecError(
                    f"engine must be one of {ENGINES}, got {self.engine!r}"
                )
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise SpecError(
                f"line_size must be a power of two, got {self.line_size}"
            )
        if self.trace_file is None and self.length < 1:
            raise SpecError(
                f"length must be >= 1 for a generated trace, got {self.length}"
            )
        keys = [key for key, _, _ in self.policy_items()]
        if len(set(keys)) != len(keys):
            raise SpecError(f"duplicate policy keys in spec: {keys}")
        if self.workers < 0:
            raise SpecError(f"workers must be >= 0, got {self.workers}")
        if self.window_size is not None and self.window_size <= 0:
            raise SpecError(f"window_size must be positive, got {self.window_size}")
        self._validate_benchmarks()

    def _validate_field_types(self) -> None:
        """Reject fields of the wrong JSON type before any range check.

        Without it, ``5000.0``, ``true`` or ``"5000"`` in an integer
        field passes the range checks or crashes inside the job (and
        ``5000`` and ``5000.0`` would key different cached traces), a
        string flag such as ``"force": "no"`` reads as true, and a
        wrongly typed namespace, trace file, list or ``mixes`` raises a
        raw error out of :meth:`validate` or inside the job.
        """
        for name in self.INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int and not (
                value is None and name in self.OPTIONAL_INT_FIELDS
            ):
                raise SpecError(f"{name} must be an int, got {value!r}")
        for names, types, wanted in (
            (("match_git_sha", "force"), bool, "true or false"),
            (("namespace",), str, "a string"),
            (("trace_file", "trace_format"), (str, type(None)), "a string"),
            (("policies", "explore_sets", "explore_ways"), (list, tuple), "a list"),
            (("mixes",), dict, "an object of benchmark lists"),
        ):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, types):
                    raise SpecError(f"{name} must be {wanted}, got {value!r}")

    def _validate_benchmarks(self) -> None:
        """Reject benchmark names the trace generator does not know, and
        mixes that are not non-empty lists of them, at submit time rather
        than inside the job."""
        from repro.workloads.spec_like import SPEC_LIKE_PROFILES

        names = [] if self.benchmark is None else [self.benchmark]
        if self.kind == "mix_matrix":
            for mix_key, members in self.mixes.items():
                if not isinstance(members, (list, tuple)) or not members:
                    raise SpecError(
                        f"mix {mix_key!r} must be a non-empty list of "
                        f"benchmark names, got {members!r}"
                    )
                names += members
        for name in names:
            if not isinstance(name, str) or name not in SPEC_LIKE_PROFILES:
                raise SpecError(
                    f"unknown benchmark {name!r}; known: "
                    f"{', '.join(sorted(SPEC_LIKE_PROFILES))}"
                )

    def policy_items(self) -> list[tuple[str, str, dict]]:
        """Normalize ``policies`` into ``(key, name, kwargs)`` triples."""
        items = []
        for entry in self.policies:
            if isinstance(entry, str):
                items.append((entry, entry, {}))
            elif (
                isinstance(entry, dict)
                and "name" in entry
                and isinstance(entry.get("kwargs", {}), dict)
            ):
                items.append(
                    (
                        str(entry.get("key", entry["name"])),
                        str(entry["name"]),
                        dict(entry.get("kwargs", {})),
                    )
                )
            else:
                raise SpecError(
                    f"policy entries must be a name or a {{name, key, kwargs}} "
                    f"dict, got {entry!r}"
                )
        return items

    def to_dict(self) -> dict:
        """The JSON-ready form (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (tolerates extras)."""
        if not isinstance(data, dict):
            raise SpecError(f"a spec is a JSON object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)


def policy_factories(spec: SweepSpec) -> dict[str, Callable]:
    """Build the ``{cell key: zero-arg factory}`` dict for a spec.

    Factories are ``functools.partial`` of the module-level registry
    lookup, so they pickle cleanly into pool workers. Unknown policy
    names raise :class:`SpecError` (with the known names) rather than
    failing later inside a worker.
    """
    from repro.policies.base import make_policy, registered_policies

    known = set(registered_policies())
    factories: dict[str, Callable] = {}
    for key, name, kwargs in spec.policy_items():
        if name not in known:
            raise SpecError(
                f"unknown policy {name!r}; known: {', '.join(sorted(known))}"
            )
        factories[key] = partial(make_policy, name, **kwargs)
    return factories


def load_matrix_source(spec: SweepSpec):
    """Resolve a matrix/predict job's workload: a generated benchmark
    :class:`~repro.traces.trace.Trace`, or an on-disk trace opened as a
    chunked :class:`~repro.traces.stream.TraceStream`. Benchmark
    generation uses ``trace_num_sets`` when set (so follow-up jobs can
    simulate other geometries on the identical trace), ``num_sets``
    otherwise."""
    if spec.trace_file is not None:
        from repro.traces.formats import open_trace

        return open_trace(spec.trace_file, format=spec.trace_format)
    from repro.workloads.spec_like import make_benchmark_trace

    generation_sets = (
        spec.trace_num_sets if spec.trace_num_sets is not None else spec.num_sets
    )
    return make_benchmark_trace(
        spec.benchmark,
        length=spec.length,
        num_sets=generation_sets,
        seed=spec.seed,
    )


def predict_followup_specs(spec: SweepSpec, frontier: list) -> list:
    """Simulation specs for a predict job's top-K frontier geometries.

    ``frontier`` entries are the explore manifest's frontier dicts
    (``num_sets``, ``ways``, ``best_pd``, ...), best predicted hit rate
    first. Each follow-up is a single-cell ``matrix`` job in the same
    namespace simulating SPDP-B at the predicted-best static PD on the
    predict pass's exact trace: ``trace_num_sets`` pins benchmark
    generation to the predict job's generation parameter while
    ``num_sets``/``ways`` take the frontier geometry, keeping the trace
    fingerprint — the prediction-error report's join key — identical
    across the predict job and every follow-up. The cell label
    ``spdp-<pd>`` is what ``repro obs report`` parses the simulated PD
    back out of.
    """
    followups = []
    for entry in frontier[: max(spec.top_k, 0)]:
        best_pd = int(entry["best_pd"])
        followups.append(
            SweepSpec(
                kind="matrix",
                namespace=spec.namespace,
                benchmark=spec.benchmark,
                trace_file=spec.trace_file,
                trace_format=spec.trace_format,
                length=spec.length,
                seed=spec.seed,
                policies=[
                    {
                        "key": f"spdp-{best_pd}",
                        "name": "pdp",
                        "kwargs": {"static_pd": best_pd, "bypass": True},
                    }
                ],
                num_sets=int(entry["num_sets"]),
                ways=int(entry["ways"]),
                line_size=spec.line_size,
                engine=spec.engine,
                workers=spec.workers,
                window_size=spec.window_size,
                match_git_sha=spec.match_git_sha,
                force=spec.force,
                trace_num_sets=(
                    None
                    if spec.benchmark is None
                    else (
                        spec.trace_num_sets
                        if spec.trace_num_sets is not None
                        else spec.num_sets
                    )
                ),
            )
        )
    return followups


def load_mix_traces(spec: SweepSpec) -> dict[str, list]:
    """Materialize a mix_matrix job's per-thread benchmark traces,
    building each distinct benchmark's trace once for the whole job."""
    from repro.workloads.spec_like import make_benchmark_trace

    traces = {
        name: make_benchmark_trace(
            name, length=spec.length, num_sets=spec.num_sets, seed=spec.seed
        )
        for name in dict.fromkeys(
            name for names in spec.mixes.values() for name in names
        )
    }
    return {
        str(mix_key): [traces[name] for name in names]
        for mix_key, names in spec.mixes.items()
    }


def spec_geometry(spec: SweepSpec):
    """The spec's :class:`~repro.memory.cache.CacheGeometry`."""
    from repro.memory.cache import CacheGeometry

    return CacheGeometry(
        num_sets=spec.num_sets, ways=spec.ways, line_size=spec.line_size
    )


@dataclass
class JobRecord:
    """One submitted sweep job and its lifecycle bookkeeping.

    ``queue_wait_s`` (submit to start) and ``runtime_s`` (start to
    finish) are filled by the daemon as the job moves through its
    lifecycle; ``repro jobs`` surfaces them as WAIT/RUN columns and the
    daemon's ``stats`` verb aggregates them into latency histograms.
    """

    job_id: str
    spec: SweepSpec
    state: str = "queued"
    submitted_at: str = field(default_factory=utc_now_iso)
    started_at: str | None = None
    finished_at: str | None = None
    total_cells: int = 0
    skipped_cells: int = 0
    ran_cells: int = 0
    failed_cells: int = 0
    interrupted: bool = False
    error: str | None = None
    queue_wait_s: float | None = None
    runtime_s: float | None = None

    @classmethod
    def new(cls, spec: SweepSpec) -> "JobRecord":
        """A fresh queued record with a sortable unique job id."""
        return cls(job_id=new_run_id(), spec=spec)

    @property
    def terminal(self) -> bool:
        """Whether the job will never change state again."""
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        """The JSON-ready form (round-trips via :meth:`from_dict`)."""
        data = asdict(self)
        data["spec"] = self.spec.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        payload = dict(data)
        payload["spec"] = SweepSpec.from_dict(payload.get("spec", {}))
        known = set(cls.__dataclass_fields__)
        payload = {k: v for k, v in payload.items() if k in known}
        return cls(**payload)


class JobStore:
    """Directory-backed persistence for job records and namespaces.

    Layout under the service root::

        <root>/jobs/<job_id>.json        one JSON file per job, atomic
        <root>/namespaces/<namespace>/   manifest dir per tenant
        <root>/service.sock              the daemon's unix socket

    Records are written with temp-file + ``os.replace`` so a reader (or
    a crashed writer) never observes a partial document — the property
    the restart-recovery path depends on.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.namespaces_dir = self.root / "namespaces"

    def ensure_layout(self) -> None:
        """Create the root/jobs/namespaces directories."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.namespaces_dir.mkdir(parents=True, exist_ok=True)

    def namespace_dir(self, namespace: str) -> Path:
        """The manifest directory of one namespace (created on demand)."""
        path = self.namespaces_dir / namespace
        path.mkdir(parents=True, exist_ok=True)
        return path

    def save(self, record: JobRecord) -> Path:
        """Atomically persist one record; returns its path."""
        self.ensure_layout()
        path = self.jobs_dir / f"{record.job_id}.json"
        payload = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        handle, temp_path = tempfile.mkstemp(dir=self.jobs_dir, suffix=".json.tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return path

    def get(self, job_id: str) -> JobRecord | None:
        """Load one record, or None when unknown/unreadable."""
        path = self.jobs_dir / f"{job_id}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                return JobRecord.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, SpecError):
            return None

    def list_jobs(self) -> list[JobRecord]:
        """Every readable record, sorted by (submitted_at, job_id)."""
        records = []
        if self.jobs_dir.is_dir():
            for path in sorted(self.jobs_dir.glob("*.json")):
                record = self.get(path.stem)
                if record is not None:
                    records.append(record)
        records.sort(key=lambda r: (r.submitted_at, r.job_id))
        return records

    def recover(self) -> list[JobRecord]:
        """Restart recovery: re-queue interrupted work.

        Jobs found ``running`` were interrupted by a daemon death — flip
        them back to ``queued`` with ``interrupted=True`` (the resume
        scheduler skips their completed cells). Returns every job now
        pending, in submission order, ready to enqueue.
        """
        pending = []
        for record in self.list_jobs():
            if record.state == "running":
                record.state = "queued"
                record.interrupted = True
                self.save(record)
            if record.state == "queued":
                pending.append(record)
        return pending


__all__ = [
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "SpecError",
    "SweepSpec",
    "TERMINAL_STATES",
    "VALID_KINDS",
    "load_matrix_source",
    "load_mix_traces",
    "policy_factories",
    "predict_followup_specs",
    "spec_geometry",
]
