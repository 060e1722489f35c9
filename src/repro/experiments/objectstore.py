"""Object-store scenario: PDP-style protection vs. classic CDN policies.

The experiment behind ``repro experiment objectstore``: drive one
object-request stream (a synthetic Zipf/lognormal workload by default,
or any ``.objtrace`` file) through the software cache of
:mod:`repro.swcache` once per policy family and compare

- ``size-lru`` — recency eviction, admit-all (the baseline);
- ``gdsf`` — GreedyDual-Size-Frequency priorities;
- ``tinylfu`` — LRU behind TinyLFU frequency admission;
- ``pdp`` — the paper's protecting distance, recomputed online from a
  sampled reuse-distance histogram.

Every run records a windowed time-series (object hit ratio *and* byte
hit ratio per window) through the standard
:class:`repro.obs.timeseries.WindowedRecorder`, persists a
``kind="objectstore"`` manifest when a manifest directory is given, and
the report renders the comparison table plus per-policy hit-rate
sparklines. The stream is re-iterated per policy, so all policies see
the identical request sequence in O(chunk) memory regardless of trace
length.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table
from repro.obs.progress import ProgressReporter
from repro.obs.timeseries import windows_from_payload
from repro.swcache.driver import ObjectCacheResult, run_object_cache
from repro.swcache.policies import make_software_policy
from repro.traces.stream import TraceStream, as_stream
from repro.workloads.objectstore import make_object_stream

#: Policy families compared by default, in report order.
DEFAULT_POLICIES = ("size-lru", "gdsf", "tinylfu", "pdp")

#: Default request count of the generated workload.
DEFAULT_ACCESSES = 1_000_000

#: Default byte budget (256 MiB — a few percent of the default
#: catalog's total bytes, enough pressure to separate the policies).
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

#: Default object TTL in trace milliseconds (None = no expiry).
DEFAULT_TTL_MS = None


@dataclass(slots=True)
class ObjectStoreRow:
    """One policy's line in the comparison: the run result plus the
    per-window hit/byte-hit series extracted from its time-series
    payload (empty when recording was off)."""

    policy: str
    result: ObjectCacheResult
    window_hit_rates: list[float]
    window_byte_hit_rates: list[float]


def _policy_kwargs(name: str, accesses: int) -> dict:
    """Workload-scaled constructor arguments for one policy family.

    PDP's recompute interval and maximum tracked distance scale with
    the stream length so short smoke runs still recompute a few times;
    the other families need no tuning.
    """
    if name != "pdp":
        return {}
    recompute = max(256, min(1 << 15, accesses // 16))
    max_pd = max(2048, min(1 << 17, accesses // 2))
    return {"recompute_interval": recompute, "max_pd": max_pd}


def _window_series(result: ObjectCacheResult) -> tuple[list[float], list[float]]:
    """Per-window (hit-rate, byte-hit-rate) series of one run."""
    windows = windows_from_payload(result.extra.get("timeseries", {}))
    return (
        [w.hit_rate for w in windows],
        [w.byte_hit_rate for w in windows],
    )


def run_objectstore(
    trace: TraceStream | None = None,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    accesses: int = DEFAULT_ACCESSES,
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    ttl: float | None = DEFAULT_TTL_MS,
    fast: bool = False,
    seed: int = 0,
    window_size: int | None = None,
    manifest_dir: str | None = None,
    on_event=None,
) -> list[ObjectStoreRow]:
    """Run the policy comparison over one object-request stream.

    Args:
        trace: the request stream; when None a synthetic Zipf workload
            of ``accesses`` requests is generated from ``seed`` (a
            ``fast`` run shrinks it 5x with a smaller catalog).
        policies: registry names from
            :data:`repro.swcache.policies.SOFTWARE_POLICIES`.
        capacity_bytes: the byte budget shared by every policy run.
        ttl: object TTL in trace time units (None disables expiry).
        window_size: accesses per recorded window; defaults to 1/64 of
            the stream (at least 1024), so every run yields a usable
            time-series.
        manifest_dir: when set, one provenance manifest per policy run.
        on_event: progress callback (one started/finished event pair
            per policy, keyed by policy name).
    """
    if trace is None:
        if fast:
            accesses = max(10_000, accesses // 5)
        stream = make_object_stream(
            accesses,
            num_objects=20_000 if fast else 100_000,
            seed=seed,
        )
    else:
        stream = as_stream(trace)
    total = stream.length if stream.length is not None else accesses
    if window_size is None:
        window_size = max(1024, total // 64)
    reporter = ProgressReporter(len(policies), on_event=on_event, label="objectstore")
    rows: list[ObjectStoreRow] = []
    for name in policies:
        reporter.started(name)
        result = run_object_cache(
            stream,
            make_software_policy(name, **_policy_kwargs(name, total)),
            capacity_bytes,
            ttl=ttl,
            manifest_dir=manifest_dir,
            run_label=name,
            run_meta={"seed": seed} if trace is None else None,
            window_size=window_size,
        )
        reporter.finished(name)
        hit_series, byte_series = _window_series(result)
        rows.append(
            ObjectStoreRow(
                policy=name,
                result=result,
                window_hit_rates=hit_series,
                window_byte_hit_rates=byte_series,
            )
        )
    return rows


def format_report(rows: list[ObjectStoreRow]) -> str:
    """The comparison table plus per-policy windowed sparklines."""
    from repro.obs.bench import sparkline

    table_rows = []
    for row in rows:
        stats = row.result.stats
        final_pd = row.result.extra.get("final_pd")
        table_rows.append(
            [
                row.policy,
                f"{stats.hit_rate * 100:.2f}%",
                f"{stats.byte_hit_rate * 100:.2f}%",
                f"{stats.bypass_fraction * 100:.2f}%",
                str(stats.evictions),
                str(stats.expirations),
                str(final_pd) if final_pd is not None else "-",
            ]
        )
    lines = [
        format_table(
            ["policy", "hit", "byte-hit", "bypassed", "evictions", "expired", "PD"],
            table_rows,
            title="objectstore: software-cache policy comparison",
        )
    ]
    for row in rows:
        if row.window_hit_rates:
            lines.append(f"{row.policy:>9} hit/window      {sparkline(row.window_hit_rates)}")
        if row.window_byte_hit_rates:
            lines.append(f"{row.policy:>9} byte-hit/window {sparkline(row.window_byte_hit_rates)}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_ACCESSES",
    "DEFAULT_CAPACITY_BYTES",
    "DEFAULT_POLICIES",
    "ObjectStoreRow",
    "format_report",
    "run_objectstore",
]
