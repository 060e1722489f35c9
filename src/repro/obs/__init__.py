"""Observability for experiment runs: metrics, manifests, progress.

The ``repro.obs`` package makes a sweep auditable while it runs and
reproducible after it finishes:

- :mod:`repro.obs.metrics` — the one recording sink: counters, gauges,
  and log2-bucket latency histograms (p50/p90/p99 estimation) with a
  near-zero-overhead disabled mode safe to leave in hot kernels, a
  snapshot/merge contract for pool workers, and a dependency-free
  Prometheus text-exposition renderer; the sweep daemon serves these
  via the ``stats`` verb.
- :mod:`repro.obs.spans` — hierarchical wall-time spans (trace/span/
  parent ids via contextvars) persisted to ``spans.jsonl``, the one run
  log of a grid: a cell's open record is on disk from dispatch, so a
  killed sweep still shows its in-flight cells. Rendered as a
  critical-path-marked tree by ``repro obs trace``.
- :mod:`repro.obs.manifest` — per-run JSON provenance records (config,
  policy, engine, seed, trace fingerprint, git SHA, timing, statistics,
  failures), written atomically and round-trippable via
  :meth:`Manifest.load`; every writer builds its record through
  :meth:`Manifest.for_run`.
- :mod:`repro.obs.progress` — started/finished/failed events with ETA
  for grid runs, delivered to an ``on_event`` callback.
- :mod:`repro.obs.timeseries` — fixed-budget windowed recorder turning
  one run into per-window hit/miss/eviction-cause/PD statistics that are
  bit-identical across engines and chunk sizes.
- :mod:`repro.obs.bench` — canonical schema-versioned benchmark records,
  the appending perf trajectory, throughput-regression comparison, and
  the self-contained markdown/HTML report renderer.

The simulation entry points (``run_llc``, ``run_shared_llc``,
``run_object_cache``, ``run_matrix``, ``run_mix_matrix``) accept
``manifest_dir=`` to emit manifests and — for the grid runners —
``on_event=`` for progress; the three drivers and ``run_matrix`` also
accept ``window_size=`` to record a windowed time series into
``result.extra["timeseries"]``. ``python -m repro obs
summarize <dir>`` rebuilds the result table from manifests alone, and
``python -m repro obs report <dir>`` renders the full observatory
report with zero re-simulation.
"""

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    append_trajectory,
    canonical_record,
    compare_records,
    read_trajectory,
    render_report,
    sparkline,
)

from repro.obs.manifest import (
    ENV_MANIFEST_DIR,
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    ManifestLoadReport,
    SkippedManifest,
    TaskFailure,
    fingerprint_source,
    git_sha,
    load_manifests,
    new_run_id,
    resolve_manifest_dir,
    scan_manifests,
    summarize_exception,
    summarize_manifests,
    trace_fingerprint,
)
from repro.obs.metrics import (
    ENV_TELEMETRY,
    METRICS,
    MetricsRegistry,
    histogram_percentiles,
    histogram_quantile,
    render_prometheus,
)
from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    console_reporter,
    print_event,
)
from repro.obs.spans import (
    SPANS_FILENAME,
    SpanTracer,
    read_jsonl,
    read_spans,
    render_span_tree,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    Window,
    WindowedRecorder,
    windows_from_payload,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ENV_MANIFEST_DIR",
    "ENV_TELEMETRY",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS",
    "Manifest",
    "ManifestLoadReport",
    "MetricsRegistry",
    "SPANS_FILENAME",
    "SkippedManifest",
    "SpanTracer",
    "TIMESERIES_SCHEMA_VERSION",
    "Window",
    "WindowedRecorder",
    "ProgressEvent",
    "ProgressReporter",
    "TaskFailure",
    "append_trajectory",
    "canonical_record",
    "compare_records",
    "console_reporter",
    "fingerprint_source",
    "git_sha",
    "histogram_percentiles",
    "histogram_quantile",
    "load_manifests",
    "scan_manifests",
    "new_run_id",
    "print_event",
    "read_jsonl",
    "read_spans",
    "read_trajectory",
    "render_prometheus",
    "render_report",
    "render_span_tree",
    "resolve_manifest_dir",
    "sparkline",
    "summarize_exception",
    "summarize_manifests",
    "trace_fingerprint",
    "windows_from_payload",
]
