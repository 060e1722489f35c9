"""Live metrics: counters, gauges, and log2-bucket latency histograms.

A :class:`MetricsRegistry` is the one recording sink of the simulation
stack: hot kernels, grid runners, the software-cache driver and the
sweep daemon all record into the process-wide :data:`METRICS` registry.
Counters count events (accesses, cells), histograms keep each timed
section's count, total, min, max and a fixed log2-bucket distribution
from which p50/p90/p99 latencies are estimated, and gauges hold
last-write-wins levels. Two properties are load-bearing:

* **zero-allocation disabled path** — every recording entry point starts
  with one ``self.enabled`` test and returns before touching any
  dictionary, so hot kernels can leave recording calls in place
  (``tests/test_obs_metrics.py`` pins this);
* **lossless process-pool merging** — :meth:`MetricsRegistry.snapshot`
  produces a JSON-ready payload and :meth:`MetricsRegistry.merge_snapshot`
  folds one back in, summing counters and histogram buckets exactly, so
  metrics recorded inside ``run_matrix`` pool workers survive into the
  parent registry (each task ships its worker's snapshot back with the
  result).

Histograms use a fixed bucket scheme: upper bounds at every power of two
from ``2**-20`` seconds (~0.95 µs) through ``2**8`` seconds (256 s),
plus a final +Inf overflow bucket — 30 buckets total, identical in every
process, which is what makes merging a plain element-wise sum. Quantiles
are estimated by rank interpolation inside the containing bucket and
clamped to the observed min/max (:func:`histogram_quantile`).

The module-level :data:`METRICS` registry starts disabled unless
``$REPRO_TELEMETRY`` is set to a non-empty value (one gate for all
observability recording); enable it programmatically with
``METRICS.enable()``, run, then read ``METRICS.snapshot()`` — sweep
manifests embed that snapshot. The sweep daemon enables it
explicitly at startup so ``repro top`` and the ``stats`` verb always
have live data. :func:`render_prometheus` serializes a snapshot into
Prometheus text exposition format with no dependencies.
"""

from __future__ import annotations

import math
import os

#: Environment variable that enables the default registry at import.
ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Exponent of the smallest histogram bucket upper bound (2**-20 s ~ 0.95 us).
BUCKET_MIN_EXP = -20

#: Exponent of the largest finite bucket upper bound (2**8 s = 256 s).
BUCKET_MAX_EXP = 8

#: Total bucket count: one per exponent in range, plus the +Inf overflow.
NUM_BUCKETS = BUCKET_MAX_EXP - BUCKET_MIN_EXP + 2

#: Finite bucket upper bounds in seconds (the +Inf bucket is implicit).
BUCKET_BOUNDS = tuple(
    2.0**exp for exp in range(BUCKET_MIN_EXP, BUCKET_MAX_EXP + 1)
)


def bucket_index(value: float) -> int:
    """The histogram bucket a value falls into (0 .. NUM_BUCKETS-1).

    Bucket ``i < NUM_BUCKETS-1`` holds values in
    ``(2**(BUCKET_MIN_EXP+i-1), 2**(BUCKET_MIN_EXP+i)]``; bucket 0 also
    absorbs everything at or below its bound (including zero and
    negative glitches from clock warts), and the last bucket is the
    +Inf overflow.
    """
    if value <= BUCKET_BOUNDS[0]:
        return 0
    mantissa, exp = math.frexp(value)  # value = mantissa * 2**exp
    if mantissa == 0.5:  # exact power of two sits in its own bucket
        exp -= 1
    return min(exp - BUCKET_MIN_EXP, NUM_BUCKETS - 1)


class MetricsRegistry:
    """Named counters, gauges, and fixed-bucket histograms.

    Counters are monotonically increasing integers (:meth:`inc`),
    gauges are last-write-wins floats (:meth:`gauge`), and histograms
    accumulate observations into the module's fixed log2 buckets
    (:meth:`observe`). All recording methods are no-ops while
    ``enabled`` is False.
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        # name -> [count, total, min, max, bucket_counts list]
        self.histograms: dict[str, list] = {}

    def enable(self) -> None:
        """Turn recording on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off (accumulated data is kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated counters, gauges, and histograms."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = [0, 0.0, value, value, [0] * NUM_BUCKETS]
            self.histograms[name] = hist
        hist[0] += 1
        hist[1] += value
        if value < hist[2]:
            hist[2] = value
        if value > hist[3]:
            hist[3] = value
        hist[4][bucket_index(value)] += 1

    def snapshot(self) -> dict:
        """A JSON-ready copy: ``{"counters", "gauges", "histograms"}``.

        Histograms serialize as ``{name: {"count", "total", "min",
        "max", "buckets"}}`` where ``buckets`` is a sparse
        ``{bucket_index_as_str: count}`` dict (JSON object keys must be
        strings); empty buckets are omitted.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "count": count,
                    "total": total,
                    "min": lo,
                    "max": hi,
                    "buckets": {
                        str(i): n for i, n in enumerate(buckets) if n
                    },
                }
                for name, (count, total, lo, hi, buckets) in
                self.histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        Counters and histogram buckets/counts/totals sum exactly;
        histogram min/max combine as min-of-mins / max-of-maxes; gauges
        are last-write-wins (the incoming snapshot overwrites). Merging
        is aggregation of already-recorded data, not a recording entry
        point, so it works even while ``enabled`` is False — this is how
        pool-worker metrics reach the parent registry losslessly.
        """
        for name, amount in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + amount
        self.gauges.update(snapshot.get("gauges", {}))
        for name, payload in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = [0, 0.0, payload["min"], payload["max"],
                        [0] * NUM_BUCKETS]
                self.histograms[name] = hist
            hist[0] += payload["count"]
            hist[1] += payload["total"]
            if payload["min"] < hist[2]:
                hist[2] = payload["min"]
            if payload["max"] > hist[3]:
                hist[3] = payload["max"]
            buckets = hist[4]
            for index, count in payload["buckets"].items():
                buckets[int(index)] += count


def histogram_quantile(histogram: dict, q: float) -> float | None:
    """Estimate quantile ``q`` (0..1) from a snapshot histogram payload.

    Walks the cumulative bucket counts to the bucket containing the
    target rank, then interpolates linearly between that bucket's lower
    and upper bounds; the estimate is clamped to the recorded
    ``min``/``max`` so small histograms never report a latency outside
    the observed range. Returns ``None`` for an empty histogram.
    """
    count = histogram.get("count", 0)
    if not count:
        return None
    target = q * count
    seen = 0.0
    for index in range(NUM_BUCKETS):
        in_bucket = histogram["buckets"].get(str(index), 0)
        if not in_bucket:
            continue
        if seen + in_bucket >= target:
            lower = 0.0 if index == 0 else BUCKET_BOUNDS[index - 1]
            upper = (
                BUCKET_BOUNDS[index]
                if index < len(BUCKET_BOUNDS)
                else histogram["max"]
            )
            fraction = (target - seen) / in_bucket
            estimate = lower + fraction * (upper - lower)
            return min(max(estimate, histogram["min"]), histogram["max"])
        seen += in_bucket
    return histogram["max"]


def histogram_percentiles(
    histogram: dict, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)
) -> dict:
    """p50/p90/p99-style summary of one snapshot histogram payload.

    Returns ``{"count", "mean", "p50", ...}`` with one ``p<n>`` key per
    requested quantile (``None`` values for an empty histogram).
    """
    count = histogram.get("count", 0)
    summary = {
        "count": count,
        "mean": (histogram["total"] / count) if count else None,
    }
    for q in quantiles:
        label = f"p{round(q * 100)}"
        summary[label] = histogram_quantile(histogram, q)
    return summary


def _prom_name(name: str, prefix: str) -> str:
    """Sanitize a metric name into Prometheus ``[a-zA-Z0-9_:]`` form."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + cleaned


def render_prometheus(snapshot: dict, prefix: str = "repro_") -> str:
    """Serialize a registry snapshot as Prometheus text exposition.

    Dependency-free: counters render as ``counter`` samples, gauges as
    ``gauge`` samples, and histograms as the conventional cumulative
    ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``. Metric
    names are prefixed (default ``repro_``) and sanitized (dots become
    underscores). The output ends with a newline and is valid for a
    node-exporter textfile collector.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for index in range(NUM_BUCKETS):
            cumulative += payload["buckets"].get(str(index), 0)
            le = (
                repr(BUCKET_BOUNDS[index])
                if index < len(BUCKET_BOUNDS)
                else "+Inf"
            )
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {payload['total']}")
        lines.append(f"{metric}_count {payload['count']}")
    return "\n".join(lines) + "\n" if lines else ""


#: Default process-wide metrics registry (gated by ``$REPRO_TELEMETRY``).
METRICS = MetricsRegistry(
    enabled=bool(os.environ.get(ENV_TELEMETRY, "").strip())
)


__all__ = [
    "BUCKET_BOUNDS",
    "BUCKET_MAX_EXP",
    "BUCKET_MIN_EXP",
    "ENV_TELEMETRY",
    "METRICS",
    "MetricsRegistry",
    "NUM_BUCKETS",
    "bucket_index",
    "histogram_percentiles",
    "histogram_quantile",
    "render_prometheus",
]
