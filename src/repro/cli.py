"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-benchmarks`` — the available SPEC-like workload profiles.
- ``list-policies`` — registered replacement policies.
- ``run`` — run one benchmark under one policy and print statistics.
- ``rdd`` — print a benchmark's reuse-distance distribution.
- ``sweep`` — static-PD sweep (the Fig. 4 per-benchmark curve).
- ``explore`` — analytical design-space explorer: predict hit rates for
  thousands of (sets, ways, d_p) points from one profiling pass (see
  ``docs/EXPLORER.md``).
- ``experiment <driver>`` — run one of the paper's figure/table drivers
  (``fig1`` … ``fig12``, ``objectstore``, ``prefetch``); each driver is
  its own subcommand and takes only the flags it reads.
- ``overhead`` — the hardware overhead report.
- ``obs summarize`` — rebuild a result table from a manifest directory.
- ``obs report`` — render the self-contained markdown/HTML observatory
  report (tables + window sparklines) from manifests alone.
- ``trace convert`` / ``trace info`` — stream-convert and inspect
  external trace files (native ``.trz``, ChampSim-style binary, CSV).
- ``serve`` — run the always-on resumable sweep daemon on a service
  root directory (unix socket + job store + per-namespace manifests).
- ``submit`` / ``jobs`` / ``watch`` — client trio for the daemon:
  submit a sweep spec, list jobs, stream a job's progress events
  (``submit --kind predict`` runs the explorer as a cheap first pass
  and auto-submits top-k simulation follow-ups). See
  ``docs/SERVICE.md``.

``run`` and ``sweep`` accept ``--trace-file`` to simulate an external
trace (streamed in chunks, so file size is unbounded by RAM) instead of
a generated ``--benchmark`` workload.

Observability: ``run``, ``sweep``, ``explore`` and the ``experiment``
drivers fig4, fig10, fig12 and objectstore accept ``--manifest-dir``
(defaulting to ``$REPRO_MANIFEST_DIR`` when set) to write per-run
provenance manifests; ``sweep`` and those four drivers accept
``--progress`` to stream started/finished/failed task events to stderr.
``run --window-size N`` records per-window statistics through
:mod:`repro.obs.timeseries`. See :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import common as experiment_common


def _manifest_dir(args):
    """The run's manifest directory: --manifest-dir, else the
    $REPRO_MANIFEST_DIR environment default, else None (disabled)."""
    from repro.obs.manifest import resolve_manifest_dir

    path = resolve_manifest_dir(args.manifest_dir)
    return str(path) if path is not None else None


def _progress_callback(args, label: str):
    """A stderr progress printer when --progress was given, else None."""
    if not args.progress:
        return None
    from repro.obs.progress import console_reporter

    return console_reporter(label=label)


def _cmd_list_benchmarks(args) -> int:
    from repro.workloads.spec_like import SPEC_LIKE_PROFILES

    for name, profile in sorted(SPEC_LIKE_PROFILES.items()):
        kinds = []
        for component in profile.components:
            if component.is_infinite:
                kinds.append(f"stream({component.weight:g})")
            else:
                kinds.append(f"[{component.low},{component.high}]({component.weight:g})")
        pc = "pc-informative" if profile.pc_informative else "pc-misleading"
        print(f"{name:18s} {pc:15s} {' + '.join(kinds)}")
    return 0


def _cmd_list_policies(args) -> int:
    from repro.policies.base import registered_policies

    for name in registered_policies():
        print(name)
    return 0


def _unknown_name(exc: KeyError) -> SystemExit:
    """Exit status 2 for a failed benchmark or policy lookup, whose
    message already lists the known names."""
    print(exc.args[0], file=sys.stderr)
    return SystemExit(2)


def _make_policy(name: str, config, trace):
    """Instantiate a policy by CLI name, wiring experiment defaults."""
    from repro.core.classified_pdp import ClassifiedPDPPolicy
    from repro.core.pdp_policy import PDPPolicy
    from repro.policies.base import make_policy
    from repro.policies.belady import BeladyPolicy

    if name == "pdp":
        return PDPPolicy(recompute_interval=config.recompute_interval)
    if name == "pdp-nb":
        return PDPPolicy(recompute_interval=config.recompute_interval, bypass=False)
    if name == "pdp-classified":
        return ClassifiedPDPPolicy(recompute_interval=config.recompute_interval)
    if name == "belady":
        return BeladyPolicy(trace.addresses, bypass=True)
    try:
        return make_policy(name)
    except KeyError as exc:
        raise _unknown_name(exc) from None


def _workload_source(args, config):
    """Resolve the simulated workload: a generated benchmark trace, or an
    external trace file opened as a chunked stream (``--trace-file``)."""
    if args.trace_file is not None:
        if args.benchmark is not None:
            raise SystemExit("--benchmark and --trace-file are mutually exclusive")
        from repro.traces.formats import open_trace

        return open_trace(
            args.trace_file,
            format=args.trace_format,
            chunk_size=args.chunk_size,
        )
    if args.benchmark is None:
        raise SystemExit("one of --benchmark or --trace-file is required")
    from repro.workloads.spec_like import make_benchmark_trace

    try:
        return make_benchmark_trace(
            args.benchmark,
            length=args.length,
            num_sets=config.num_sets,
            seed=getattr(args, "seed", None),
            cache_dir=args.trace_cache_dir,
        )
    except KeyError as exc:
        raise _unknown_name(exc) from None


def _cmd_run(args) -> int:
    from repro.sim.single_core import run_llc
    from repro.traces.stream import TraceStream

    config = experiment_common.experiment_config()
    trace = _workload_source(args, config)
    if args.policy == "belady" and isinstance(trace, TraceStream):
        print(
            "belady needs the full future address stream in memory and "
            "cannot run on a chunked --trace-file; convert the file and "
            "use a generated --benchmark, or pick another policy",
            file=sys.stderr,
        )
        return 2
    policy = _make_policy(args.policy, config, trace)
    result = run_llc(
        trace,
        policy,
        config.llc,
        timing=experiment_common.TIMING,
        engine=args.engine,
        manifest_dir=_manifest_dir(args),
        run_label=args.policy,
        run_meta={"seed": args.seed} if args.seed is not None else None,
        window_size=args.window_size,
    )
    print(f"workload  : {result.name} ({result.accesses} accesses)")
    print(f"policy    : {args.policy}")
    print(f"hit rate  : {result.hit_rate:.4f}")
    print(f"MPKI      : {result.mpki:.2f}")
    print(f"IPC       : {result.ipc:.3f}")
    print(f"bypass    : {result.bypass_fraction:.1%}")
    if result.extra.get("final_pd") is not None:
        print(f"final PD  : {result.extra['final_pd']}")
    payload = result.extra.get("timeseries")
    if payload:
        from repro.obs.bench import sparkline
        from repro.obs.timeseries import windows_from_payload

        windows = windows_from_payload(payload)
        rates = [w.hit_rate for w in windows]
        print(
            f"windows   : {payload['windows_closed']} of "
            f"{payload['window_size']} accesses"
            + (f" ({payload['windows_dropped']} dropped)"
               if payload["windows_dropped"] else "")
        )
        if rates:
            print(f"hit rate/w: {sparkline(rates)}")
        pds = [w.pd for w in windows if w.pd is not None]
        if pds:
            print(f"PD/window : {sparkline([float(p) for p in pds])}")
    return 0


def _cmd_rdd(args) -> int:
    from repro.traces.analysis import fraction_below, reuse_distance_distribution
    from repro.workloads.spec_like import make_benchmark_trace

    config = experiment_common.experiment_config()
    try:
        trace = make_benchmark_trace(
            args.benchmark, length=args.length, num_sets=config.num_sets
        )
    except KeyError as exc:
        raise _unknown_name(exc) from None
    counts, long_count, total = reuse_distance_distribution(
        trace, num_sets=config.num_sets, d_max=config.d_max
    )
    below = fraction_below(trace, config.num_sets, config.d_max)
    print(f"# RDD of {args.benchmark}: {total} accesses, "
          f"{int(counts.sum())} reuses <= d_max ({below:.1%} of reuses)")
    bucket = max(1, config.d_max // args.bins)
    for start in range(1, config.d_max + 1, bucket):
        count = int(counts[start : start + bucket].sum())
        bar = "#" * min(60, count * 60 // max(1, int(counts.max()) * bucket))
        print(f"{start:4d}-{min(start + bucket - 1, config.d_max):4d} {count:8d} {bar}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.pd_grid import pd_grid
    from repro.sim.runner import sweep_static_pd

    config = experiment_common.experiment_config()
    trace = _workload_source(args, config)
    grid = pd_grid(config.associativity, d_max=config.d_max, step=args.step)
    # --workers 0 = auto (env REPRO_MAX_WORKERS, else cpu count).
    max_workers = None if args.workers == 0 else args.workers
    results = sweep_static_pd(
        trace,
        config.llc,
        grid,
        bypass=not args.no_bypass,
        max_workers=max_workers,
        manifest_dir=_manifest_dir(args),
        on_event=_progress_callback(args, "sweep"),
    )
    best = min(grid, key=lambda pd: results[pd].misses)
    source = args.benchmark if args.benchmark is not None else args.trace_file
    print(f"# static PD sweep on {source} "
          f"({'SPDP-NB' if args.no_bypass else 'SPDP-B'})")
    for pd in grid:
        marker = "  <= best" if pd == best else ""
        print(f"PD {pd:4d}: misses {results[pd].misses:8d} "
              f"hitrate {results[pd].hit_rate:.4f}{marker}")
    return 0


#: The figure drivers run through :func:`_cmd_experiment`: each one's
#: module and its run function(s). Every run takes ``fast=``, and the
#: module's ``format_report`` takes the runs' results in order.
_EXPERIMENTS = {
    "fig1": ("fig01_rdd", ("run_fig1",)),
    "fig2": ("fig02_epsilon", ("run_fig2",)),
    "fig4": ("fig04_static_pdp", ("run_fig4",)),
    "fig5": ("fig05_occupancy", ("run_fig5a", "run_fig5b")),
    "fig6": ("fig06_model", ("run_fig6",)),
    "fig9": ("fig09_params", ("run_fig9",)),
    "fig10": ("fig10_single_core", ("run_fig10",)),
    "fig11": ("fig11_phases", ("run_fig11",)),
    "prefetch": ("prefetch_study", ("run_prefetch_study",)),
}


def _cmd_experiment(args, **run_kwargs) -> int:
    import importlib

    module_name, runs = _EXPERIMENTS[args.driver]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    results = [getattr(module, run)(fast=args.fast, **run_kwargs) for run in runs]
    print(module.format_report(*results))
    return 0


def _cmd_experiment_grid(args) -> int:
    """fig4/fig10: one ``run_matrix`` grid per trace, with a worker
    count, per-cell manifests and progress events."""
    return _cmd_experiment(
        args,
        max_workers=args.workers or None,
        manifest_dir=_manifest_dir(args),
        on_event=_progress_callback(args, args.driver),
    )


def _cmd_experiment_fig12(args) -> int:
    from repro.experiments import fig12_partitioning

    results = {
        cores: fig12_partitioning.run_fig12(
            cores,
            num_mixes=args.mixes,
            engine=args.engine,
            max_workers=args.workers or None,
            manifest_dir=_manifest_dir(args),
            on_event=_progress_callback(args, f"fig12-{cores}core"),
        )
        for cores in (4, 16)
    }
    print(fig12_partitioning.format_report(results))
    return 0


def _cmd_experiment_objectstore(args) -> int:
    """The software-cache scenario: policy comparison over an object
    trace (generated or --trace-file), with windowed hit/byte-hit
    series in the manifests (see repro.experiments.objectstore)."""
    from repro.experiments import objectstore as objectstore_experiment
    from repro.swcache.policies import SOFTWARE_POLICIES

    stream = None
    if args.trace_file:
        from repro.traces.formats import open_trace

        stream = open_trace(args.trace_file)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    unknown = [p for p in policies if p not in SOFTWARE_POLICIES]
    if unknown:
        known = ", ".join(sorted(SOFTWARE_POLICIES))
        print(
            f"unknown software-cache policy {unknown[0]!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    rows = objectstore_experiment.run_objectstore(
        trace=stream,
        policies=policies,
        accesses=args.accesses,
        capacity_bytes=int(args.capacity_mb * 1024 * 1024),
        ttl=args.ttl_ms,
        fast=args.fast,
        seed=args.seed,
        window_size=args.window_size,
        manifest_dir=_manifest_dir(args),
        on_event=_progress_callback(args, "objectstore"),
    )
    print(objectstore_experiment.format_report(rows))
    return 0


def _cmd_explore(args) -> int:
    from repro.explore import explore, render_frontier

    config = experiment_common.experiment_config()
    source = _workload_source(args, config)
    try:
        result = explore(
            source,
            sets=tuple(args.sets),
            ways=tuple(args.ways),
            pd_max=args.pd_max,
            pd_step=args.pd_step,
            d_max=args.d_max,
            manifest_dir=_manifest_dir(args),
            run_label=args.label,
        )
    except ValueError as exc:
        print(f"explore failed: {exc}", file=sys.stderr)
        return 2
    print(render_frontier(result, top=args.top))
    if result.manifest_path:
        print(f"\n[explore manifest: {result.manifest_path}]", file=sys.stderr)
    return 0


def _cmd_overhead(args) -> int:
    from repro.experiments import overhead_report

    print(overhead_report.format_report(overhead_report.run_overhead()))
    return 0


def _cmd_obs(args) -> int:
    from repro.obs.manifest import scan_manifests, summarize_manifests

    report = scan_manifests(args.directory)
    if not report.manifests and not report.skipped:
        print(f"no manifests found in {args.directory}", file=sys.stderr)
        return 1
    print(summarize_manifests(report.manifests, skipped=report.skipped))
    return 0


def _cmd_obs_report(args) -> int:
    from pathlib import Path

    from repro.obs.bench import render_report

    text = render_report(args.directory, html=args.html)
    if args.out:
        Path(args.out).write_text(text)
        print(f"[written to {args.out}]", file=sys.stderr)
    else:
        print(text)
    return 0


def _service_root(args) -> str:
    """The sweep service root: --root, else $REPRO_SERVICE_ROOT."""
    import os

    root = args.root if args.root is not None else os.environ.get("REPRO_SERVICE_ROOT")
    if not root:
        raise SystemExit("--root (or $REPRO_SERVICE_ROOT) is required")
    return root


def _cmd_serve(args) -> int:
    from repro.service.protocol import service_socket
    from repro.service.server import serve

    root = _service_root(args)
    print(f"[repro serve] root={root} socket={service_socket(root)}", file=sys.stderr)
    serve(root)
    return 0


def _spec_from_args(args):
    """Build a SweepSpec from ``repro submit`` options (or --spec-file)."""
    import json

    from repro.service.jobs import SpecError, SweepSpec

    if args.spec_file is not None:
        with open(args.spec_file, encoding="utf-8") as fh:
            return SweepSpec.from_dict(json.load(fh))
    policies = []
    for entry in args.policy or []:
        if "=" in entry:
            key, _, rest = entry.partition("=")
            name, _, kwargs_json = rest.partition(":")
            try:
                kwargs = json.loads(kwargs_json) if kwargs_json else {}
            except json.JSONDecodeError as exc:
                raise SpecError(f"--policy {entry!r}: bad kwargs JSON: {exc}") from None
            policies.append({"key": key, "name": name, "kwargs": kwargs})
        else:
            policies.append(entry)
    mixes = {}
    for entry in args.mix or []:
        key, _, names = entry.partition("=")
        mixes[key] = [name for name in names.split(",") if name]
    if args.kind == "predict":
        kind = "predict"
    else:
        kind = "mix_matrix" if mixes else "matrix"
    return SweepSpec(
        kind=kind,
        namespace=args.namespace,
        benchmark=args.benchmark,
        trace_file=args.trace_file,
        trace_format=args.trace_format,
        length=args.length,
        seed=args.seed,
        policies=policies,
        mixes=mixes,
        num_sets=args.num_sets,
        ways=args.ways,
        line_size=args.line_size,
        engine=args.engine,
        workers=args.workers,
        window_size=args.window_size,
        match_git_sha=args.match_git_sha,
        force=args.force,
        explore_sets=args.explore_sets or [],
        explore_ways=args.explore_ways or [],
        top_k=args.top_k,
    )


def _parse_int_list(text: str) -> list:
    """``"16,32,64"`` → [16, 32, 64]; the ``type=`` of the list flags,
    so a malformed list is a usage error (exit 2)."""
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _print_watch_stream(client, job_id: str, replay: bool) -> int:
    """Stream one job's events to stderr; returns a CLI exit code."""
    final = None
    for response in client.watch(job_id, replay=replay):
        if "done" in response:
            final = response["done"]
            break
        event = response.get("event", {})
        kind = event.get("kind")
        if kind == "job-state":
            suffix = f" ({event['error']})" if event.get("error") else ""
            print(f"[{job_id}] state={event.get('state')}{suffix}", file=sys.stderr)
        elif kind == "followup":
            policies = ",".join(
                p["key"] if isinstance(p, dict) else str(p)
                for p in event.get("policies") or []
            )
            print(
                f"[{job_id}] followup {event.get('job_id')} "
                f"({event.get('num_sets')}x{event.get('ways')} {policies})",
                file=sys.stderr,
            )
        elif kind == "followup-error":
            print(
                f"[{job_id}] followup-error {event.get('error')}",
                file=sys.stderr,
            )
        else:
            suffix = f" ({event['error']})" if event.get("error") else ""
            print(
                f"[{job_id}] {event.get('done')}/{event.get('total')} "
                f"{kind} {event.get('key')}{suffix}",
                file=sys.stderr,
            )
    if final is None:
        return 1
    print(
        f"{final['job_id']} {final['state']}: total {final['total_cells']} "
        f"skipped {final['skipped_cells']} ran {final['ran_cells']} "
        f"failed {final['failed_cells']}"
    )
    return 0 if final["state"] == "done" else 1


def _cmd_submit(args) -> int:
    from repro.service.jobs import SpecError
    from repro.service.protocol import ProtocolError, ServiceClient, service_socket

    try:
        spec = _spec_from_args(args)
        spec.validate()
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(service_socket(_service_root(args))) as client:
            job = client.submit(spec.to_dict())
            print(job["job_id"])
            if args.watch:
                return _print_watch_stream(client, job["job_id"], replay=True)
    except (ProtocolError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args) -> int:
    from repro.service.protocol import ProtocolError, ServiceClient, service_socket

    try:
        with ServiceClient(service_socket(_service_root(args))) as client:
            jobs = client.jobs()
    except (ProtocolError, OSError) as exc:
        print(f"jobs failed: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs", file=sys.stderr)
        return 0
    print(f"{'JOB':32s} {'STATE':9s} {'NS':10s} {'KIND':10s} "
          f"{'CELLS':>5s} {'SKIP':>5s} {'RAN':>5s} "
          f"{'WAIT':>8s} {'RUN':>8s} SUBMITTED")
    for job in jobs:
        spec = job.get("spec", {})
        print(
            f"{job['job_id']:32s} {job['state']:9s} "
            f"{spec.get('namespace', '?'):10s} {spec.get('kind', '?'):10s} "
            f"{job['total_cells']:5d} {job['skipped_cells']:5d} "
            f"{job['ran_cells']:5d} "
            f"{_format_latency(job.get('queue_wait_s')):>8s} "
            f"{_format_latency(job.get('runtime_s')):>8s} "
            f"{job['submitted_at']}"
        )
    return 0


def _format_latency(seconds) -> str:
    """Human-width seconds column: '-' when unknown, '12.3s' otherwise."""
    if seconds is None:
        return "-"
    return f"{seconds:.1f}s"


def _cmd_watch(args) -> int:
    from repro.service.protocol import ProtocolError, ServiceClient, service_socket

    try:
        with ServiceClient(service_socket(_service_root(args))) as client:
            return _print_watch_stream(client, args.job_id, replay=not args.no_replay)
    except (ProtocolError, OSError) as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 1


def _render_stats(stats: dict) -> str:
    """One dashboard frame from a ``stats`` verb payload.

    Queue depth, jobs by state, the running job/cell, resume-skip
    counter, then a percentile table for every latency histogram the
    daemon has observed so far.
    """
    lines = ["repro top — sweep service"]
    lines.append(f"  queue depth : {stats.get('queue_depth', 0)}")
    by_state = stats.get("jobs_by_state", {})
    states = " ".join(
        f"{state}={count}" for state, count in sorted(by_state.items())
    ) or "(none)"
    lines.append(f"  jobs        : {states}")
    running = stats.get("running") or "-"
    cell = stats.get("running_cell") or "-"
    lines.append(f"  running     : {running}  cell={cell}")
    lines.append(f"  skipped     : {stats.get('skipped_cells_total', 0)} cells resumed from manifests")
    percentiles = stats.get("percentiles", {})
    if percentiles:
        lines.append("")
        lines.append(f"  {'histogram':28s} {'count':>7s} {'mean':>9s} "
                     f"{'p50':>9s} {'p90':>9s} {'p99':>9s}")
        for name in sorted(percentiles):
            row = percentiles[name]

            def _cell(value) -> str:
                return "-" if value is None else f"{value:.4f}s"

            lines.append(
                f"  {name:28s} {row.get('count', 0):7d} "
                f"{_cell(row.get('mean')):>9s} {_cell(row.get('p50')):>9s} "
                f"{_cell(row.get('p90')):>9s} {_cell(row.get('p99')):>9s}"
            )
    else:
        lines.append("  (no latency histograms yet)")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time

    from repro.service.protocol import ProtocolError, ServiceClient, service_socket

    socket_path = service_socket(_service_root(args))
    while True:
        try:
            with ServiceClient(socket_path) as client:
                stats = client.stats()
        except (ProtocolError, OSError) as exc:
            print(f"top failed: {exc}", file=sys.stderr)
            return 1
        if not args.once:
            # Clear screen + home cursor so each frame overwrites the last.
            print("\x1b[2J\x1b[H", end="")
        print(_render_stats(stats))
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_obs_scrape(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.metrics import render_prometheus
    from repro.service.protocol import ProtocolError, ServiceClient, service_socket

    try:
        with ServiceClient(service_socket(_service_root(args))) as client:
            stats = client.stats()
    except (ProtocolError, OSError) as exc:
        print(f"scrape failed: {exc}", file=sys.stderr)
        return 1
    if args.prom:
        text = render_prometheus(stats.get("metrics", {}))
    else:
        text = json.dumps(stats.get("metrics", {}), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"[written to {args.out}]", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_obs_trace(args) -> int:
    from pathlib import Path

    from repro.obs.spans import SPANS_FILENAME, read_spans, render_span_tree

    path = Path(args.directory)
    if path.is_dir():
        path = path / SPANS_FILENAME
    if not path.exists():
        print(f"no span log at {path}", file=sys.stderr)
        return 1
    spans = read_spans(path)
    if not spans:
        print(f"span log {path} is empty", file=sys.stderr)
        return 1
    print(render_span_tree(spans))
    return 0


def _cmd_trace_convert(args) -> int:
    from repro.traces.formats import TraceFormatError, convert_trace

    try:
        copied = convert_trace(
            args.src,
            args.dst,
            src_format=args.from_format,
            dst_format=args.to_format,
            chunk_size=args.chunk_size,
            name=args.name,
            instructions_per_access=args.instructions_per_access,
        )
    except (TraceFormatError, FileNotFoundError) as exc:
        print(f"trace convert failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {copied} accesses to {args.dst}")
    return 0


def _cmd_trace_info(args) -> int:
    import json

    from repro.traces.formats import TraceFormatError, trace_info

    try:
        info = trace_info(
            args.path, format=args.format, chunk_size=args.chunk_size
        )
    except (TraceFormatError, FileNotFoundError) as exc:
        print(f"trace info failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    threads = info["threads"]
    span = (
        f"[{info['min_address']:#x}, {info['max_address']:#x}]"
        if info["min_address"] is not None
        else "(empty)"
    )
    print(f"path        : {info['path']}")
    print(f"format      : {info['format']}")
    print(f"name        : {info['name']}")
    print(f"accesses    : {info['accesses']}")
    print(f"insns/access: {info['instructions_per_access']:g}")
    print(f"threads     : {len(threads)} ({threads})")
    print(f"addresses   : {span}")
    print(f"fingerprint : {info['fingerprint']}")
    return 0


def _add_trace_file(parser: argparse.ArgumentParser) -> None:
    """The external-trace-input options shared by ``run`` and ``sweep``."""
    from repro.traces.formats import format_names
    from repro.traces.stream import DEFAULT_CHUNK_SIZE

    parser.add_argument(
        "--trace-file",
        default=None,
        help="simulate this on-disk trace (streamed in chunks) instead of "
        "a generated --benchmark workload",
    )
    parser.add_argument(
        "--trace-format",
        choices=format_names(),
        default=None,
        help="format of --trace-file (default: infer from suffix/content)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="accesses per streamed chunk when reading --trace-file",
    )


def _add_manifest_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manifest-dir",
        default=None,
        help="write per-run provenance manifests into this directory "
        "(default: $REPRO_MANIFEST_DIR, unset = disabled)",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for each grid (1 = serial). Unset or 0 = "
        "auto via $REPRO_MAX_WORKERS or CPU count",
    )


def _add_progress(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-task progress events (with ETA) to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDP (MICRO 2012) reproduction — cache policy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-benchmarks").set_defaults(func=_cmd_list_benchmarks)
    sub.add_parser("list-policies").set_defaults(func=_cmd_list_policies)

    run = sub.add_parser("run", help="run one benchmark under one policy")
    run.add_argument("--benchmark", default=None)
    run.add_argument("--policy", default="pdp")
    run.add_argument("--length", type=int, default=40_000)
    run.add_argument("--seed", type=int, default=None)
    _add_trace_file(run)
    run.add_argument(
        "--engine",
        choices=("vector", "fast", "reference"),
        default="vector",
        help="simulation engine (vector = columnar set-batched kernels, "
        "fast = batched per-access kernel, reference = original "
        "per-access loop)",
    )
    run.add_argument(
        "--trace-cache-dir",
        default=None,
        help="directory for the on-disk trace cache "
        "(default: $REPRO_TRACE_CACHE_DIR, unset = no caching)",
    )
    run.add_argument(
        "--window-size",
        type=int,
        default=None,
        help="record per-window statistics every N accesses (printed as "
        "sparklines and persisted into the run manifest)",
    )
    _add_manifest_dir(run)
    run.set_defaults(func=_cmd_run)

    rdd = sub.add_parser("rdd", help="print a benchmark's RDD")
    rdd.add_argument("--benchmark", required=True)
    rdd.add_argument("--length", type=int, default=40_000)
    rdd.add_argument("--bins", type=int, default=16)
    rdd.set_defaults(func=_cmd_rdd)

    sweep = sub.add_parser("sweep", help="static protecting-distance sweep")
    sweep.add_argument("--benchmark", default=None)
    sweep.add_argument("--length", type=int, default=40_000)
    sweep.add_argument("--step", type=int, default=16)
    sweep.add_argument("--no-bypass", action="store_true")
    _add_trace_file(sweep)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep worker processes (1 = serial, 0 = auto via "
        "$REPRO_MAX_WORKERS or CPU count)",
    )
    sweep.add_argument(
        "--trace-cache-dir",
        default=None,
        help="directory for the on-disk trace cache "
        "(default: $REPRO_TRACE_CACHE_DIR, unset = no caching)",
    )
    _add_manifest_dir(sweep)
    _add_progress(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    experiment = sub.add_parser("experiment", help="run a paper figure driver")
    experiment_sub = experiment.add_subparsers(dest="driver", required=True)
    driver = {
        name: experiment_sub.add_parser(name)
        for name in sorted([*_EXPERIMENTS, "fig12", "objectstore"])
    }
    for name in _EXPERIMENTS:
        driver[name].add_argument(
            "--fast", action="store_true", help="halve the trace lengths"
        )
        driver[name].set_defaults(func=_cmd_experiment)
    for name in ("fig4", "fig10"):
        _add_workers(driver[name])
        _add_manifest_dir(driver[name])
        _add_progress(driver[name])
        driver[name].set_defaults(func=_cmd_experiment_grid)

    fig12 = driver["fig12"]
    fig12.add_argument("--mixes", type=int, default=3)
    fig12.add_argument(
        "--engine",
        choices=("vector", "fast", "reference"),
        default="fast",
        help="simulation engine for the shared-LLC runs (vector is "
        "accepted as an alias for fast; reference = original per-access "
        "loop)",
    )
    _add_workers(fig12)
    _add_manifest_dir(fig12)
    _add_progress(fig12)
    fig12.set_defaults(func=_cmd_experiment_fig12)

    objstore = driver["objectstore"]
    objstore.add_argument(
        "--fast",
        action="store_true",
        help="shrink the generated workload 5x, with a smaller catalog",
    )
    _add_manifest_dir(objstore)
    _add_progress(objstore)
    objstore.add_argument(
        "--trace-file",
        default=None,
        help="object trace to replay (any readable trace format; "
        "default: a generated Zipf workload)",
    )
    objstore.add_argument(
        "--accesses",
        type=int,
        default=1_000_000,
        help="requests in the generated workload (ignored with "
        "--trace-file)",
    )
    objstore.add_argument(
        "--capacity-mb",
        type=float,
        default=256.0,
        help="software-cache byte budget in MiB",
    )
    objstore.add_argument(
        "--ttl-ms",
        type=float,
        default=None,
        help="object TTL in trace milliseconds (default: no expiry)",
    )
    objstore.add_argument(
        "--policies",
        default="size-lru,gdsf,tinylfu,pdp",
        help="comma-separated software-cache policies to compare",
    )
    objstore.add_argument(
        "--seed", type=int, default=0, help="generated-workload RNG seed"
    )
    objstore.add_argument(
        "--window-size",
        type=int,
        default=None,
        help="accesses per recorded time-series window "
        "(default: 1/64 of the stream)",
    )
    objstore.set_defaults(func=_cmd_experiment_objectstore)

    explore_p = sub.add_parser(
        "explore",
        help="analytical design-space explorer: predict hit rates for "
        "thousands of (sets, ways, d_p) points from one profiling pass",
    )
    explore_p.add_argument("--benchmark", default=None)
    explore_p.add_argument("--length", type=int, default=40_000)
    explore_p.add_argument("--seed", type=int, default=None)
    explore_p.add_argument(
        "--trace-cache-dir",
        default=None,
        help="cache generated benchmark traces in this directory",
    )
    _add_trace_file(explore_p)
    explore_p.add_argument(
        "--sets",
        type=_parse_int_list,
        default="16,32,64,128,256,512",
        help="comma-separated candidate set counts (powers of two)",
    )
    explore_p.add_argument(
        "--ways",
        type=_parse_int_list,
        default="1,2,4,8,16",
        help="comma-separated candidate associativities",
    )
    explore_p.add_argument(
        "--pd-max", type=int, default=256,
        help="largest candidate protecting distance",
    )
    explore_p.add_argument(
        "--pd-step", type=int, default=4,
        help="candidate PD grid spacing (the canonical pd_grid step)",
    )
    explore_p.add_argument(
        "--d-max", type=int, default=1024,
        help="per-set reuse-distance cap of the rescaled RDD",
    )
    explore_p.add_argument(
        "--top", type=int, default=10,
        help="number of ranked geometries to print",
    )
    explore_p.add_argument(
        "--label", default=None, help="label recorded in the explore manifest"
    )
    _add_manifest_dir(explore_p)
    explore_p.set_defaults(func=_cmd_explore)

    sub.add_parser("overhead", help="hardware overhead report").set_defaults(
        func=_cmd_overhead
    )

    from repro.traces.formats import format_names
    from repro.traces.stream import DEFAULT_CHUNK_SIZE

    trace = sub.add_parser("trace", help="trace-file utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    convert = trace_sub.add_parser(
        "convert",
        help="stream-convert a trace file between formats (O(chunk) memory)",
    )
    convert.add_argument("src", help="source trace file")
    convert.add_argument("dst", help="destination trace file")
    convert.add_argument(
        "--from",
        dest="from_format",
        choices=format_names(),
        default=None,
        help="source format (default: infer from suffix/content)",
    )
    convert.add_argument(
        "--to",
        dest="to_format",
        choices=format_names(),
        default=None,
        help="destination format (default: infer from suffix, else native)",
    )
    convert.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help="accesses copied per chunk",
    )
    convert.add_argument(
        "--name", default=None, help="workload-name metadata override"
    )
    convert.add_argument(
        "--instructions-per-access",
        type=float,
        default=None,
        help="instructions-per-access metadata override",
    )
    convert.set_defaults(func=_cmd_trace_convert)
    info = trace_sub.add_parser(
        "info", help="scan and summarize a trace file (one chunked pass)"
    )
    info.add_argument("path", help="trace file to inspect")
    info.add_argument(
        "--format",
        choices=format_names(),
        default=None,
        help="trace format (default: infer from suffix/content)",
    )
    info.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help="accesses scanned per chunk",
    )
    info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    info.set_defaults(func=_cmd_trace_info)

    def _add_root(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root",
            default=None,
            help="service root directory (default: $REPRO_SERVICE_ROOT)",
        )

    serve = sub.add_parser(
        "serve", help="run the always-on resumable sweep daemon"
    )
    _add_root(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a sweep to the daemon")
    _add_root(submit)
    submit.add_argument(
        "--spec-file",
        default=None,
        help="read the full SweepSpec from this JSON file (overrides the "
        "inline options below)",
    )
    submit.add_argument("--namespace", default="default",
                        help="manifest namespace (the multi-tenant unit)")
    submit.add_argument(
        "--kind",
        choices=("auto", "predict"),
        default="auto",
        help="job kind: auto picks matrix/mix_matrix from the options; "
        "predict runs the analytical explorer (repro.explore) instead "
        "of simulating",
    )
    submit.add_argument("--benchmark", default=None)
    submit.add_argument("--trace-file", default=None)
    submit.add_argument("--trace-format", default=None)
    submit.add_argument("--length", type=int, default=40_000)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--policy",
        action="append",
        help="policy to sweep; repeatable. Either a registered name "
        "('lru') or key=name[:kwargs-json] ('pdp8=pdp:{\"recompute_"
        "interval\": 8192}')",
    )
    submit.add_argument(
        "--mix",
        action="append",
        help="mix_matrix mix as key=bench1,bench2,...; repeatable "
        "(any --mix switches the job kind to mix_matrix)",
    )
    submit.add_argument("--num-sets", type=int, default=64)
    submit.add_argument("--ways", type=int, default=16)
    submit.add_argument("--line-size", type=int, default=64)
    submit.add_argument(
        "--engine", choices=("vector", "fast", "reference"), default="vector"
    )
    submit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per sweep (1 = serial, 0 = auto)",
    )
    submit.add_argument("--window-size", type=int, default=None)
    submit.add_argument(
        "--match-git-sha",
        action="store_true",
        help="only resume from manifests written at the current git SHA",
    )
    submit.add_argument(
        "--force",
        action="store_true",
        help="resume even over a namespace containing corrupt manifests",
    )
    submit.add_argument(
        "--explore-sets",
        type=_parse_int_list,
        default=None,
        help="predict jobs: comma-separated candidate set counts "
        "(default: the explorer's built-in grid)",
    )
    submit.add_argument(
        "--explore-ways",
        type=_parse_int_list,
        default=None,
        help="predict jobs: comma-separated candidate associativities",
    )
    submit.add_argument(
        "--top-k",
        type=int,
        default=0,
        help="predict jobs: auto-submit simulation jobs for this many "
        "predicted-frontier geometries (0 = predictions only)",
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stay attached and stream the job's progress events",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser("jobs", help="list the daemon's jobs")
    _add_root(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    watch = sub.add_parser("watch", help="stream one job's progress events")
    _add_root(watch)
    watch.add_argument("job_id")
    watch.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the event history, follow live events only",
    )
    watch.set_defaults(func=_cmd_watch)

    top = sub.add_parser(
        "top", help="live dashboard of the daemon's queue and latencies"
    )
    _add_root(top)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    top.set_defaults(func=_cmd_top)

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="rebuild a result table from a directory of run manifests",
    )
    summarize.add_argument("directory", help="manifest directory to read")
    summarize.set_defaults(func=_cmd_obs)
    report = obs_sub.add_parser(
        "report",
        help="render a self-contained markdown/HTML report (tables + "
        "window sparklines) from a manifest directory, zero re-simulation",
    )
    report.add_argument("directory", help="manifest directory to read")
    report.add_argument(
        "--html", action="store_true", help="emit HTML instead of markdown"
    )
    report.add_argument("--out", default=None, help="write report to this path")
    report.set_defaults(func=_cmd_obs_report)
    scrape = obs_sub.add_parser(
        "scrape",
        help="fetch the daemon's live metrics snapshot (JSON by default, "
        "Prometheus text exposition with --prom)",
    )
    _add_root(scrape)
    scrape.add_argument(
        "--prom",
        action="store_true",
        help="render Prometheus text exposition instead of JSON",
    )
    scrape.add_argument("--out", default=None, help="write output to this path")
    scrape.set_defaults(func=_cmd_obs_scrape)
    obs_trace = obs_sub.add_parser(
        "trace",
        help="render the span tree of a sweep directory's spans.jsonl "
        "with the critical path highlighted",
    )
    obs_trace.add_argument(
        "directory", help="sweep/manifest directory (or spans.jsonl path)"
    )
    obs_trace.set_defaults(func=_cmd_obs_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — a normal way to end.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
