#!/usr/bin/env python
"""CI smoke test for the sweep service: kill mid-sweep, restart, resume.

Black-box exercise of the full daemon lifecycle over real subprocesses
and the real unix-socket protocol:

1. start ``python -m repro serve`` on a scratch root,
2. submit a deliberately slow sweep (reference engine),
3. SIGTERM the daemon once some — but not all — cell manifests exist,
4. verify the job record was persisted back to ``queued``/interrupted,
5. restart the daemon, watch the job to completion,
6. assert every cell is accounted for (skipped + ran == total), the
   skipped count equals the manifests that survived the kill, and the
   namespace holds exactly one cell manifest per policy,
7. assert the restarted daemon's trace memo started empty: the resumed
   job built its trace anew (one miss, no hit),
8. hit the live daemon's ``stats`` verb (queue depth, jobs-by-state,
   latency percentiles) and run ``repro obs scrape --prom`` once,
   validating the Prometheus text exposition,
9. submit one ``predict`` job twice in its own namespace: the first
   runs its one ``explore`` cell, the resubmit skips it and takes its
   trace from the memo (one more hit), and ``repro obs trace`` on the
   namespace lists the ``cell:explore`` span.

Exits non-zero (with a diagnostic) on any violation. Usage::

    python tools/service_smoke.py [--root DIR]

Stdlib + repro only; run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.manifest import scan_manifests  # noqa: E402
from repro.service.jobs import SweepSpec  # noqa: E402
from repro.service.protocol import ServiceClient, service_socket  # noqa: E402

POLICIES = ["lru", "fifo", "random", "srrip", "drrip", "pdp"]
NAMESPACE = "smoke"
PREDICT_NAMESPACE = "smoke-predict"


def fail(message: str) -> None:
    """Print a diagnostic and exit non-zero."""
    print(f"SERVICE SMOKE FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_daemon(root: Path) -> subprocess.Popen:
    """Launch ``repro serve`` and wait for its socket to appear."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root)],
        env=env,
        cwd=REPO_ROOT,
    )
    sock = service_socket(root)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if sock.exists():
            return proc
        if proc.poll() is not None:
            fail(f"daemon exited early with code {proc.returncode}")
        time.sleep(0.1)
    proc.kill()
    fail("daemon did not bind its socket within 30s")
    raise AssertionError  # unreachable


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM the daemon, escalating to SIGKILL if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)


def cell_manifests(namespace_dir: Path) -> list:
    """The ``llc`` cell manifests currently in the namespace."""
    return [m for m in scan_manifests(namespace_dir).manifests if m.kind == "llc"]


def trace_memo(root: Path) -> dict:
    """The live daemon's trace memo counters (``stats`` verb)."""
    with ServiceClient(service_socket(root)) as client:
        stats = client.stats()
    if "trace_memo" not in stats:
        fail(f"stats payload missing 'trace_memo': {sorted(stats)}")
    return stats["trace_memo"]


def verify_memo_started_empty(root: Path) -> None:
    """After one job on a freshly started daemon, its trace memo holds
    exactly that job's trace and has never hit: nothing survives a
    restart but the manifests the resume rides on."""
    memo = trace_memo(root)
    if memo["hits"] != 0 or memo["misses"] != 1 or memo["entries"] != 1:
        fail(f"restarted daemon's trace memo did not start empty: {memo}")
    print(f"[smoke] trace memo OK after restart: {memo}")


def verify_stats_and_scrape(root: Path) -> None:
    """Hit the live daemon's ``stats`` verb and ``repro obs scrape --prom``.

    The daemon must answer with queue depth, jobs-by-state, and latency
    percentiles, and the Prometheus scrape must emit text exposition —
    the observability acceptance surface of the live service.
    """
    with ServiceClient(service_socket(root)) as client:
        stats = client.stats()
    if not stats.get("ok"):
        fail(f"stats verb refused: {stats}")
    for key in ("queue_depth", "jobs_by_state", "percentiles", "metrics"):
        if key not in stats:
            fail(f"stats payload missing {key!r}: {sorted(stats)}")
    runtime = stats["percentiles"].get("service.job_runtime_s")
    if not runtime or not runtime.get("count"):
        fail(f"stats has no job runtime histogram: {stats['percentiles']}")
    print(
        f"[smoke] stats OK: queue={stats['queue_depth']} "
        f"jobs={stats['jobs_by_state']} "
        f"job p50={runtime['p50']:.3f}s p99={runtime['p99']:.3f}s"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    scrape = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "scrape",
         "--root", str(root), "--prom"],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if scrape.returncode != 0:
        fail(f"obs scrape --prom exited {scrape.returncode}: {scrape.stderr}")
    if "# TYPE repro_service_job_runtime_s histogram" not in scrape.stdout:
        fail(f"scrape output lacks the job runtime histogram:\n{scrape.stdout}")
    print("[smoke] prometheus scrape OK "
          f"({len(scrape.stdout.splitlines())} lines)")


def verify_predict_resume(root: Path) -> None:
    """Submit one ``predict`` job twice in its own namespace.

    The predict job is a one-cell grid under the same resume rule as a
    matrix job: the first submission runs its ``explore`` cell, the
    resubmit skips it, and the namespace's run log shows the cell.
    """
    spec = SweepSpec(
        kind="predict",
        benchmark="403.gcc",
        length=20_000,
        namespace=PREDICT_NAMESPACE,
        explore_sets=[16, 64],
        explore_ways=[4, 16],
    )
    done = []
    memo = [trace_memo(root)]
    with ServiceClient(service_socket(root), timeout=600) as client:
        for _ in range(2):
            job = client.submit(spec.to_dict())
            done.append(list(client.watch(job["job_id"]))[-1]["done"])
            memo.append(trace_memo(root))
    first, second = done
    if first["state"] != "done" or first["ran_cells"] != 1:
        fail(f"first predict job: expected 1 ran cell, got {first}")
    if second["state"] != "done" or second["skipped_cells"] != 1:
        fail(f"resubmitted predict job: expected 1 skipped cell, got {second}")
    before, after_first, after_second = memo
    if after_first["misses"] != before["misses"] + 1:
        fail(f"first predict job: expected a trace memo miss, got {memo}")
    if after_second["hits"] != after_first["hits"] + 1:
        fail(f"resubmitted predict job: expected a trace memo hit, got {memo}")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    trace = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "trace",
         str(root / "namespaces" / PREDICT_NAMESPACE)],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if trace.returncode != 0:
        fail(f"obs trace exited {trace.returncode}: {trace.stderr}")
    if "cell:explore" not in trace.stdout:
        fail(f"obs trace lacks the cell:explore span:\n{trace.stdout}")
    print("[smoke] predict OK: first job ran 1 cell, resubmit skipped 1 "
          "and hit the trace memo; obs trace lists cell:explore")


def main() -> int:
    """Run the interrupted-then-resumed smoke scenario."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None, help="service root (default: a temp dir)"
    )
    args = parser.parse_args()
    scratch = (
        tempfile.mkdtemp(prefix="repro-service-smoke-")
        if args.root is None
        else args.root
    )
    root = Path(scratch)
    namespace_dir = root / "namespaces" / NAMESPACE
    spec = SweepSpec(
        benchmark="429.mcf",
        length=250_000,
        engine="reference",  # slow on purpose so the kill lands mid-sweep
        policies=list(POLICIES),
        namespace=NAMESPACE,
    )

    print(f"[smoke] root={root}")
    proc = start_daemon(root)
    try:
        with ServiceClient(service_socket(root)) as client:
            job = client.submit(spec.to_dict())
        job_id = job["job_id"]
        print(f"[smoke] submitted {job_id} ({len(POLICIES)} cells)")

        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if len(cell_manifests(namespace_dir)) >= 2:
                break
            time.sleep(0.2)
        else:
            fail("no cell manifests appeared within 180s")
    finally:
        stop_daemon(proc)

    survivors = len(cell_manifests(namespace_dir))
    print(f"[smoke] killed daemon with {survivors} cell manifest(s) durable")
    record = json.loads((root / "jobs" / f"{job_id}.json").read_text())
    if record["state"] == "done":
        # Machine outran the kill — the resume path wasn't exercised, but
        # the lifecycle still holds; verify completion and succeed.
        print("[smoke] sweep finished before SIGTERM (fast machine); "
              "resume not exercised")
        if survivors < len(POLICIES):
            fail(f"job done but only {survivors} cell manifests exist")
        proc = start_daemon(root)
        try:
            # metrics live in the daemon process: give the fresh daemon
            # one (all-skip) job so its latency histograms are non-empty
            with ServiceClient(service_socket(root), timeout=600) as client:
                rerun = client.submit(spec.to_dict())
                list(client.watch(rerun["job_id"]))
            verify_memo_started_empty(root)
            verify_stats_and_scrape(root)
            verify_predict_resume(root)
        finally:
            stop_daemon(proc)
        return 0
    if record["state"] != "queued" or not record["interrupted"]:
        fail(
            f"expected queued/interrupted after SIGTERM, got "
            f"{record['state']}/interrupted={record['interrupted']}"
        )
    if not 0 < survivors < len(POLICIES):
        fail(f"expected a partial sweep, found {survivors} cell manifests")

    print("[smoke] restarting daemon; watching the recovered job")
    proc = start_daemon(root)
    try:
        with ServiceClient(service_socket(root), timeout=600) as client:
            responses = list(client.watch(job_id))
        done = responses[-1]["done"]
        verify_memo_started_empty(root)
        verify_stats_and_scrape(root)
        verify_predict_resume(root)
    finally:
        stop_daemon(proc)

    if done["state"] != "done":
        fail(f"resumed job ended {done['state']}: {done.get('error')}")
    if done["skipped_cells"] != survivors:
        fail(
            f"resume skipped {done['skipped_cells']} cells but "
            f"{survivors} manifests survived the kill"
        )
    if done["skipped_cells"] + done["ran_cells"] != len(POLICIES):
        fail(
            f"cells unaccounted for: skipped {done['skipped_cells']} + "
            f"ran {done['ran_cells']} != {len(POLICIES)}"
        )
    final = cell_manifests(namespace_dir)
    labels = sorted(m.label for m in final)
    if labels != sorted(POLICIES):
        fail(f"expected one manifest per policy, found {labels}")
    print(
        f"[smoke] OK: resumed job skipped {done['skipped_cells']} and ran "
        f"{done['ran_cells']} of {len(POLICIES)} cells; "
        f"{len(final)} cell manifests total"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
