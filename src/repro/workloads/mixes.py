"""Multi-programmed workload mixes for the shared-LLC experiments (Sec. 5).

The paper generates 80 random 4-core and 16-core workloads from its
benchmark pool, allowing duplicates. A mix completes when each thread has
finished its window; early finishers rewind and keep running, and per-
thread statistics are frozen at first completion. :func:`interleave_traces`
implements exactly that (round-robin interleave with rewind), returning the
per-thread access counts at which statistics should be frozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.traces.trace import Trace
from repro.workloads.spec_like import SINGLE_CORE_SUITE, make_benchmark_trace


@dataclass(frozen=True)
class WorkloadMix:
    """A named multi-programmed workload: one benchmark per core."""

    name: str
    benchmarks: tuple[str, ...]

    @property
    def num_cores(self) -> int:
        return len(self.benchmarks)


def generate_mixes(
    num_mixes: int,
    cores: int,
    seed: int = 42,
    pool: tuple[str, ...] = SINGLE_CORE_SUITE,
) -> list[WorkloadMix]:
    """Random mixes with duplication allowed, as in the paper."""
    rng = random.Random(seed)
    mixes = []
    for index in range(num_mixes):
        benchmarks = tuple(rng.choice(pool) for _ in range(cores))
        mixes.append(WorkloadMix(name=f"mix{cores}c_{index:02d}", benchmarks=benchmarks))
    return mixes


def interleave_traces(
    traces: list[Trace],
    total_length: int | None = None,
) -> tuple[Trace, list[int]]:
    """Round-robin interleave per-thread traces with rewind-on-completion.

    Each thread's addresses are offset into a private address space. The
    interleaved trace runs until every thread has completed its own trace
    at least once (or ``total_length`` accesses, if given).

    Returns:
        (interleaved trace, per-thread completion positions) — the
        completion position is the index in the *interleaved* trace at
        which thread t finished its first pass; per-thread statistics
        should be frozen there (the paper's methodology).
    """
    num_threads = len(traces)
    if num_threads == 0:
        raise ValueError("need at least one trace")
    lengths = [len(trace) for trace in traces]
    if any(length == 0 for length in lengths):
        raise ValueError("all traces must be non-empty")
    if total_length is None:
        total_length = max(lengths) * num_threads
    # Position p belongs to thread p % T at cursor (p // T) % len_t (the
    # modulo is the rewind, paper Sec. 5); each thread's columns sit at
    # base_t in one concatenated column.
    rounds, thread_ids = np.divmod(
        np.arange(total_length, dtype=np.int64), num_threads
    )
    length_of = np.array(lengths, dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(length_of)[:-1]))
    gather = rounds % length_of[thread_ids] + bases[thread_ids]
    addresses = np.concatenate(
        [trace.addresses for trace in traces], dtype=np.int64
    )[gather]
    addresses += thread_ids << 40  # private address space per thread
    pcs = np.concatenate([trace.pcs for trace in traces], dtype=np.int64)[gather]
    # Thread t finishes its first pass at interleaved position
    # (len_t - 1) * T + t; statistics freeze just after it.
    completion = [
        min((length - 1) * num_threads + thread + 1, total_length)
        for thread, length in enumerate(lengths)
    ]
    # The mixed trace's aggregate instructions-per-access is the mean of
    # the per-thread values: round-robin gives every thread an equal share
    # of the interleave, so the unweighted mean IS the access-weighted
    # mean. It is a whole-mix diagnostic only — ``run_shared_llc`` applies
    # each thread's own IPA when converting frozen access counts to
    # instructions, so heterogeneous mixes stay correct per thread.
    mean_ipa = sum(trace.instructions_per_access for trace in traces) / num_threads
    mixed = Trace(
        addresses,
        pcs=pcs,
        thread_ids=thread_ids,
        name="+".join(trace.name for trace in traces),
        instructions_per_access=mean_ipa,
    )
    return mixed, completion


def make_mix_traces(
    mix: WorkloadMix,
    length_per_thread: int = 20_000,
    num_sets: int = 64,
) -> list[Trace]:
    """Per-thread traces for a mix (distinct seeds per slot)."""
    return [
        make_benchmark_trace(
            name,
            length=length_per_thread,
            num_sets=num_sets,
            seed=1000 + 97 * slot,
        )
        for slot, name in enumerate(mix.benchmarks)
    ]


__all__ = ["WorkloadMix", "generate_mixes", "interleave_traces", "make_mix_traces"]
