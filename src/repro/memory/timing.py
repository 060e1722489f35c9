"""Analytic core timing model.

The paper models an 8-deep, 4-wide out-of-order core (Table 1) in CMP$im.
We substitute a penalty-based model: cycles are issue cycles plus per-level
stall penalties, divided by a memory-level-parallelism (MLP) factor that
stands in for out-of-order overlap. The model is monotone in miss counts,
which is what the paper's relative IPC comparisons rely on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Latency parameters, defaulting to the paper's Table 1.

    Attributes:
        issue_width: instructions retired per cycle at best.
        l1_latency: cycles for an L1 hit (hidden by the pipeline).
        l2_latency / llc_latency / memory_latency: total load-to-use cycles
            for hits at each level.
        mlp: average overlap factor applied to stall cycles.
    """

    issue_width: int = 4
    l1_latency: int = 2
    l2_latency: int = 10
    llc_latency: int = 30
    memory_latency: int = 200
    mlp: float = 2.0

    def cycles(
        self,
        instructions: int,
        l2_hits: int,
        llc_hits: int,
        memory_accesses: int,
    ) -> float:
        """Total cycles for a run with the given service counts."""
        issue_cycles = instructions / self.issue_width
        stall_cycles = (
            l2_hits * (self.l2_latency - self.l1_latency)
            + llc_hits * (self.llc_latency - self.l1_latency)
            + memory_accesses * (self.memory_latency - self.l1_latency)
        )
        return issue_cycles + stall_cycles / self.mlp

    def ipc(
        self,
        instructions: int,
        l2_hits: int,
        llc_hits: int,
        memory_accesses: int,
    ) -> float:
        """Instructions per cycle under this model."""
        total = self.cycles(instructions, l2_hits, llc_hits, memory_accesses)
        return instructions / total if total > 0 else 0.0


__all__ = ["TimingModel"]
