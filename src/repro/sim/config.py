"""Experiment configurations.

Pure Python cannot simulate the paper's 1B-instruction windows on its
Table 1 machine, so every experiment takes an :class:`ExperimentConfig`
with a scaled LLC geometry and trace length;
``ExperimentConfig.paper_scale()`` restores the full Table 1 LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import CacheGeometry
from repro.memory.timing import TimingModel


@dataclass(frozen=True)
class ExperimentConfig:
    """Scaled experiment parameters shared by tests and benchmarks.

    Attributes:
        llc: LLC geometry (16-way like the paper; fewer sets for speed).
        d_max: maximum protecting distance (256 in the paper).
        step: S_c of the RD counter array (4 single-core, 16 multi-core).
        n_c: RPD bits per line.
        recompute_interval: dynamic-PD recomputation period in accesses
            (512K in the paper; scaled to trace length here).
        trace_length: default single-core trace length.
        timing: the analytic core timing model.
    """

    llc: CacheGeometry = field(default_factory=lambda: CacheGeometry(64, 16))
    d_max: int = 256
    step: int = 4
    n_c: int = 8
    recompute_interval: int = 4096
    trace_length: int = 60_000
    timing: TimingModel = field(default_factory=TimingModel)

    @property
    def associativity(self) -> int:
        """LLC ways (the W of the paper's formulas)."""
        return self.llc.ways

    @property
    def num_sets(self) -> int:
        """LLC set count."""
        return self.llc.num_sets

    @classmethod
    def paper_scale(cls) -> ExperimentConfig:
        """Full Table 1 LLC: 2MB, 16-way, 2048 sets, 512K-access interval."""
        return cls(
            llc=CacheGeometry.from_capacity(2 * 1024 * 1024, ways=16),
            recompute_interval=512 * 1024,
            trace_length=4_000_000,
        )

    @classmethod
    def small(cls) -> ExperimentConfig:
        """Tiny geometry for fast unit tests."""
        return cls(
            llc=CacheGeometry(16, 16),
            recompute_interval=2048,
            trace_length=20_000,
        )

    def shared_llc(self, cores: int) -> CacheGeometry:
        """Shared-LLC geometry: per-core size times the core count (Sec. 5)."""
        return CacheGeometry(
            num_sets=self.llc.num_sets * cores,
            ways=self.llc.ways,
            line_size=self.llc.line_size,
        )


__all__ = ["ExperimentConfig"]
