"""Class-based PDP — the paper's Sec. 6.3 improvement direction.

Sec. 6.3: "the PDP can be improved by grouping lines into different
classes, each with its own PD, and where most of the lines are reused.
The lines in a class are protected until its PD only, thus they are not
overprotected if they are not reused. ... A popular way is using the
program counters."

This policy hashes each access's PC into a small number of classes; the
shared :class:`repro.core.pd_engine.PDEngine` keeps one RD counter array
per class (fed by its one RD sampler) and computes one protecting distance
per class at every recompute interval. A line's RPD comes from the class
of the access that inserted or promoted it, so a streaming PC's lines
retire quickly while a reusing PC's lines are protected to their own reuse
point — per-class what dynamic PDP does globally.

Storage: the per-line class id costs log2(num_classes) extra tag bits and
the counter array is replicated per class; the paper flags exactly this
hardware trade-off.
"""

from __future__ import annotations

from repro.core.pdp_policy import PDPPolicy
from repro.policies.base import register_policy
from repro.types import Access


@register_policy("pdp-classified")
class ClassifiedPDPPolicy(PDPPolicy):
    """PDP with per-PC-class protecting distances (n_c = 8 RPDs).

    Args:
        num_classes: PC-hash classes (a power of two; 4 by default).
        bypass: non-inclusive bypass when every line is protected.
        d_max / step / recompute_interval / sampler_mode: as for
            :class:`repro.core.pdp_policy.PDPPolicy`.
    """

    def __init__(
        self,
        num_classes: int = 4,
        bypass: bool = True,
        d_max: int = 256,
        step: int = 4,
        recompute_interval: int = 4096,
        sampler_mode: str = "real",
    ) -> None:
        if num_classes < 1 or num_classes & (num_classes - 1):
            raise ValueError(f"num_classes must be a power of two, got {num_classes}")
        super().__init__(
            bypass=bypass,
            d_max=d_max,
            step=step,
            recompute_interval=recompute_interval,
            sampler_mode=sampler_mode,
        )
        self.num_classes = num_classes

    def classify(self, pc: int) -> int:
        """Class of a program counter (xor-folded hash)."""
        folded = (pc ^ (pc >> 7) ^ (pc >> 13)) & 0xFFFF
        return folded % self.num_classes

    def _class_of(self, access: Access) -> int:
        return self.classify(access.pc)


__all__ = ["ClassifiedPDPPolicy"]
