"""RDD profile specifications for the synthetic workload generators.

A profile is a mixture of components; each component either re-references a
block at a controlled reuse distance (a *peak* or *band* of the RDD) or
touches a fresh block (*infinite* distance — compulsory/streaming traffic).
Each component owns a pool of program counters, so PC-based predictors
(SDP) see either informative or misleading PC streams depending on the
profile's ``pc_informative`` flag.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate


@dataclass(frozen=True, slots=True)
class MixtureComponent:
    """One component of an RDD profile.

    Attributes:
        weight: relative probability of this component.
        low / high: inclusive reuse-distance band; ``None`` low/high means
            an *infinite* component (always touch a fresh block).
        pc_pool: number of distinct PCs this component issues.
        pc_group: components sharing a group id issue from the same PC
            pool — modelling one static load instruction whose blocks are
            reused at several distances (PC-based predictors generalize
            across the group). ``None`` gives the component its own pool.
    """

    weight: float
    low: int | None = None
    high: int | None = None
    pc_pool: int = 4
    pc_group: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if (self.low is None) != (self.high is None):
            raise ValueError("low and high must both be set or both be None")
        if self.low is not None and not 1 <= self.low <= self.high:
            raise ValueError(f"invalid distance band [{self.low}, {self.high}]")
        if self.pc_pool < 1:
            raise ValueError(f"pc_pool must be positive, got {self.pc_pool}")

    @property
    def is_infinite(self) -> bool:
        return self.low is None


def peak(
    center: int,
    width: int,
    weight: float,
    pc_pool: int = 4,
    pc_group: int | None = None,
) -> MixtureComponent:
    """A narrow RDD peak centered at ``center`` with half-width ``width``."""
    low = max(1, center - width)
    return MixtureComponent(
        weight=weight, low=low, high=center + width, pc_pool=pc_pool, pc_group=pc_group
    )


def band(
    low: int,
    high: int,
    weight: float,
    pc_pool: int = 4,
    pc_group: int | None = None,
) -> MixtureComponent:
    """A flat RDD band over [low, high]."""
    return MixtureComponent(
        weight=weight, low=low, high=high, pc_pool=pc_pool, pc_group=pc_group
    )


def fresh(
    weight: float, pc_pool: int = 2, pc_group: int | None = None
) -> MixtureComponent:
    """Compulsory/streaming traffic: always a never-seen block."""
    return MixtureComponent(weight=weight, pc_pool=pc_pool, pc_group=pc_group)


@dataclass(frozen=True)
class RDDProfile:
    """A named mixture of RDD components.

    Attributes:
        name: benchmark-style name.
        components: the mixture.
        pc_informative: when True each component uses a private PC pool
            (PC-based dead-block prediction works well); when False all
            components share one pool (PC prediction is misleading).
        instructions_per_access: dilution factor for MPKI accounting —
            how many dynamic instructions each LLC-side access represents.
    """

    name: str
    components: tuple[MixtureComponent, ...]
    pc_informative: bool = True
    instructions_per_access: float = 20.0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("profile needs at least one component")

    @cached_property
    def total_weight(self) -> float:
        return sum(component.weight for component in self.components)

    @cached_property
    def cumulative_weights(self) -> tuple[float, ...]:
        """Running weight sums, accumulated left to right in component order."""
        return tuple(accumulate(component.weight for component in self.components))

    def choose_component(self, rng: random.Random) -> int:
        """Index of a component drawn with probability ~ weight.

        The first component whose running sum exceeds the draw; rounding
        can leave the draw at or above the last sum, which clamps to the
        last component.
        """
        draw = rng.random() * self.total_weight
        index = bisect_right(self.cumulative_weights, draw)
        return min(index, len(self.components) - 1)


__all__ = ["MixtureComponent", "RDDProfile", "band", "fresh", "peak"]
