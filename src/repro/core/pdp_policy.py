"""The Protecting Distance based Policy (PDP) — Sec. 2.2 of the paper.

Every line carries a Remaining Protecting Distance (RPD), set to the
current PD on insertion and promotion and decremented on every access to
the set (saturating at 0). A line is *protected* while its RPD exceeds 0;
only unprotected lines are eviction candidates.

When no unprotected line exists:

- inclusive cache (no bypass, SPDP-NB flavour): replace the *inserted*
  (never reused) line with the highest RPD; if all lines were reused,
  replace the reused line with the highest RPD — this needs the per-line
  reuse bit the cache already keeps;
- non-inclusive cache (bypass, SPDP-B flavour): bypass the fill entirely,
  further protecting resident lines. No reuse bit is needed.

RPD storage is n_c bits. For n_c < log2(d_max) the policy uses the
Distance Step S_d = d_max / 2^n_c: a per-set counter decrements all RPDs
once every S_d accesses, and PDs quantize to S_d units (Sec. 3, "Cache tag
overhead"). The paper evaluates n_c of 2, 3 and 8 (PDP-2/3/8, Fig. 10).

With ``static_pd`` set, this is the static SPDP of Sec. 2.3; otherwise a
:class:`repro.core.pd_engine.PDEngine` recomputes the PD periodically.

This class is the whole PDP family's replacement logic. A subclass that
gives different accesses different PDs — class-based PDP (Sec. 6.3), PD
partitioning (Sec. 4) — sets ``num_classes`` (and ``max_peaks`` for the
joint search) and overrides only :meth:`PDPPolicy._class_of`. Each access's
class is computed once, in :meth:`on_access`, and reused by the hit and
fill hooks; S_d follows the largest PD in force.
"""

from __future__ import annotations

from repro.core.pd_engine import PDEngine
from repro.policies.base import ReplacementPolicy, register_policy
from repro.types import Access


@register_policy("pdp")
class PDPPolicy(ReplacementPolicy):
    """PDP replacement with optional bypass and dynamic PD.

    Args:
        static_pd: fix the PD (SPDP); ``None`` enables the dynamic engine.
        bypass: non-inclusive behaviour — bypass when all lines are
            protected (SPDP-B / PDP with bypass).
        n_c: bits of RPD storage per line (8, 3 or 2 in the paper).
        d_max: maximum protecting distance (256).
        step: S_c granularity of the RD counter array.
        recompute_interval: accesses between dynamic PD recomputations.
        sampler_mode: "real" or "full" RD sampler (Fig. 9).
        insertion_pd: protect *inserted* lines for this distance instead
            of the computed PD; promotions still use the PD. The paper's
            Sec. 6.3 mcf study sets this to 1 ("mostly unprotected") and
            gains 8% over DIP — dead-on-arrival lines retire immediately
            while established lines stay protected.
    """

    def __init__(
        self,
        static_pd: int | None = None,
        bypass: bool = True,
        n_c: int = 8,
        d_max: int = 256,
        step: int = 4,
        recompute_interval: int = 4096,
        sampler_mode: str = "real",
        insertion_pd: int | None = None,
    ) -> None:
        super().__init__()
        if n_c < 1:
            raise ValueError(f"n_c must be >= 1, got {n_c}")
        if insertion_pd is not None and insertion_pd < 1:
            raise ValueError(f"insertion_pd must be >= 1, got {insertion_pd}")
        self.static_pd = static_pd
        self.bypass = bypass
        self.supports_bypass = bypass
        self.n_c = n_c
        self.d_max = d_max
        self.step = step
        self.recompute_interval = recompute_interval
        self.sampler_mode = sampler_mode
        self.insertion_pd = insertion_pd
        self.rpd_max = (1 << n_c) - 1
        # Distance step S_d: RPDs tick once every distance_step accesses.
        # The step adapts to the PD in force so a small PD is not rounded
        # up to a whole d_max/2^n_c-access tick; the paper only bounds S_d
        # from above by d_max / 2^n_c.
        self.max_distance_step = max(1, d_max // (1 << n_c))
        self.distance_step = self._step_for(static_pd if static_pd else d_max)
        self.engine: PDEngine | None = None
        #: Access classes with their own PD, and the joint-search peak
        #: count (``None``: each class searched alone); set by subclasses.
        self.num_classes = 1
        self.max_peaks: int | None = None
        self._class = 0

    # -- wiring ------------------------------------------------------------

    def _allocate(self, num_sets: int, ways: int) -> None:
        self._ways = ways
        self._rpd = [[0] * ways for _ in range(num_sets)]
        self._step_counter = [0] * num_sets
        if self.static_pd is None:
            self.engine = PDEngine(
                num_sets,
                associativity=ways,
                d_max=self.d_max,
                step=self.step,
                recompute_interval=self.recompute_interval,
                sampler_mode=self.sampler_mode,
                num_classes=self.num_classes,
                max_peaks=self.max_peaks,
            )

    @property
    def current_pd(self) -> int | None:
        """The protecting distance in force right now; ``None`` when
        several access classes each have their own."""
        if self.static_pd is not None:
            return self.static_pd
        return None if self.engine is None else self.engine.current_pd

    def _class_of(self, access: Access) -> int:
        """The access class whose PD protects ``access``'s line."""
        return 0

    def _pds_changed(self) -> None:
        """Re-derive S_d after a recompute, from the largest PD in force."""
        self.distance_step = self._step_for(max(self.engine.pds))

    def _step_for(self, pd: int) -> int:
        """S_d giving the PD full n_c-bit resolution, capped at the paper's
        d_max / 2^n_c bound."""
        return min(self.max_distance_step, max(1, -(-pd // self.rpd_max)))

    def _insertion_rpd(self) -> int:
        """Quantize the current access's PD to n_c-bit RPD units."""
        engine = self.engine
        pd = self.static_pd if engine is None else engine.pds[self._class]
        units = -(-pd // self.distance_step)  # ceil division
        return min(self.rpd_max, max(1, units))

    # -- hooks ---------------------------------------------------------------

    def on_access(self, set_index: int, access: Access) -> None:
        engine = self.engine
        if engine is not None:
            access_class = self._class = self._class_of(access)
            if engine.observe(set_index, access.address, access_class):
                self._pds_changed()
        # Count every access, including ones that will bypass (Sec. 3:
        # the per-set counter counts bypasses too).
        counter = self._step_counter[set_index] + 1
        if counter >= self.distance_step:
            row = self._rpd[set_index]
            for way in range(self._ways):
                if row[way] > 0:
                    row[way] -= 1
            counter = 0
        self._step_counter[set_index] = counter

    def on_hit(self, set_index: int, way: int, access: Access) -> None:
        self._rpd[set_index][way] = self._insertion_rpd()

    def choose_victim(self, set_index: int, access: Access) -> int | None:
        row = self._rpd[set_index]
        for way in range(self._ways):
            if row[way] == 0:
                return way
        if self.bypass:
            return None
        # Inclusive fallback: youngest inserted line first, then youngest
        # reused line ("youngest" = highest RPD).
        reused = self.cache.reused[set_index]
        inserted_ways = [way for way in range(self._ways) if not reused[way]]
        candidates = inserted_ways if inserted_ways else list(range(self._ways))
        return max(candidates, key=row.__getitem__)

    def on_fill(self, set_index: int, way: int, access: Access) -> None:
        if self.insertion_pd is not None:
            units = -(-self.insertion_pd // self.distance_step)
            self._rpd[set_index][way] = min(self.rpd_max, max(1, units))
        else:
            self._rpd[set_index][way] = self._insertion_rpd()

    # -- introspection --------------------------------------------------------

    def protected_count(self, set_index: int) -> int:
        """Number of currently protected lines in ``set_index``."""
        return sum(1 for value in self._rpd[set_index] if value > 0)

    def rpd_of(self, set_index: int, way: int) -> int:
        """Current RPD (in S_d units) of one line."""
        return self._rpd[set_index][way]


def make_spdp_nb(pd: int, **kwargs) -> PDPPolicy:
    """Static PDP without bypass (the paper's SPDP-NB)."""
    return PDPPolicy(static_pd=pd, bypass=False, **kwargs)


def make_spdp_b(pd: int, **kwargs) -> PDPPolicy:
    """Static PDP with bypass (the paper's SPDP-B)."""
    return PDPPolicy(static_pd=pd, bypass=True, **kwargs)


__all__ = ["PDPPolicy", "make_spdp_b", "make_spdp_nb"]
