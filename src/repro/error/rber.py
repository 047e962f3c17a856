"""Raw bit error rate (RBER) model.

The model has two ingredients:

1. a **base curve** for conventionally-programmed cells that grows as a
   power law of the block's P/E count (wear-out), anchored at the fresh
   RBER and the measured reference point (2.8e-4 at 4000 P/E), and

2. **program-disturb increments** added per partial-program pass: every
   pass adds ``disturb_unit(pe)`` to the RBER of in-page cells that were
   already programmed, and ``neighbor_disturb_ratio`` times that amount to
   cells of the two adjacent pages.

``disturb_unit`` is calibrated so that a subpage that suffered the full
budget of partial passes (``max_page_programs - 1`` of them, i.e. the
MGA-style fully-packed page) lands on the measured partial-programming
curve (3.8e-4 at 4000 P/E).  The unit scales with the base curve, so the
conventional/partial gap widens with wear exactly as Figure 2 shows.
"""

from __future__ import annotations

import numpy as np

from ..config import ReliabilityConfig
from ..errors import ConfigError
from ..units import PeCycles


class RberModel:
    """RBER as a function of wear, cell mode and disturb history."""

    def __init__(self, config: ReliabilityConfig):
        config.validate()
        self.config = config
        ref = float(config.reference_pe_cycles)
        self._ref_pe = ref
        self._fresh = config.rber_fresh
        self._span = config.rber_conventional_ref - config.rber_fresh
        self._alpha = config.pe_exponent
        passes = max(1, config.max_page_programs - 1)
        self._unit_ref = (config.rber_partial_ref - config.rber_conventional_ref) / passes
        if self._unit_ref < 0:
            raise ConfigError("partial RBER reference below conventional reference")
        # Replays evaluate the curves at a handful of distinct P/E counts
        # millions of times; memoising the exact returned float is
        # byte-identical to recomputation.
        self._base_cache: dict[tuple[float, bool], float] = {}
        self._unit_cache: dict[float, float] = {}

    # -- base curves -----------------------------------------------------

    def base(self, pe: PeCycles, slc: bool = True) -> float:
        """Conventional-programming RBER at ``pe`` P/E cycles."""
        cached = self._base_cache.get((pe, slc))
        if cached is not None:
            return cached
        if pe < 0:
            raise ConfigError(f"negative P/E count {pe}")
        value = self._fresh + self._span * (pe / self._ref_pe) ** self._alpha
        if not slc:
            value *= self.config.mlc_rber_factor
        self._base_cache[(pe, slc)] = value
        return value

    def disturb_unit(self, pe: PeCycles) -> float:
        """In-page disturb RBER increment of one partial-program pass.

        Scales with the base curve so the conventional/partial gap grows
        with wear (Section 2.2: "the bit error rate difference becomes
        more pronounced as the P/E cycle is getting large").
        """
        cached = self._unit_cache.get(pe)
        if cached is not None:
            return cached
        ref_base = self.base(self._ref_pe, slc=True)
        value = self._unit_ref * (self.base(pe, slc=True) / ref_base)
        self._unit_cache[pe] = value
        return value

    def partial_typical(self, pe: PeCycles) -> float:
        """RBER of a subpage that received the full partial-program budget.

        This is the "partial programming" curve of Figure 2.
        """
        passes = max(1, self.config.max_page_programs - 1)
        return self.base(pe, slc=True) + passes * self.disturb_unit(pe)

    # -- per-subpage evaluation -------------------------------------------

    def rber_many(
        self,
        pe: float,
        slc: bool,
        n_in: np.ndarray,
        n_nb: np.ndarray,
        read_disturb: float = 0.0,
    ) -> np.ndarray:
        """Array RBER kernel: price many subpages of one block at once.

        The disturb-count arrays come straight off the flat
        :class:`~repro.nand.state.RegionState` counters (a GC drain span,
        a flush span), so a whole relocation prices in one call.  The
        expression is *operation-for-operation* the scalar loop of
        ``FlashArray.read_list`` — ``base + unit * (n_in + ratio *
        n_nb)``, then ``+ read_disturb`` — over float64, so every element
        is bit-identical to the per-slot scalar evaluation (int64 disturb
        counts convert to float64 exactly).  ``read_disturb`` is the
        caller's precomputed ``read_count * ratio * unit`` term.
        """
        unit = self.disturb_unit(pe)
        ratio = self.config.neighbor_disturb_ratio
        rbers = self.base(pe, slc) + unit * (
            n_in.astype(np.float64) + ratio * n_nb.astype(np.float64)
        )
        if read_disturb:
            rbers = rbers + read_disturb
        return rbers

    # -- figure 2 helper ---------------------------------------------------

    def curve(self, pe_values: "list[float] | np.ndarray") -> dict[str, np.ndarray]:
        """Conventional and partial RBER curves over ``pe_values`` (Fig. 2)."""
        pes = np.asarray(pe_values, dtype=np.float64)
        conventional = np.array([self.base(p, slc=True) for p in pes],
                                dtype=np.float64)
        partial = np.array([self.partial_typical(p) for p in pes],
                           dtype=np.float64)
        return {"pe": pes, "conventional": conventional, "partial": partial}
