"""Hot/cold scoring: the ISR metric of Equations 1 and 2.

The IPU GC policy scores a candidate block ``i`` by its *invalid subpage
ratio*::

    ISR_i = (IS_i + IS'_i) / TS_i                               (Eq. 1)

where ``IS_i`` counts invalidated subpages, ``TS_i`` counts all subpages,
and ``IS'_i`` weights the *never-updated* valid subpages by how cold they
look::

    IS'_i = sum_j (1 - exp(-t_ij / T))                          (Eq. 2)

``t_ij`` is the time since subpage ``j`` was last accessed and ``T`` is
the mean access interval over "all subpages" — we read that as the
*region-wide* mean (over every candidate block's valid subpages): a
block-local mean would make a uniformly-aged block score a constant
``1 - 1/e`` per subpage regardless of how long it has actually been idle,
destroying exactly the cross-block cold/hot discrimination Figure 4
illustrates.  Under the paper's Poisson-update assumption, ``1 -
exp(-t/T)`` is the probability that a subpage with mean interval ``T``
would already have been updated after ``t`` — how confidently the data
can be called cold.
"""

from __future__ import annotations

import numpy as np

from ..nand.block import Block
from ..units import Ms


def coldness_weight(t_ij: np.ndarray, t_mean: float) -> np.ndarray:
    """``1 - exp(-t_ij / T)`` with a guard for a degenerate mean."""
    if t_mean <= 0.0:
        return np.zeros_like(np.asarray(t_ij, dtype=np.float64))
    return 1.0 - np.exp(-np.asarray(t_ij, dtype=np.float64) / t_mean)


def block_age_sum(block: Block, now: Ms) -> tuple[float, int]:
    """Sum of valid-subpage ages and their count (region-mean ingredient)."""
    slot_time = block.slot_time
    if slot_time is None:
        raise ValueError("age accounting is defined for SLC-mode blocks only")
    if block.n_valid == 0:
        return 0.0, 0
    times = slot_time[block.valid]
    return float(block.n_valid * now - times.sum()), block.n_valid


def block_coldness(block: Block, now: Ms, t_mean: float | None = None) -> float:
    """``IS'_i`` of Equation 2 for one SLC-mode block.

    The index set J contains the valid subpages of pages whose resident
    data was never updated while in this block; an intra-page update both
    invalidates old slots and marks the page updated, so everything still
    valid in a non-updated page is by definition not-yet-updated data.

    ``t_mean`` is the mean access interval ``T``; when omitted, the
    block's own mean valid-subpage age is used (self-normalised variant).
    """
    slot_time = block.slot_time
    if slot_time is None:
        raise ValueError("IS' is defined for SLC-mode blocks only")
    if block.n_valid == 0:
        return 0.0
    if t_mean is None:
        age_sum, count = block_age_sum(block, now)
        t_mean = age_sum / count
    valid = block.valid
    page_updated = block.page_updated
    if not page_updated.any():
        # Common case (no update ever hit this block): J covers every
        # valid subpage.
        ages = now - slot_time[valid]
        return float(coldness_weight(ages, t_mean).sum())
    never_updated = valid & ~page_updated[:, None]
    if not never_updated.any():
        return 0.0
    ages_cold = now - slot_time[never_updated]
    return float(coldness_weight(ages_cold, t_mean).sum())


def block_isr(block: Block, now: Ms, t_mean: float | None = None) -> float:
    """``ISR_i`` of Equation 1."""
    return (block.n_invalid + block_coldness(block, now, t_mean)) / block.total_subpages
