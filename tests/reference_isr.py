"""Reference ISR arithmetic: Equations 1 and 2 evaluated from scratch.

:class:`repro.ftl.victim.IsrVictimPolicy` scores candidates from a
cache: a block's age sum is shifted with the clock and its coldness
(Eq. 2) is reused while its content, its age and the region mean ``T``
hold.  The functions here keep nothing between calls.  Each age sum,
each ``T`` and each Eq. 2 term is computed fresh, so tests can measure
what the cache changes.

* :func:`block_coldness` adds the *self-normalised* variant (``T`` is
  the block's own mean valid-subpage age) to the simulator's Eq. 2.
* :func:`block_isr` is Eq. 1 for one block.
* :func:`ref_isr` is an exact victim scan: region-wide ``T`` summed left
  to right in ascending ``block_id``, fresh Eq. 2, the lowest id on a
  tie.
"""

from __future__ import annotations

from repro.ftl import hotcold
from repro.ftl.hotcold import block_age_sum
from repro.nand.block import Block

__all__ = ["block_coldness", "block_isr", "ref_isr"]


def block_coldness(block: Block, now: float,
                   t_mean: float | None = None) -> float:
    """``IS'_i`` of Equation 2; without ``t_mean`` the block's own mean
    valid-subpage age is ``T``."""
    if t_mean is None:
        age_sum, count = block_age_sum(block, now)
        t_mean = age_sum / count if count else 0.0
    return hotcold.block_coldness(block, now, t_mean)


def block_isr(block: Block, now: float, t_mean: float | None = None) -> float:
    """``ISR_i`` of Equation 1."""
    return ((block.n_invalid + block_coldness(block, now, t_mean))
            / block.total_subpages)


def ref_isr(blocks: list[Block], now: float) -> Block | None:
    """The block an exact ISR scan of ``blocks`` picks, or None."""
    ordered = sorted(blocks, key=lambda b: b.block_id)
    total_age, total_count = 0.0, 0
    for block in ordered:  # same accumulation order as the policy
        age_sum, count = block_age_sum(block, now)
        total_age += age_sum
        total_count += count
    t_mean = total_age / total_count if total_count else 0.0
    best, best_score = None, 0.0
    for block in ordered:
        score = block_isr(block, now, t_mean)
        if score > best_score:
            best, best_score = block, score
    return best
