"""Wear statistics and the static wear-levelling trigger (Table 2).

*Static* wear levelling periodically relocates long-resident (cold) data
out of the least-worn blocks so those blocks re-enter the free pool and
absorb future writes, keeping the erase-count spread of a region bounded.
The actual data movement is performed by the FTL's GC machinery; this
module decides *when* to level and *which* block to relocate.
"""

from __future__ import annotations

from ..config import CacheConfig
from ..units import PeCycles
from .block import Block, BlockState


class WearTracker:
    """Erase accounting and static wear-levelling decisions for one region."""

    def __init__(self, blocks: list[Block], cache: CacheConfig):
        cache.validate()
        self.blocks = blocks
        self.cache = cache
        self.erases_since_check = 0
        self.leveling_moves = 0

    def note_erase(self) -> None:
        """Record one erase in this region."""
        self.erases_since_check += 1

    @property
    def min_erase(self) -> PeCycles:
        """Smallest per-block erase count in the region."""
        return min(b.erase_count for b in self.blocks)

    @property
    def max_erase(self) -> PeCycles:
        """Largest per-block erase count in the region."""
        return max(b.erase_count for b in self.blocks)

    @property
    def spread(self) -> PeCycles:
        """Erase-count gap between the most and least worn block."""
        return self.max_erase - self.min_erase

    def should_level(self) -> bool:
        """Whether a static wear-levelling pass is due."""
        if not self.cache.static_wear_leveling:
            return False
        if self.erases_since_check < self.cache.wear_leveling_period:
            return False
        self.erases_since_check = 0
        return self.spread > self.cache.wear_leveling_gap

    def coldest_block(self) -> Block | None:
        """Pick the relocation source: the least-worn block holding data.

        Low wear means the block's content has not been rewritten in a long
        time, i.e. it hosts cold data sitting on healthy cells.
        """
        candidates = [
            b for b in self.blocks
            if b.state is BlockState.FULL and b.n_valid > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda b: (b.erase_count, b.block_id))
