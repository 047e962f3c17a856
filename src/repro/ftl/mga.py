"""*MGA* — Mapping Granularity Adaptive FTL (Feng et al., DATE'17).

The most-related comparison scheme: subpage-granularity mapping plus
partial programming used for *space packing*.  Small writes — no matter
which request they belong to — are appended to the current pack page of
the SLC cache; every append is another program pass over an
already-programmed page, so the resident valid subpages and the
neighbouring pages absorb program disturb (the effect IPU eliminates).

Packing drives page utilisation to ~100% (Figure 9) at the cost of the
largest mapping table (two-level, Figure 11) and the highest read error
rate (Figure 8).
"""

from __future__ import annotations

from ..config import SSDConfig
from ..nand.block import Block, BlockState
from ..nand.flash import FlashArray
from ..sim.ops import Cause, OpRecord
from .base import BaseFTL
from .gc import GarbageCollector
from .levels import BlockLevel
from ..units import Lsn, Ms
from .victim import GreedyVictimPolicy, VictimPolicy


class MGAFTL(BaseFTL):
    """Subpage-packing FTL with partial programming."""

    scheme_name = "mga"
    uses_partial_programming = True

    def __init__(self, config: SSDConfig, flash: FlashArray | None = None):
        super().__init__(config, flash)
        #: Current pack target: (block_id, page) accepting more subpages.
        self._pack: tuple[int, int] | None = None
        #: Subpages awaiting eviction packing during GC (list keeps
        #: order, set gives O(1) membership for the write-path check).
        self._evict_buffer: list[int] = []
        self._evict_pending: set[int] = set()
        # Re-wire the collectors with the pre-erase flush hook.
        self.slc_gc = GarbageCollector(
            self.flash, self.slc_alloc, self._make_slc_policy(),
            self._relocate_slc_page, self.ecc, config.cache,
            wear=self.slc_wear, finish=self._flush_evictions,
        )
        self.mlc_gc = GarbageCollector(
            self.flash, self.mlc_alloc, self._make_mlc_policy(),
            self._relocate_mlc_page, self.ecc, config.cache,
            wear=self.mlc_wear, finish=self._flush_evictions,
        )

    def _make_mlc_policy(self) -> VictimPolicy:
        # MGA repacks evictions compactly, so freed space really is the
        # subpage count: plain greedy is the right metric.
        return GreedyVictimPolicy()

    # -- mapping ---------------------------------------------------------

    def translation_keys(self, lsns: list[Lsn]) -> list[int]:
        """MGA pages in second-level subpage entries on top of the
        first-level page map (the translation cost of its packing)."""
        from .base import SECOND_LEVEL_KEY_BASE
        keys = super().translation_keys(lsns)
        keys.extend(SECOND_LEVEL_KEY_BASE + lsn for lsn in lsns)
        return keys

    def _invalidate_lsn(self, lsn: Lsn) -> None:
        ppa = self.subpage_map.lookup(lsn)
        if ppa is None:
            return
        if lsn in self._evict_pending:
            # The subpage sits in the eviction buffer of a partially
            # drained victim; the incoming write obsoletes it, so it must
            # not be flushed (that would resurrect stale data).
            self._evict_pending.discard(lsn)
            self._evict_buffer.remove(lsn)
            self.subpage_map.unbind(lsn)
            return
        self.flash.invalidate(ppa.block, ppa.page, ppa.slot)
        self.subpage_map.unbind(lsn)

    # -- pack cursor -------------------------------------------------------

    def _pack_capacity(self) -> tuple[Block, int, list[int]] | None:
        """Free slots of the current pack page, if it can take another pass."""
        if self._pack is None:
            return None
        block_id, page = self._pack
        block = self.flash.block(block_id)
        if block.state not in (BlockState.OPEN, BlockState.FULL):
            return None
        if page >= block.next_page:
            return None  # block was erased and reused
        if block.pass_counts[page] >= self.config.reliability.max_page_programs:
            return None
        free = block.free_slots_of_page(page)
        if not free:
            return None
        return block, page, free

    # -- write path -----------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        lookup = self.subpage_map.lookup
        if any(lookup(lsn) is not None for lsn in lsns):
            self.stats.update_writes += 1
        else:
            self.stats.new_data_writes += 1
        for lsn in lsns:
            self._invalidate_lsn(lsn)

        max_pp = self.config.reliability.max_page_programs
        remaining = list(lsns)
        while remaining:
            cap = self._pack_capacity()
            if cap is None:
                res = self.alloc_slc_page(BlockLevel.WORK)
                if res is None:
                    # Cache exhausted even after GC: spill to high-density.
                    ops.extend(self._write_mlc_chunk(remaining, now))
                    self.stats.slc_overflow_chunks += 1
                    return ops
                block, page = res
                free = list(range(self.geometry.subpages_per_page))
            else:
                block, page, free = cap

            take = min(len(free), len(remaining))
            chunk, remaining = remaining[:take], remaining[take:]
            op, block, page = self.place(block, page, free[:take], chunk,
                                         now, Cause.HOST)
            ops.append(op)
            # A program failure may have remapped the pulse to the
            # high-density region, where packing (a partial-programming
            # feature) cannot continue.
            if (not block.is_slc
                    or block.prog_mask[page].bit_count() == block.spp
                    or block.pass_counts[page] >= max_pp):
                self._pack = None
            else:
                self._pack = (block.block_id, page)
        return ops

    def _write_mlc_chunk(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        """Spill a host chunk straight to the high-density region."""
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        for i in range(0, len(lsns), spp):
            group = lsns[i:i + spp]
            block, page = self.alloc_mlc_page(now, ops)
            ops.append(self.place(block, page, list(range(len(group))),
                                  group, now, Cause.HOST)[0])
        return ops

    # -- GC movement -------------------------------------------------------------

    def _relocate_any(self, victim: Block, page: int, slots: list[int],
                      lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        """Queue valid subpages for packed eviction to the MLC region."""
        self.flash.invalidate_many(victim.block_id, page, slots)
        self._evict_buffer.extend(lsns)
        self._evict_pending.update(lsns)
        return []

    def _relocate_slc_page(self, victim, page, slots, lsns, now, cause):
        self.stats.evicted_subpages_to_mlc += len(slots)
        return self._relocate_any(victim, page, slots, lsns, now, cause)

    def _relocate_mlc_page(self, victim, page, slots, lsns, now, cause):
        return self._relocate_any(victim, page, slots, lsns, now, cause)

    def _flush_evictions(self, now: Ms, cause: Cause) -> list[OpRecord]:
        """Program buffered evictions into fully-packed MLC pages."""
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        while self._evict_buffer:
            group = self._evict_buffer[:spp]
            del self._evict_buffer[:spp]
            block, page = self.alloc_mlc_page(now, ops, for_gc=True)
            ops.append(self.place(block, page, list(range(len(group))),
                                  group, now, cause)[0])
            self._evict_pending.difference_update(group)
        return ops
