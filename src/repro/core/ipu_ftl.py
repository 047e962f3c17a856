"""The IPU scheme (Section 3, Algorithm 1).

Write path, per logical-page chunk:

* **new data** -> a fresh page in a *Work* block (Algorithm 1 line 5),
* **update that fits its page** -> partial-programmed into the free slots
  of the page holding the previous version; the old slots are invalidated
  first, so in-page disturb only touches obsolete data (lines 6-9),
* **update that overflows** -> a fresh page one block-level up
  (Work -> Monitor -> Hot; line 11), which is what identifies hot data.

GC uses the ISR victim policy (Equations 1-2) and the *degraded* movement
rule (lines 14-19): pages whose resident data was updated while in the
victim move to a same-level block (they proved hot); never-updated pages
move one level down, falling out of the SLC cache into the high-density
region once they drop below Work level.
"""

from __future__ import annotations

from ..nand.block import Block
from ..sim.ops import Cause, OpRecord
from ..ftl.base import BaseFTL
from ..ftl.levels import BlockLevel
from ..units import Lsn, Ms
from ..ftl.victim import IsrVictimPolicy, VictimPolicy
from .intra_page import plan_intra_page_update


class IPUFTL(BaseFTL):
    """Intra-page update with three-level hot/cold separation."""

    scheme_name = "ipu"
    uses_partial_programming = True

    def _make_slc_policy(self) -> VictimPolicy:
        return IsrVictimPolicy(refresh_ms=self.config.reliability.isr_refresh_ms)

    def _promotion_target(self, current_level: int) -> BlockLevel:
        """Level an overflowing update moves to (hook for ablations)."""
        return BlockLevel(current_level).promoted()

    # -- write path -------------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        lookup = self.subpage_map.lookup
        get_block = self.flash.blocks.__getitem__
        max_pp = self.config.reliability.max_page_programs
        stats = self.stats
        for chunk in self.chunks_by_lpn(lsns):
            mappings = [lookup(lsn) for lsn in chunk]
            plan = plan_intra_page_update(
                chunk, mappings,
                get_block=get_block,
                max_page_programs=max_pp,
            )
            # Invalidate first: an in-page pass then disturbs no live data
            # inside the page.
            self.drop_stale(chunk, mappings)
            if plan is not None:
                # Algorithm 1 lines 6-9: update inside the same page.
                op, block, page = self.place(
                    get_block(plan.block_id), plan.page,
                    list(plan.target_slots), chunk, now, Cause.HOST)
                # The hotness mark belongs to the actual destination (a
                # program failure may have remapped the update).
                block.mark_page_updated(page)
                stats.intra_page_updates += 1
                stats.update_writes += 1
                ops.append(op)
                continue
            # Lines 4-5 and 10-11: a fresh page, one level up for an update.
            mapped = [m for m in mappings if m is not None]
            if mapped:
                stats.update_writes += 1
                current = max((get_block(m.block).level or 0) for m in mapped)
                target = self._promotion_target(current)
                stats.upgrade_moves += 1
            else:
                stats.new_data_writes += 1
                target = BlockLevel.WORK
            block, page = self.alloc_host_page(target, now, ops)
            ops.append(self.place(block, page, list(range(len(chunk))), chunk,
                                  now, Cause.HOST)[0])
        return ops

    # -- GC movement (degraded data movement, lines 14-19) -----------------------------

    def _relocate_slc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        updated = bool(victim.page_updated[page])
        level = BlockLevel(victim.level if victim.level is not None else
                           int(BlockLevel.WORK))
        target = level if updated else level.demoted()
        ops: list[OpRecord] = []

        if target.is_slc:
            # Same-level (hot) or one-level-down (cold) SLC destination.
            # No recursive GC here: if the pool is dry the data falls
            # through to the high-density region.
            res = self.slc_alloc.alloc_page(int(target), for_gc=True)
            if res is not None:
                return self._move_chunk(victim, page, slots, lsns, res, now, cause)
        self.stats.evicted_subpages_to_mlc += len(slots)
        res = self.alloc_mlc_page(now, ops, for_gc=True)
        ops.extend(self._move_chunk(victim, page, slots, lsns, res, now, cause))
        return ops

    def _relocate_mlc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        ops: list[OpRecord] = []
        res = self.alloc_mlc_page(now, ops, for_gc=True)
        ops.extend(self._move_chunk(victim, page, slots, lsns, res, now, cause))
        return ops

    def _move_chunk(self, victim: Block, page: int, slots: list[int],
                    lsns: list[Lsn], dest: tuple[Block, int], now: Ms,
                    cause: Cause) -> list[OpRecord]:
        """Program one page's valid data compactly at the destination.

        The destination page keeps the extent-grouped layout (slots 0..k),
        so future updates of the data can still use intra-page programming,
        and the new page starts with a clean ``page_updated`` flag — a
        relocated page must prove its hotness again before the next GC.
        """
        block, npage = dest
        self.flash.invalidate_many(victim.block_id, page, slots)
        return [self.place(block, npage, list(range(len(lsns))), lsns, now,
                           cause)[0]]
