"""*Baseline*: dynamic page-level FTL without partial programming.

Every write chunk (the subpages of one logical page touched by a request)
consumes a whole fresh physical page, holding only the chunk's subpages at
their positional slots (logical subpage ``k`` of the LPN in slot ``k``).
Because the page can never be programmed again, slots for subpages the
request did not carry stay unused — the internal fragmentation partial
programming exists to fix.  With the paper's 4K-dominated request mix this
yields the ~53% page utilisation of Figure 9.

``merge_siblings=True`` enables a read-modify-write variant that folds the
still-valid sibling subpages of the logical page into the new page; it
trades extra GC-visible reads for better utilisation and serves as an
ablation (the paper's Baseline does not merge — its utilisation figure is
incompatible with merging).

GC is greedy (most reclaimable subpages); collected valid data leaves the
SLC-mode cache for the high-density region, keeping positional layout.
"""

from __future__ import annotations

from ..config import SSDConfig
from ..nand.block import Block
from ..nand.flash import FlashArray
from ..sim.ops import Cause, OpKind, OpRecord
from .base import BaseFTL
from .levels import BlockLevel
from ..units import Lpn, Lsn, Ms


class BaselineFTL(BaseFTL):
    """Default page-mapping FTL (no partial programming)."""

    scheme_name = "baseline"
    uses_partial_programming = False

    def __init__(self, config: SSDConfig, flash: FlashArray | None = None,
                 merge_siblings: bool = False):
        self.merge_siblings = merge_siblings
        super().__init__(config, flash)

    # -- write path ------------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        lookup = self.subpage_map.lookup
        stats = self.stats
        for chunk in self.chunks_by_lpn(lsns):
            write_lsns = chunk
            mapped_old = [lookup(lsn) for lsn in chunk]
            is_update = any(ppa is not None for ppa in mapped_old)

            if self.merge_siblings:
                lpn = chunk[0] // spp
                carry = self._collect_siblings(lpn, chunk, now, ops)
                write_lsns = sorted(set(chunk) | set(carry))
                mapped_old = [lookup(lsn) for lsn in write_lsns]

            if is_update:
                stats.update_writes += 1
            else:
                stats.new_data_writes += 1

            block, page = self.alloc_host_page(BlockLevel.WORK, now, ops)
            self.drop_stale(write_lsns, mapped_old)
            slots = [lsn % spp for lsn in write_lsns]
            ops.append(self.place(block, page, slots, write_lsns, now,
                                  Cause.HOST)[0])
        return ops

    def _collect_siblings(self, lpn: Lpn, chunk: list[int], now: Ms,
                          ops: list[OpRecord]) -> list[int]:
        """Read the logical page's other live subpages for merging."""
        spp = self.geometry.subpages_per_page
        in_chunk = set(chunk)
        carriers: dict[tuple[int, int], list[int]] = {}
        carry: list[int] = []
        for lsn in range(lpn * spp, (lpn + 1) * spp):
            if lsn in in_chunk:
                continue
            ppa = self.subpage_map.lookup(lsn)
            if ppa is None:
                continue
            carriers.setdefault((ppa.block, ppa.page), []).append(ppa.slot)
            carry.append(lsn)
        for (block_id, page), slots in carriers.items():
            slots.sort()
            values = self.flash.read_list(block_id, page, slots, now)
            ops.append(OpRecord(
                kind=OpKind.READ, block_id=block_id, page=page,
                n_slots=len(slots),
                is_slc=self.flash.block(block_id).is_slc,
                cause=Cause.HOST,
                ecc_ms=self.ecc.decode_ms_list(values),
            ))
            self.stats.rmw_read_ops += 1
        return carry

    # -- GC movement ----------------------------------------------------------------

    def _relocate_positional(self, victim: Block, page: int, slots: list[int],
                             lsns: list[Lsn], now: Ms, cause: Cause,
                             ) -> list[OpRecord]:
        """Move a page keeping slot positions; destination is always MLC.

        Baseline's SLC cache is a pure staging area: collected data leaves
        the cache for the high-density region, and high-density GC moves
        pages within the region.
        """
        ops: list[OpRecord] = []
        block, npage = self.alloc_mlc_page(now, ops, for_gc=True)
        self.flash.invalidate_many(victim.block_id, page, slots)
        ops.append(self.place(block, npage, slots, lsns, now, cause)[0])
        return ops

    def _relocate_slc_page(self, victim, page, slots, lsns, now, cause):
        self.stats.evicted_subpages_to_mlc += len(slots)
        return self._relocate_positional(victim, page, slots, lsns, now, cause)

    def _relocate_mlc_page(self, victim, page, slots, lsns, now, cause):
        return self._relocate_positional(victim, page, slots, lsns, now, cause)
