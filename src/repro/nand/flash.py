"""The flash array: every physical operation goes through here.

:class:`FlashArray` owns the :class:`~repro.nand.block.Block` objects,
splits them into the SLC-mode cache region and the native high-density
region (striped across planes so both regions enjoy full parallelism),
enforces physical constraints, applies program-disturb bookkeeping, and
answers read-time RBER queries through the :class:`~repro.error.RberModel`.

It is policy-free: which block to write, when to collect garbage and where
to move data are FTL decisions (:mod:`repro.ftl`, :mod:`repro.core`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..config import SSDConfig
from ..error.rber import RberModel
from ..errors import FlashError
from .block import Block
from .cell import CellMode
from .geometry import Geometry
from .state import RegionState
from ..units import Lsn, Ms

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan


class ProgramResult(NamedTuple):
    """Outcome of one program operation."""

    partial: bool            #: True if the pass re-programmed a used page
    disturbed_valid: int     #: valid in-page subpages hit by disturb


class FlashArray:
    """Physical flash device: blocks, regions, wear and disturb."""

    def __init__(self, config: SSDConfig, rber: RberModel | None = None):
        config.validate()
        self.config = config
        self.geometry = Geometry(config.geometry)
        self.rber = rber if rber is not None else RberModel(config.reliability)
        g = self.geometry

        slc_per_plane = max(1, round(g.blocks_per_plane * config.cache.slc_ratio))
        if slc_per_plane >= g.blocks_per_plane:
            raise FlashError("SLC ratio leaves no high-density blocks in a plane")

        # Blocks are plane-major, so a block is SLC-mode when it sits in
        # the first ``slc_per_plane`` of its plane, and its slot in its
        # region's structure-of-arrays store is its rank among the
        # region's ids: one pass builds both regions.
        per_plane = g.blocks_per_plane
        spp = g.subpages_per_page
        slc_pages = g.pages_per_block(True)
        mlc_pages = g.pages_per_block(False)
        self.slc_state = RegionState(
            g.planes * slc_per_plane, slc_pages, spp, slc=True)
        self.mlc_state = RegionState(
            g.planes * (per_plane - slc_per_plane), mlc_pages, spp, slc=False)
        self.blocks: list[Block] = []
        self.slc_block_ids: list[int] = []
        self.mlc_block_ids: list[int] = []
        for block_id in range(g.total_blocks):
            if block_id % per_plane < slc_per_plane:
                ids, mode, pages, region = (self.slc_block_ids, CellMode.SLC,
                                            slc_pages, self.slc_state)
            else:
                ids, mode, pages, region = (self.mlc_block_ids, CellMode.MLC,
                                            mlc_pages, self.mlc_state)
            self.blocks.append(Block(block_id, mode, pages, spp,
                                     region=region, region_slot=len(ids)))
            ids.append(block_id)

        self.erases_slc = 0
        self.erases_mlc = 0
        self.programs_slc = 0
        self.programs_mlc = 0
        self.partial_programs = 0
        self.disturbed_valid_subpages = 0
        #: Optional :class:`repro.faults.FaultPlan`.  When attached, every
        #: erase consults it: a sampled erase failure or an earlier
        #: program-failure condemnation retires the block instead of
        #: returning it to service.  ``None`` (the default) keeps the
        #: erase path bit-identical to a device without fault injection.
        self.faults: "FaultPlan | None" = None

    # -- queries ----------------------------------------------------------

    def block(self, block_id: int) -> Block:
        """The block object for ``block_id``."""
        return self.blocks[block_id]

    def region_blocks(self, slc: bool) -> list[Block]:
        """All blocks of one region."""
        ids = self.slc_block_ids if slc else self.mlc_block_ids
        return [self.blocks[i] for i in ids]

    # -- operations ---------------------------------------------------------

    def program(
        self,
        block_id: int,
        page: int,
        slots: list[int],
        lsns: list[Lsn],
        now: Ms,
    ) -> ProgramResult:
        """Program subpages; applies disturb when the pass is partial."""
        block = self.blocks[block_id]
        partial, disturbed = block.program_disturb(
            page, slots, lsns, now, self.config.reliability.max_page_programs
        )
        if partial:
            self.partial_programs += 1
            self.disturbed_valid_subpages += disturbed
        if block.is_slc:
            self.programs_slc += 1
        else:
            self.programs_mlc += 1
        return ProgramResult(partial=partial, disturbed_valid=disturbed)

    def reprogram(self, block_id: int, page: int) -> ProgramResult:
        """Byte-granular partial pass inside already-programmed slots."""
        block = self.blocks[block_id]
        disturbed = block.reprogram_pass(
            page, self.config.reliability.max_page_programs)
        self.partial_programs += 1
        self.disturbed_valid_subpages += disturbed
        if block.is_slc:
            self.programs_slc += 1
        else:  # pragma: no cover - reprogram_pass already rejects MLC
            self.programs_mlc += 1
        return ProgramResult(partial=True, disturbed_valid=disturbed)

    def read_list(self, block_id: int, page: int, slots: list[int],
                  now: Ms) -> "list[float]":
        """Read subpages of one page: their RBERs as python floats.

        Rejects a read of an unwritten slot and refreshes the slots'
        access times.  Each SLC value is ``base + unit * (n_in + ratio *
        n_nb)``, operation-for-operation the expression :meth:`read_span`
        evaluates through ``RberModel.rber_many`` over IEEE doubles, so
        both paths price a slot bit-identically; a high-density slot
        reads at the base curve.
        """
        block = self.blocks[block_id]
        pmask = block.prog_mask[page]
        for slot in slots:
            if not pmask >> slot & 1:
                raise FlashError(
                    f"block {block_id} page {page} slot {slot}: "
                    f"read of unwritten subpage")
        rel = self.config.reliability
        pe = rel.initial_pe_cycles + block.erase_count
        rber = self.rber
        if not block.is_slc:
            return [rber.base(pe, slc=False)] * len(slots)
        region = block.region
        jbase = block._base + page * block.spp
        unit = rber.disturb_unit(pe)
        base = rber.base(pe, True)
        ratio = rel.neighbor_disturb_ratio
        disturb_in = region.disturb_in
        disturb_nb = region.disturb_nb
        time_f = region.slot_time
        values = []
        for slot in slots:
            j = jbase + slot
            values.append(base + unit * (float(disturb_in[j])
                                         + ratio * float(disturb_nb[j])))
            time_f[j] = now
        return values

    def read_span(self, block_id: int, spans: "list[tuple[int, list[int]]]",
                  now: Ms) -> "tuple[np.ndarray, list[int]]":
        """Batched read pricing: several pages of one block in one kernel.

        ``spans`` lists ``(page, slots)`` in read order; the return value
        is the concatenated per-slot RBER array plus each page's start
        offset into it.  Side effects and values match per-page
        :meth:`read_list` calls in sequence exactly (access times
        refresh).  Only safe when nothing between the sequential reads
        could change this block's disturb state — the GC drain qualifies
        (relocations touch *other* blocks and only invalidate
        already-read pages of the victim).
        """
        block = self.blocks[block_id]
        spp = block.spp
        base_index = block._base
        prog_mask = block.prog_mask
        offsets: list[int] = []
        flat: list[int] = []
        for page, slots in spans:
            pmask = prog_mask[page]
            offsets.append(len(flat))
            jbase = base_index + page * spp
            for slot in slots:
                if not pmask >> slot & 1:
                    raise FlashError(
                        f"block {block_id} page {page} slot {slot}: "
                        f"read of unwritten subpage")
                flat.append(jbase + slot)
        pe = self.config.reliability.initial_pe_cycles + block.erase_count
        if not block.is_slc:
            return (np.full(len(flat), self.rber.base(pe, slc=False),
                            dtype=np.float64), offsets)
        j = np.array(flat, dtype=np.intp)
        region = block.region
        rbers = self.rber.rber_many(
            pe, True, region.disturb_in[j], region.disturb_nb[j])
        region.slot_time[j] = now
        return rbers, offsets

    def invalidate(self, block_id: int, page: int, slot: int) -> None:
        """Invalidate one live subpage."""
        self.blocks[block_id].invalidate(page, slot)

    def invalidate_many(self, block_id: int, page: int,
                        slots: "list[int]") -> None:
        """Invalidate several live subpages of one page in one pass.

        Equivalent to invalidating each slot in sequence (the relocation
        and rewrite hoists use it to skip the per-slot call frames)."""
        self.blocks[block_id].invalidate_many(page, slots)

    def erase(self, block_id: int) -> int:
        """Erase a drained block; returns its new erase count.

        With a fault plan attached the erase may *fail*: the pulse still
        runs (wear and latency are charged) but the block is retired into
        the bad-block table instead of rejoining the free population.
        Callers observe this through ``block.state`` (RETIRED vs FREE).
        """
        block = self.blocks[block_id]
        block.erase()
        if block.is_slc:
            self.erases_slc += 1
        else:
            self.erases_mlc += 1
        faults = self.faults
        if faults is not None and faults.should_retire_after_erase(block):
            block.retire()
        return block.erase_count

    # -- integrity --------------------------------------------------------------

    def verify_array_state(self) -> None:
        """Assert every block's mirrors (valid bitmasks, occupancy
        counters, lifecycle state) agree with the copies they shadow
        (consistency-hook support)."""
        for block in self.blocks:
            block.verify_array_state()
