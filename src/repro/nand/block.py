"""Per-block state: page/subpage occupancy, wear, disturb counters.

A block is the erase unit.  Pages inside a block must be programmed in
sequential order (``next_page`` pointer), as real NAND requires.  Each
16 KiB page holds four 4 KiB *subpage slots*; SLC-mode pages may be
programmed multiple times ("partial programming"), filling previously
unwritten slots, up to a manufacturer limit on program passes.

Subpage taxonomy used throughout:

* **valid** - programmed and holding live data,
* **invalid** - programmed, later invalidated by an update or move,
* **free** - never programmed since the last erase.  In a fully-programmed
  Baseline block free slots are wasted space (internal fragmentation); in an
  IPU block they are the landing zone for intra-page updates.

A block owns no arrays: the state something reads as an array lives in
the flat per-region columns of :class:`~repro.nand.state.RegionState`,
and the ``valid`` / ``slot_lsn`` / ``slot_time`` / ... properties build a
view of the block's stripe on each access (a standalone block, as unit
tests build, gets a private single-block region).  No view is stored,
so a block pickles as a plain slotted object.  Mutations are flat item
stores, which beat fancy indexing and masked array ops at ``spp`` = 4.

Each fact has one home, except where one copy feeds numpy and the other
the scalar hot path:

* ``prog_mask`` (which slots are programmed, and so which slots of
  the region's ``slot_lsn`` column hold an LSN), ``pass_counts``,
  ``erase_count`` and ``level`` live only here; a page's programmed or
  valid count is one popcount of its bitmask;
* the valid bits live in the region's ``valid`` column (Equation 2's
  masks, ``read_list``, recovery) and in the per-page ``valid_mask``
  with the occupancy counters ``n_valid``/``n_invalid``/
  ``pages_with_valid`` (membership checks, victim scores);
* the lifecycle lives in ``state`` (enum checks) and the region's
  ``state_code`` column (the victim scan's ``np.flatnonzero``).

:meth:`Block.verify_array_state` cross-checks both pairs and the
counters; ``BaseFTL.check_consistency`` runs it over every block.

A block pays for its per-page lists (``prog_mask``, ``valid_mask``,
``pass_counts``) only while it is in service.  A free block holds one
immutable all-zero tuple in all three, shared by every free block with
its page count: it reads as zeros, and a write to it raises.
:meth:`Block.open_as` gives the block its own lists and
:meth:`Block.erase` takes them back, so a device's host memory follows
the blocks a replay has opened, not its capacity.
"""

from __future__ import annotations

import enum
from functools import cache
from typing import Any

import numpy as np

from ..errors import (
    EraseError,
    PartialProgramLimitError,
    ProgramOrderError,
    SubpageStateError,
)
from .cell import CellMode
from .state import RegionState
from ..units import Lsn, LsnArray, Ms, MsArray, PeCycles

__all__ = ["Block", "BlockState", "BLOCK_STATE_CODES"]


class BlockState(enum.Enum):
    """Lifecycle of a block between erases."""

    FREE = "free"        #: erased, not yet allocated
    OPEN = "open"        #: allocated, accepting new pages
    FULL = "full"        #: every page programmed at least once
    VICTIM = "victim"    #: selected for GC, being drained
    RETIRED = "retired"  #: grown bad block, permanently out of service


#: Encoding of :class:`BlockState` in ``RegionState.state_code`` (FREE
#: must stay 0: freshly-zeroed regions start all-free).
BLOCK_STATE_CODES: dict[BlockState, int] = {
    BlockState.FREE: 0,
    BlockState.OPEN: 1,
    BlockState.FULL: 2,
    BlockState.VICTIM: 3,
    BlockState.RETIRED: 4,
}


@cache
def _free_pages(pages: int) -> "tuple[int, ...]":
    """The all-zero per-page tuple every free block of ``pages`` pages
    shares in place of its own ``prog_mask``/``valid_mask``/``pass_counts``."""
    return (0,) * pages


class Block:
    """State of one physical block: a view over its region's arrays.

    Disturb and access-time arrays only exist for SLC-mode regions;
    native MLC blocks are always conventionally programmed exactly once
    per page, so their reliability is captured by the base RBER curve
    alone.
    """

    __slots__ = (
        "block_id", "mode", "is_slc", "pages", "spp", "erase_count", "next_page",
        "state", "level",
        "region", "region_slot", "_base", "_page_base",
        "_slots_slice", "_pages_slice",
        "prog_mask", "valid_mask", "_set_slots", "_popcount", "_full_mask",
        "n_valid", "n_invalid", "n_programmed", "content_epoch",
        "pass_counts", "pages_with_valid",
    )

    # Per-page python ints: a list of the block's own while it is in
    # service, the shared ``_free_pages`` tuple while it is free.
    prog_mask: Any
    valid_mask: Any
    pass_counts: Any

    def __init__(self, block_id: int, mode: CellMode, pages: int,
                 subpages_per_page: int, region: RegionState | None = None,
                 region_slot: int = 0):
        self.block_id = block_id
        self.mode = mode
        #: Cached ``mode.is_slc`` — the enum property is too hot to call
        #: per operation, and a block's mode never changes.
        self.is_slc = is_slc = mode is CellMode.SLC
        self.pages = pages
        self.spp = subpages_per_page
        self.erase_count: PeCycles = 0
        self.next_page = 0
        self.state = BlockState.FREE
        #: Block-level label (see :mod:`repro.core.levels`); ``None`` when free.
        self.level: int | None = None

        if region is None:
            # Standalone construction (unit tests, scratch blocks): a
            # private single-block region backs this block alone.
            region = RegionState(1, pages, subpages_per_page, is_slc)
            region_slot = 0
        elif (region.pages != pages or region.spp != subpages_per_page
              or region.slc != is_slc):
            raise SubpageStateError(
                f"block {block_id}: region geometry mismatch "
                f"({region.pages}x{region.spp} slc={region.slc} vs "
                f"{pages}x{subpages_per_page} slc={is_slc})")
        self.region = region
        self.region_slot = region_slot
        stride = region.block_stride
        base = region_slot * stride
        page_base = region_slot * pages
        #: Flat offsets of this block inside the region arrays.
        self._base = base
        self._page_base = page_base
        self._slots_slice = slice(base, base + stride)
        self._pages_slice = slice(page_base, page_base + pages)

        #: Per-page python-int bitmasks of programmed/valid slots, and the
        #: program passes each page took since the last erase (checked
        #: against the manufacturer limit per host chunk).  ``prog_mask``
        #: is the only record of which slots are programmed;
        #: ``valid_mask`` is the hot-path copy of the ``valid`` column
        #: (``verify_array_state`` cross-checks the two).  A free block
        #: shares one all-zero tuple for all three (see :meth:`open_as`).
        self.prog_mask = self.valid_mask = self.pass_counts = (
            _free_pages(pages))
        tables = region.tables
        self._set_slots = tables.set_slots
        self._popcount = tables.popcount
        self._full_mask = tables.full_mask

        self.n_valid = 0
        self.n_invalid = 0
        self.n_programmed = 0
        #: Bumped on every content mutation; lets the stored-IS' cache of
        #: the ISR policy detect staleness cheaply.
        self.content_epoch = 0
        #: Pages holding at least one valid subpage.
        self.pages_with_valid = 0

    # -- region views (built per access, never stored) -------------------

    def _slot_view(self, column: Any) -> Any:
        """``(pages, spp)`` view of this block's stripe of a per-slot
        column, or ``None`` for a column the region does not track."""
        if column is None:
            return None
        return column[self._slots_slice].reshape(self.pages, self.spp)

    @property
    def valid(self) -> np.ndarray:
        """``(pages, spp)`` view of the region's ``valid`` column."""
        return self._slot_view(self.region.valid)

    @property
    def slot_lsn(self) -> LsnArray:
        """``(pages, spp)`` view of the LSN bound to each slot."""
        return self._slot_view(self.region.slot_lsn)

    # The SLC-only columns: ``None`` for a high-density block.

    @property
    def slot_time(self) -> MsArray:
        """Last access time per slot (Equation 2's ``t_ij``)."""
        return self._slot_view(self.region.slot_time)

    @property
    def slot_program_time(self) -> MsArray:
        """Program time per slot, never refreshed by reads (power-loss
        recovery finds torn subpages by it)."""
        return self._slot_view(self.region.slot_program_time)

    @property
    def disturb_in(self) -> Any:
        """In-page program-disturb hits per slot."""
        return self._slot_view(self.region.disturb_in)

    @property
    def disturb_nb(self) -> Any:
        """Neighbour-page program-disturb hits per slot."""
        return self._slot_view(self.region.disturb_nb)

    @property
    def page_updated(self) -> Any:
        """Per-page flag: the resident data was updated in this block."""
        column = self.region.page_updated
        return None if column is None else column[self._pages_slice]

    # -- capacity queries ----------------------------------------------

    @property
    def total_subpages(self) -> int:
        """``TS_i`` of Equation 1."""
        return self.pages * self.spp

    @property
    def is_full(self) -> bool:
        """True once every page received its initial program pass."""
        return self.next_page >= self.pages

    def free_slots_of_page(self, page: int) -> list[int]:
        """Unprogrammed slot indices of ``page`` (ascending), read off the
        programmed bitmask (one table lookup, no array scan)."""
        return list(self._set_slots[self._full_mask ^ self.prog_mask[page]])

    def valid_slots_of_page(self, page: int) -> list[int]:
        """Slot indices of ``page`` currently holding live data."""
        return list(self._set_slots[self.valid_mask[page]])

    def slot_lsns(self, page: int, slots: list[int]) -> list[int]:
        """The LSNs bound to ``slots`` of ``page`` as python ints (flat
        item loads; the relocation paths consume these)."""
        lsn_f = self.region.slot_lsn
        jbase = self._base + page * self.spp
        return [int(lsn_f[jbase + s]) for s in slots]

    # -- mutation -------------------------------------------------------

    def program_disturb(self, page: int, slots: list[int], lsns: list[Lsn],
                        now: Ms, max_programs: int) -> "tuple[bool, int]":
        """Program ``lsns`` into ``slots`` of ``page``: one call per flash
        program, disturb included.

        Returns ``(partial, disturbed_valid)``: whether the pass was a
        *partial* program of an already-programmed page and, for a
        partial pass, how many valid in-page subpages its program disturb
        hit (in-page and neighbour-page disturb counters are bumped in
        the same call, while the write mask is at hand).  Raises on
        out-of-order initial programs, slot reuse, or exceeding the
        per-page program-pass limit, leaving the block untouched.
        """
        n = len(slots)
        if n != len(lsns) or not n:
            raise SubpageStateError(
                f"block {self.block_id}: slots/lsns mismatch ({slots} vs {lsns})")
        if self.state not in (BlockState.OPEN, BlockState.FULL):
            raise SubpageStateError(
                f"block {self.block_id}: program while {self.state.value}")

        if page == self.next_page:
            partial = False
        elif 0 <= page < self.next_page:
            partial = True
            if not self.is_slc:
                raise SubpageStateError(
                    f"block {self.block_id}: partial programming requires SLC mode")
            if self.pass_counts[page] >= max_programs:
                raise PartialProgramLimitError(
                    f"block {self.block_id} page {page}: "
                    f"{self.pass_counts[page]} passes >= limit {max_programs}")
        else:
            raise ProgramOrderError(
                f"block {self.block_id}: page {page} programmed out of order "
                f"(next free page is {self.next_page})")

        spp = self.spp
        pmask = self.prog_mask[page]
        wmask = 0
        try:
            for slot in slots:
                wmask |= 1 << slot
        except ValueError:  # negative shift count
            raise SubpageStateError(
                f"slot {min(slots)} out of range [0, {spp})") from None
        # One fused check replaces per-slot branching: a duplicate slot
        # drops the popcount, an out-of-range slot overflows the page
        # mask, and an already-programmed slot intersects pmask.
        if wmask.bit_count() != n or wmask >> spp or pmask & wmask:
            for slot in slots:
                if not 0 <= slot < spp:
                    raise SubpageStateError(
                        f"slot {slot} out of range [0, {spp})")
                if pmask >> slot & 1:
                    raise SubpageStateError(
                        f"block {self.block_id} page {page} slot {slot}: "
                        f"already programmed")
            raise SubpageStateError(
                f"block {self.block_id}: duplicate slots {slots}")
        if not partial:
            # Deferred past the mask validation so a rejected program
            # leaves the block untouched.
            self.next_page += 1

        # Scalar per-slot stores on the flat region arrays: a pass writes
        # 1-4 subpages, where numpy fancy indexing costs far more than
        # direct item assignment.
        region = self.region
        jbase = self._base + page * spp
        valid_f = region.valid
        lsn_f = region.slot_lsn
        if self.is_slc:
            time_f = region.slot_time
            ptime_f = region.slot_program_time
            for i in range(n):
                j = jbase + slots[i]
                valid_f[j] = True
                lsn_f[j] = lsns[i]
                time_f[j] = now
                ptime_f[j] = now
        else:
            for i in range(n):
                j = jbase + slots[i]
                valid_f[j] = True
                lsn_f[j] = lsns[i]
        self.prog_mask[page] = pmask | wmask
        vmask = self.valid_mask[page]
        if not vmask:
            self.pages_with_valid += 1
        self.valid_mask[page] = vmask | wmask
        self.pass_counts[page] += 1
        self.n_programmed += n
        self.n_valid += n
        if self.next_page >= self.pages and self.state is BlockState.OPEN:
            self.state = BlockState.FULL
            region.state_code[self.region_slot] = 2  # BLOCK_STATE_CODES[FULL]
        self.content_epoch += 1
        if partial:
            return True, self._apply_disturb(page, wmask)
        return False, 0

    def reprogram_pass(self, page: int, max_programs: int) -> int:
        """A partial-program pass that appends bytes inside slots that are
        already programmed (byte-granular partial programming, as in
        in-place delta compression).  No slot state changes, but the pass
        counts against the manufacturer limit and disturbs the page and
        its neighbours like any other pass.  Returns the number of valid
        in-page subpages disturbed."""
        if not self.is_slc:
            raise SubpageStateError(
                f"block {self.block_id}: partial programming requires SLC mode")
        if not 0 <= page < self.next_page:
            raise ProgramOrderError(
                f"block {self.block_id}: reprogram of unwritten page {page}")
        if self.pass_counts[page] >= max_programs:
            raise PartialProgramLimitError(
                f"block {self.block_id} page {page}: "
                f"{self.pass_counts[page]} passes >= limit {max_programs}")
        self.pass_counts[page] += 1
        self.content_epoch += 1
        return self._apply_disturb(page, 0)

    def invalidate(self, page: int, slot: int) -> None:
        """Mark one live subpage obsolete."""
        bit = 1 << slot
        vmask = self.valid_mask[page]
        if not vmask & bit:
            raise SubpageStateError(
                f"block {self.block_id} page {page} slot {slot}: not valid")
        vmask &= ~bit
        self.valid_mask[page] = vmask
        self.region.valid[self._base + page * self.spp + slot] = False
        self.n_valid -= 1
        self.n_invalid += 1
        if not vmask:
            self.pages_with_valid -= 1
        self.content_epoch += 1

    def invalidate_many(self, page: int, slots: list[int]) -> None:
        """Invalidate several live subpages of one page in one pass.

        Equivalent to ``invalidate(page, s)`` per slot (same counter and
        epoch arithmetic).
        """
        k = len(slots)
        if k == 1:
            self.invalidate(page, slots[0])
            return
        if k == 0:
            # Nothing to invalidate; falling through would treat the page
            # as having just lost its last valid slot.
            return
        mask = 0
        vmask = self.valid_mask[page]
        for slot in slots:
            bit = 1 << slot
            if not vmask & bit or mask & bit:
                raise SubpageStateError(
                    f"block {self.block_id} page {page} slot {slot}: not valid")
            mask |= bit
        vmask &= ~mask
        self.valid_mask[page] = vmask
        valid_f = self.region.valid
        jbase = self._base + page * self.spp
        for slot in slots:
            valid_f[jbase + slot] = False
        self.n_valid -= k
        self.n_invalid += k
        if not vmask:
            self.pages_with_valid -= 1
        self.content_epoch += k

    def mark_page_updated(self, page: int) -> None:
        """Record that the data resident in ``page`` was updated while the
        page lived in this block (drives IPU's GC-time hot/cold split)."""
        region = self.region
        if region.page_updated is not None:
            region.page_updated[self._page_base + page] = True
            self.content_epoch += 1

    def _apply_disturb(self, page: int, written_mask: int) -> int:
        """Disturb pass over the bitmasks: scalar int64 increments on the
        flat counters, targets enumerated straight from the masks."""
        region = self.region
        set_slots = self._set_slots
        spp = self.spp
        hits = self.prog_mask[page] & ~written_mask
        hit_valid = self._popcount[hits & self.valid_mask[page]]
        if hits:
            disturb_f = region.disturb_in
            jbase = self._base + page * spp
            for slot in set_slots[hits]:
                disturb_f[jbase + slot] += 1
        disturb_f = region.disturb_nb
        next_page = self.next_page
        prog_mask = self.prog_mask
        for npage in (page - 1, page + 1):
            if 0 <= npage < next_page:
                nmask = prog_mask[npage]
                if nmask:
                    jbase = self._base + npage * spp
                    for slot in set_slots[nmask]:
                        disturb_f[jbase + slot] += 1
        return hit_valid

    def erase(self) -> None:
        """Erase the block.  All data must have been moved out already."""
        if self.n_valid != 0:
            raise EraseError(
                f"block {self.block_id}: erase with {self.n_valid} valid subpages")
        if self.state is BlockState.FREE:
            raise EraseError(f"block {self.block_id}: erase of a free block")
        self.erase_count += 1
        self.next_page = 0
        self.state = BlockState.FREE
        self.level = None
        region = self.region
        region.state_code[self.region_slot] = 0  # BLOCK_STATE_CODES[FREE]
        slots_slice = self._slots_slice
        pages_slice = self._pages_slice
        region.valid[slots_slice] = False
        if self.is_slc:
            region.slot_time[slots_slice] = 0.0
            region.slot_program_time[slots_slice] = 0.0
            region.disturb_in[slots_slice] = 0
            region.disturb_nb[slots_slice] = 0
            region.page_updated[pages_slice] = False
        self.prog_mask = self.valid_mask = self.pass_counts = (
            _free_pages(self.pages))
        self.n_valid = 0
        self.n_invalid = 0
        self.n_programmed = 0
        self.pages_with_valid = 0
        self.content_epoch += 1

    def retire(self) -> None:
        """Permanently remove a grown-bad block from service.

        Retirement happens after the (possibly failed) erase pulse has run
        — :meth:`erase` already moved the block to FREE and reset its
        content — so this transition only takes the block out of the free
        population.  A retired block never re-enters an allocator pool
        (capacity degradation is exactly this loss)."""
        if self.state is not BlockState.FREE:
            raise SubpageStateError(
                f"block {self.block_id}: retire while {self.state.value} "
                f"(blocks retire from the just-erased FREE state)")
        self.state = BlockState.RETIRED
        self.region.state_code[self.region_slot] = 4  # BLOCK_STATE_CODES[RETIRED]

    def open_as(self, level: int) -> None:
        """Transition a free block to OPEN with a block-level label,
        giving it its own per-page lists in place of the shared zeros."""
        if self.state is not BlockState.FREE:
            raise SubpageStateError(
                f"block {self.block_id}: open while {self.state.value}")
        pages = self.pages
        self.prog_mask = [0] * pages
        # The mask stays all zero, as the free block's valid stripe is.
        self.valid_mask = [0] * pages  # repro-lint: disable=M002
        self.pass_counts = [0] * pages
        self.state = BlockState.OPEN
        self.level = level
        self.region.state_code[self.region_slot] = 1  # BLOCK_STATE_CODES[OPEN]

    def mark_victim(self) -> None:
        """Transition FULL → VICTIM (GC drain started).  The block leaves
        the victim candidates, so it cannot be selected twice."""
        self.state = BlockState.VICTIM
        self.region.state_code[self.region_slot] = 3  # BLOCK_STATE_CODES[VICTIM]

    # -- integrity ------------------------------------------------------

    def verify_array_state(self) -> None:
        """Assert every mirror agrees with the copy it shadows: the valid
        bitmasks with the region's ``valid`` column, the occupancy
        counters with the bitmasks, and ``state`` with ``state_code``
        (consistency-hook support)."""
        weights = 1 << np.arange(self.spp, dtype=np.int64)
        if list(self.valid_mask) != (self.valid @ weights).tolist():
            raise SubpageStateError(
                f"block {self.block_id}: valid bitmasks drifted from the "
                f"valid column")
        if any(v & ~p for v, p in zip(self.valid_mask, self.prog_mask)):
            raise SubpageStateError(
                f"block {self.block_id}: a valid slot is not programmed")
        popcount = self._popcount
        n_valid = sum(popcount[m] for m in self.valid_mask)
        n_programmed = sum(popcount[m] for m in self.prog_mask)
        if (self.n_valid != n_valid or self.n_programmed != n_programmed
                or self.n_invalid != n_programmed - n_valid):
            raise SubpageStateError(
                f"block {self.block_id}: occupancy counters drifted")
        if self.pages_with_valid != sum(1 for m in self.valid_mask if m):
            raise SubpageStateError(
                f"block {self.block_id}: pages_with_valid drifted")
        code = int(self.region.state_code[self.region_slot])
        if code != BLOCK_STATE_CODES[self.state]:
            raise SubpageStateError(
                f"block {self.block_id}: state_code mirror drifted "
                f"({code} vs {self.state.value})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Block({self.block_id}, {self.mode.value}, {self.state.value}, "
                f"level={self.level}, next_page={self.next_page}, "
                f"valid={self.n_valid}, invalid={self.n_invalid})")
