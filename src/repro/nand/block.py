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

Since the structure-of-arrays refactor a block owns no arrays of its
own: all slot/page/block state lives in the flat per-region arrays of
:class:`~repro.nand.state.RegionState`, and the ``programmed`` /
``valid`` / ``slot_lsn`` / ... attributes here are numpy *views* into
that store (standalone construction, used by unit tests, just builds a
private single-block region).  Mutations go through flat item stores —
profiling shows scalar stores beat both fancy indexing and masked array
ops at ``spp`` = 4 granularity — and maintain, next to the arrays:

* python-int **per-page bitmasks** (``prog_mask``/``valid_mask``) that
  drive every hot membership/enumeration check without touching numpy,
* scalar occupancy counters (``n_valid``/``page_valid``/...) feeding the
  victim scores,
* the region's per-block ``state_code``/``level``/``erase_count``
  columns, mirrored at (rare) lifecycle transitions.  A victim scan
  reads ``state_code`` to find the FULL blocks.

:meth:`Block.verify_array_state` cross-checks every derived quantity
against the authoritative arrays; ``FlashArray.verify_array_state`` runs
it over every block, and ``BaseFTL.check_consistency`` (the invariant
and property tests' hook) calls that.
"""

from __future__ import annotations

import enum

from ..errors import (
    EraseError,
    PartialProgramLimitError,
    ProgramOrderError,
    SubpageStateError,
)
from .cell import CellMode
from .state import NO_LSN, RegionState
from ..units import Lsn, Ms, PeCycles

__all__ = ["NO_LSN", "Block", "BlockState", "BLOCK_STATE_CODES"]


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


class Block:
    """State of one physical block: a view over its region's arrays.

    Disturb and access-time arrays only exist for SLC-mode regions;
    native MLC blocks are always conventionally programmed exactly once
    per page, so their reliability is captured by the base RBER curve
    alone.
    """

    __slots__ = (
        "block_id", "mode", "is_slc", "pages", "spp", "erase_count", "next_page",
        "state", "level", "alloc_time",
        "region", "region_slot", "_base", "_page_base",
        "_slots_slice", "_pages_slice",
        "programmed", "valid", "program_count",
        "slot_lsn", "slot_time", "slot_program_time", "disturb_in",
        "disturb_nb", "page_updated",
        "prog_mask", "valid_mask", "_set_slots", "_popcount", "_full_mask",
        "n_valid", "n_invalid", "n_programmed", "content_epoch",
        "read_count", "page_valid", "page_programmed", "pass_counts",
        "pages_with_valid",
    )

    def __init__(self, block_id: int, mode: CellMode, pages: int,
                 subpages_per_page: int, region: RegionState | None = None,
                 region_slot: int = 0):
        self.block_id = block_id
        self.mode = mode
        #: Cached ``mode.is_slc`` — the enum property is too hot to call
        #: per operation, and a block's mode never changes.
        self.is_slc = mode.is_slc
        self.pages = pages
        self.spp = subpages_per_page
        self.erase_count: PeCycles = 0
        self.next_page = 0
        self.state = BlockState.FREE
        #: Block-level label (see :mod:`repro.core.levels`); ``None`` when free.
        self.level: int | None = None
        self.alloc_time: Ms = 0.0

        if region is None:
            # Standalone construction (unit tests, scratch blocks): a
            # private single-block region backs this block alone.
            region = RegionState(1, pages, subpages_per_page, mode.is_slc)
            region_slot = 0
        elif (region.pages != pages or region.spp != subpages_per_page
              or region.slc != mode.is_slc):
            raise SubpageStateError(
                f"block {block_id}: region geometry mismatch "
                f"({region.pages}x{region.spp} slc={region.slc} vs "
                f"{pages}x{subpages_per_page} slc={mode.is_slc})")
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

        # Numpy views over this block's stripe of the region arrays
        # (shared memory: a write through the flat store is immediately
        # visible here and vice versa — there is no copy to go stale).
        self.programmed = region.programmed[self._slots_slice].reshape(
            pages, subpages_per_page)
        self.valid = region.valid[self._slots_slice].reshape(
            pages, subpages_per_page)
        self.slot_lsn = region.slot_lsn[self._slots_slice].reshape(
            pages, subpages_per_page)
        self.program_count = region.program_count[self._pages_slice]
        if mode.is_slc:
            self.slot_time = region.slot_time[self._slots_slice].reshape(
                pages, subpages_per_page)
            #: Program time, never refreshed by reads (retention ages from
            #: here; ``slot_time`` is the last *access* Equation 2 uses).
            self.slot_program_time = region.slot_program_time[
                self._slots_slice].reshape(pages, subpages_per_page)
            self.disturb_in = region.disturb_in[self._slots_slice].reshape(
                pages, subpages_per_page)
            self.disturb_nb = region.disturb_nb[self._slots_slice].reshape(
                pages, subpages_per_page)
            self.page_updated = region.page_updated[self._pages_slice]
        else:
            self.slot_time = None
            self.slot_program_time = None
            self.disturb_in = None
            self.disturb_nb = None
            self.page_updated = None

        #: Per-page python-int bitmasks of programmed/valid slots — the
        #: hot-path mirror of the bool arrays (maintained in lock-step by
        #: every mutation below; ``verify_array_state`` cross-checks).
        self.prog_mask = [0] * pages
        self.valid_mask = [0] * pages
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
        #: Reads served by this block since its last erase (read disturb).
        self.read_count = 0
        #: Per-page count of valid subpages and the number of pages with at
        #: least one valid subpage — maintained on program/invalidate/erase
        #: so whole-page victim scoring never rescans ``valid``.
        self.page_valid = [0] * pages
        #: Per-page count of programmed subpages — lets the disturb and
        #: partial-program checks skip re-summing ``programmed`` rows.
        self.page_programmed = [0] * pages
        #: Python-int mirror of ``region.program_count`` for this block —
        #: the pass-limit checks run per host chunk, where a list load
        #: beats a numpy scalar load several times over.
        self.pass_counts = [0] * pages
        self.pages_with_valid = 0

    # -- pickling ------------------------------------------------------
    #
    # Default pickling of the numpy view attributes would materialise
    # them as independent *copies*, silently severing the shared-memory
    # contract with ``RegionState`` after a checkpoint restore (writes
    # through the flat store would no longer be visible through the
    # block, and vice versa).  Instead the views — and the shared mask
    # tables — are dropped from the pickled state and rebuilt from
    # ``(region, region_slot)`` on restore.  ``RegionState`` holds no
    # back-reference to its blocks, so by the time ``__setstate__``
    # runs the region object (and its arrays) is fully reconstructed.

    #: Numpy views into ``region`` — rebuilt, never pickled.
    _VIEW_ATTRS = (
        "programmed", "valid", "slot_lsn", "program_count",
        "slot_time", "slot_program_time", "disturb_in", "disturb_nb",
        "page_updated",
    )
    #: Shared ``SlotMaskTables`` lookups — rebound from ``region.tables``.
    _TABLE_ATTRS = ("_set_slots", "_popcount", "_full_mask")

    def _rebind_views(self) -> None:
        """Reconstruct the region-array views exactly as ``__init__``."""
        region = self.region
        pages, spp = self.pages, self.spp
        self.programmed = region.programmed[self._slots_slice].reshape(
            pages, spp)
        self.valid = region.valid[self._slots_slice].reshape(pages, spp)
        self.slot_lsn = region.slot_lsn[self._slots_slice].reshape(
            pages, spp)
        self.program_count = region.program_count[self._pages_slice]
        if self.is_slc:
            self.slot_time = region.slot_time[self._slots_slice].reshape(
                pages, spp)
            self.slot_program_time = region.slot_program_time[
                self._slots_slice].reshape(pages, spp)
            self.disturb_in = region.disturb_in[self._slots_slice].reshape(
                pages, spp)
            self.disturb_nb = region.disturb_nb[self._slots_slice].reshape(
                pages, spp)
            self.page_updated = region.page_updated[self._pages_slice]
        else:
            self.slot_time = None
            self.slot_program_time = None
            self.disturb_in = None
            self.disturb_nb = None
            self.page_updated = None
        tables = region.tables
        self._set_slots = tables.set_slots
        self._popcount = tables.popcount
        self._full_mask = tables.full_mask

    def __getstate__(self) -> dict:
        skip = set(self._VIEW_ATTRS) | set(self._TABLE_ATTRS)
        return {name: getattr(self, name) for name in self.__slots__
                if name not in skip}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._rebind_views()

    # -- capacity queries ----------------------------------------------

    @property
    def total_subpages(self) -> int:
        """``TS_i`` of Equation 1."""
        return self.pages * self.spp

    @property
    def is_full(self) -> bool:
        """True once every page received its initial program pass."""
        return self.next_page >= self.pages

    @property
    def reclaimable_subpages(self) -> int:
        """Subpages freed by collecting this block (everything non-valid)."""
        return self.total_subpages - self.n_valid

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

    def can_partial_program(self, page: int, nslots: int, max_programs: int) -> bool:
        """Whether ``nslots`` more subpages fit into ``page`` in one more pass."""
        if not 0 <= page < self.next_page:
            return False
        if self.pass_counts[page] >= max_programs:
            return False
        return self.spp - self.page_programmed[page] >= nslots

    # -- mutation -------------------------------------------------------

    def program(self, page: int, slots: list[int], lsns: list[Lsn], now: Ms,
                max_programs: int) -> bool:
        """Program ``lsns`` into ``slots`` of ``page``; return True if the
        pass was a *partial* program of an already-programmed page.

        Raises on out-of-order initial programs, slot reuse, or exceeding
        the per-page program-pass limit.
        """
        partial, _ = self.program_disturb(
            page, slots, lsns, now, max_programs, apply_disturb=False)
        return partial

    def program_disturb(self, page: int, slots: list[int], lsns: list[Lsn],
                        now: Ms, max_programs: int,
                        apply_disturb: bool = True) -> "tuple[bool, int]":
        """Fused program + disturb pass: one call per flash program.

        Returns ``(partial, disturbed_valid)``.  When ``apply_disturb``
        and the pass is partial, in-page/neighbour disturb bookkeeping is
        applied in the same call (the write mask is already at hand), and
        ``disturbed_valid`` counts the valid in-page subpages hit —
        exactly what separate ``program`` + ``add_disturb`` calls did.
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
        programmed_f = region.programmed
        valid_f = region.valid
        lsn_f = region.slot_lsn
        if self.is_slc:
            time_f = region.slot_time
            ptime_f = region.slot_program_time
            for i in range(n):
                j = jbase + slots[i]
                programmed_f[j] = True
                valid_f[j] = True
                lsn_f[j] = lsns[i]
                time_f[j] = now
                ptime_f[j] = now
        else:
            for i in range(n):
                j = jbase + slots[i]
                programmed_f[j] = True
                valid_f[j] = True
                lsn_f[j] = lsns[i]
        self.prog_mask[page] = pmask | wmask
        self.valid_mask[page] |= wmask
        n_passes = self.pass_counts[page] + 1
        self.pass_counts[page] = n_passes
        region.program_count[self._page_base + page] = n_passes
        self.n_programmed += n
        self.n_valid += n
        self.page_programmed[page] += n
        before = self.page_valid[page]
        self.page_valid[page] = before + n
        if before == 0:
            self.pages_with_valid += 1
        if self.next_page >= self.pages and self.state is BlockState.OPEN:
            self.state = BlockState.FULL
            region.state_code[self.region_slot] = 2  # BLOCK_STATE_CODES[FULL]
        self.content_epoch += 1
        disturbed = 0
        if partial and apply_disturb:
            disturbed = self._apply_disturb(page, wmask)
        return partial, disturbed

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
        n_passes = self.pass_counts[page] + 1
        self.pass_counts[page] = n_passes
        self.region.program_count[self._page_base + page] = n_passes
        self.content_epoch += 1
        return self._apply_disturb(page, 0)

    def invalidate(self, page: int, slot: int) -> None:
        """Mark one live subpage obsolete."""
        bit = 1 << slot
        vmask = self.valid_mask[page]
        if not vmask & bit:
            raise SubpageStateError(
                f"block {self.block_id} page {page} slot {slot}: not valid")
        self.valid_mask[page] = vmask & ~bit
        self.region.valid[self._base + page * self.spp + slot] = False
        self.n_valid -= 1
        self.n_invalid += 1
        remaining = self.page_valid[page] - 1
        self.page_valid[page] = remaining
        if remaining == 0:
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
        self.valid_mask[page] = vmask & ~mask
        valid_f = self.region.valid
        jbase = self._base + page * self.spp
        for slot in slots:
            valid_f[jbase + slot] = False
        self.n_valid -= k
        self.n_invalid += k
        remaining = self.page_valid[page] - k
        self.page_valid[page] = remaining
        if remaining == 0:
            self.pages_with_valid -= 1
        self.content_epoch += k

    def mark_page_updated(self, page: int) -> None:
        """Record that the data resident in ``page`` was updated while the
        page lived in this block (drives IPU's GC-time hot/cold split)."""
        region = self.region
        if region.page_updated is not None:
            region.page_updated[self._page_base + page] = True
            self.content_epoch += 1

    def touch(self, page: int, slots: list[int], now: Ms) -> None:
        """Refresh the last-access time of subpages (reads count as access
        for the coldness estimate of Equation 2)."""
        time_f = self.region.slot_time
        if time_f is not None:
            jbase = self._base + page * self.spp
            for slot in slots:
                time_f[jbase + slot] = now

    def add_disturb(self, page: int, written_slots: list[int]) -> int:
        """Apply program-disturb bookkeeping for one partial-program pass.

        In-page disturb hits every *valid* already-programmed subpage of the
        page other than the slots just written; neighbouring-page disturb
        hits programmed subpages of pages ``page - 1`` and ``page + 1``.
        Returns the number of *valid* in-page subpages disturbed (the
        quantity IPU eliminates).
        """
        if self.region.disturb_in is None:
            raise SubpageStateError("disturb tracking only exists for SLC-mode blocks")
        written = 0
        for slot in written_slots:
            written |= 1 << slot
        return self._apply_disturb(page, written)

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
        slot = self.region_slot
        region.erase_count[slot] = self.erase_count
        region.state_code[slot] = 0  # BLOCK_STATE_CODES[FREE]
        region.level[slot] = -1
        slots_slice = self._slots_slice
        pages_slice = self._pages_slice
        region.programmed[slots_slice] = False
        region.valid[slots_slice] = False
        region.program_count[pages_slice] = 0
        region.slot_lsn[slots_slice] = NO_LSN
        if self.is_slc:
            region.slot_time[slots_slice] = 0.0
            region.slot_program_time[slots_slice] = 0.0
            region.disturb_in[slots_slice] = 0
            region.disturb_nb[slots_slice] = 0
            region.page_updated[pages_slice] = False
        zeros = [0] * self.pages
        self.prog_mask[:] = zeros
        self.valid_mask[:] = zeros
        self.page_valid[:] = zeros
        self.page_programmed[:] = zeros
        self.pass_counts[:] = zeros
        self.n_valid = 0
        self.n_invalid = 0
        self.n_programmed = 0
        self.pages_with_valid = 0
        self.content_epoch += 1
        self.read_count = 0

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

    def open_as(self, level: int, now: Ms) -> None:
        """Transition a free block to OPEN with a block-level label."""
        if self.state is not BlockState.FREE:
            raise SubpageStateError(
                f"block {self.block_id}: open while {self.state.value}")
        self.state = BlockState.OPEN
        self.level = level
        self.alloc_time = now
        region = self.region
        region.state_code[self.region_slot] = 1  # BLOCK_STATE_CODES[OPEN]
        region.level[self.region_slot] = level

    def mark_victim(self) -> None:
        """Transition FULL → VICTIM (GC drain started).  The block leaves
        the victim candidates, so it cannot be selected twice."""
        self.state = BlockState.VICTIM
        self.region.state_code[self.region_slot] = 3  # BLOCK_STATE_CODES[VICTIM]

    # -- integrity ------------------------------------------------------

    def verify_array_state(self) -> None:
        """Assert every derived scalar/bitmask mirror agrees with the
        authoritative region arrays (consistency-hook support)."""
        pv = self.valid.sum(axis=1).tolist()
        pp = self.programmed.sum(axis=1).tolist()
        if self.page_valid != pv:
            raise SubpageStateError(
                f"block {self.block_id}: page_valid counters drifted")
        if self.page_programmed != pp:
            raise SubpageStateError(
                f"block {self.block_id}: page_programmed counters drifted")
        if self.pass_counts != self.program_count.tolist():
            raise SubpageStateError(
                f"block {self.block_id}: pass_counts mirror drifted from "
                f"the program_count array")
        for page in range(self.pages):
            prow = int(sum(1 << s for s in range(self.spp)
                           if self.programmed[page, s]))
            vrow = int(sum(1 << s for s in range(self.spp)
                           if self.valid[page, s]))
            if self.prog_mask[page] != prow or self.valid_mask[page] != vrow:
                raise SubpageStateError(
                    f"block {self.block_id} page {page}: slot bitmasks "
                    f"drifted from the programmed/valid arrays")
        n_valid = int(self.valid.sum())
        n_programmed = int(self.programmed.sum())
        if (self.n_valid != n_valid or self.n_programmed != n_programmed
                or self.n_invalid != n_programmed - n_valid):
            raise SubpageStateError(
                f"block {self.block_id}: occupancy counters drifted")
        if self.pages_with_valid != sum(1 for v in pv if v):
            raise SubpageStateError(
                f"block {self.block_id}: pages_with_valid drifted")
        region = self.region
        slot = self.region_slot
        if int(region.erase_count[slot]) != self.erase_count:
            raise SubpageStateError(
                f"block {self.block_id}: erase_count mirror drifted")
        if int(region.state_code[slot]) != BLOCK_STATE_CODES[self.state]:
            raise SubpageStateError(
                f"block {self.block_id}: state_code mirror drifted "
                f"({int(region.state_code[slot])} vs {self.state.value})")
        expected_level = -1 if self.level is None else int(self.level)
        if int(region.level[slot]) != expected_level:
            raise SubpageStateError(
                f"block {self.block_id}: level mirror drifted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # Counts come straight off the region arrays (ground truth), so a
        # drifted derived counter is visible when debugging.
        n_valid = int(self.valid.sum())
        n_invalid = int(self.programmed.sum()) - n_valid
        return (f"Block({self.block_id}, {self.mode.value}, {self.state.value}, "
                f"level={self.level}, next_page={self.next_page}, "
                f"valid={n_valid}, invalid={n_invalid})")
