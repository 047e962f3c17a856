"""Pure-python reference implementation of :class:`~repro.nand.block.Block`.

The array-backed block (:mod:`repro.nand.block` over
:class:`~repro.nand.state.RegionState`) is a performance kernel: flat
numpy stores, python-int bitmasks and counters kept in step with the
region's ``valid`` and ``state_code`` columns.  This module keeps the
*specification* alive as executable code: one slot at a time, nested
python lists, no numpy, no derived mirrors — the simplest state machine
that satisfies the documented block semantics.

``tests/test_array_state.py`` drives randomized operation sequences
(hypothesis) through both implementations and asserts identical
observable state, return values and raised exception types after every
step.  The reference is deliberately *not* used anywhere in the
simulator; its only job is to make the kernel's optimisations falsifiable.

Method names, signatures and exception types match ``Block`` exactly, so
a single interpreter can drive either implementation.
"""

from __future__ import annotations

from repro.errors import (
    EraseError,
    PartialProgramLimitError,
    ProgramOrderError,
    SubpageStateError,
)
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from repro.units import Lsn, Ms, PeCycles, Ppn, SubpageCount

__all__ = ["ReferenceBlock", "reclaimable_subpages"]

#: LSN of a slot that holds no data.  The kernel keeps no such sentinel
#: (its ``prog_mask`` says which slots hold an LSN), so the differential
#: suite compares LSNs of programmed slots only.
NO_LSN: Lsn = -1


class ReferenceBlock:
    """One-slot-at-a-time model of a block's observable state.

    Everything is plain python: ``programmed``/``valid`` are nested bool
    lists, occupancy counters are recomputed-by-increment with no bitmask
    shortcuts, and the disturb pass walks slots with explicit loops.
    """

    # Unit vocabulary for the dimensioned state (``repro.units``): the
    # same facts the kernel's ``RegionState`` columns carry, in nested
    # per-page list form.
    erase_count: PeCycles
    next_page: Ppn
    slot_lsn: "list[list[Lsn]]"
    slot_time: "list[list[Ms]] | None"
    slot_program_time: "list[list[Ms]] | None"

    def __init__(self, block_id: int, mode: CellMode, pages: int,
                 subpages_per_page: int):
        self.block_id = block_id
        self.mode = mode
        self.is_slc = mode.is_slc
        self.pages = pages
        self.spp = subpages_per_page
        self.erase_count = 0
        self.next_page = 0
        self.state = BlockState.FREE
        self.level: int | None = None
        self.content_epoch = 0
        self._reset_content()

    def _reset_content(self) -> None:
        pages, spp = self.pages, self.spp
        self.programmed = [[False] * spp for _ in range(pages)]
        self.valid = [[False] * spp for _ in range(pages)]
        self.slot_lsn = [[NO_LSN] * spp for _ in range(pages)]
        self.pass_counts = [0] * pages
        if self.is_slc:
            self.slot_time = [[0.0] * spp for _ in range(pages)]
            self.slot_program_time = [[0.0] * spp for _ in range(pages)]
            self.disturb_in = [[0] * spp for _ in range(pages)]
            self.disturb_nb = [[0] * spp for _ in range(pages)]
            self.page_updated = [False] * pages
        else:
            self.slot_time = None
            self.slot_program_time = None
            self.disturb_in = None
            self.disturb_nb = None
            self.page_updated = None

    # -- derived quantities (recomputed, never cached) -------------------

    @property
    def n_valid(self) -> SubpageCount:
        return sum(sum(row) for row in self.valid)

    @property
    def n_programmed(self) -> SubpageCount:
        return sum(sum(row) for row in self.programmed)

    @property
    def n_invalid(self) -> SubpageCount:
        return self.n_programmed - self.n_valid

    @property
    def page_valid(self) -> list[int]:
        return [sum(row) for row in self.valid]

    @property
    def page_programmed(self) -> list[int]:
        return [sum(row) for row in self.programmed]

    @property
    def pages_with_valid(self) -> int:
        return sum(1 for row in self.valid if any(row))

    @property
    def total_subpages(self) -> SubpageCount:
        return self.pages * self.spp

    @property
    def is_full(self) -> bool:
        return self.next_page >= self.pages

    def free_slots_of_page(self, page: int) -> list[int]:
        return [s for s in range(self.spp) if not self.programmed[page][s]]

    def valid_slots_of_page(self, page: int) -> list[int]:
        return [s for s in range(self.spp) if self.valid[page][s]]

    def slot_lsns(self, page: int, slots: list[int]) -> "list[Lsn]":
        return [self.slot_lsn[page][s] for s in slots]

    # -- mutation --------------------------------------------------------

    def program_disturb(self, page: int, slots: list[int], lsns: list[Lsn],
                        now: Ms, max_programs: int) -> "tuple[bool, int]":
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
        seen: set[int] = set()
        for slot in slots:
            if not 0 <= slot < self.spp:
                raise SubpageStateError(
                    f"slot {slot} out of range [0, {self.spp})")
            if self.programmed[page][slot]:
                raise SubpageStateError(
                    f"block {self.block_id} page {page} slot {slot}: "
                    f"already programmed")
            if slot in seen:
                raise SubpageStateError(
                    f"block {self.block_id}: duplicate slots {slots}")
            seen.add(slot)
        if not partial:
            self.next_page += 1
        for slot, lsn in zip(slots, lsns):
            self.programmed[page][slot] = True
            self.valid[page][slot] = True
            self.slot_lsn[page][slot] = lsn
            if self.is_slc:
                self.slot_time[page][slot] = now
                self.slot_program_time[page][slot] = now
        self.pass_counts[page] += 1
        if self.next_page >= self.pages and self.state is BlockState.OPEN:
            self.state = BlockState.FULL
        self.content_epoch += 1
        if partial:
            return True, self._disturb(page, slots)
        return False, 0

    def reprogram_pass(self, page: int, max_programs: int) -> int:
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
        return self._disturb(page, [])

    def invalidate(self, page: int, slot: int) -> None:
        # An out-of-range (non-negative) slot is "not valid" like any
        # other unset bit — the kernel's bitmask check makes no
        # distinction, so neither does the specification.
        if not 0 <= slot < self.spp or not self.valid[page][slot]:
            raise SubpageStateError(
                f"block {self.block_id} page {page} slot {slot}: not valid")
        self.valid[page][slot] = False
        self.content_epoch += 1

    def invalidate_many(self, page: int, slots: list[int]) -> None:
        if not slots:
            return
        seen: set[int] = set()
        for slot in slots:
            if (not 0 <= slot < self.spp or not self.valid[page][slot]
                    or slot in seen):
                raise SubpageStateError(
                    f"block {self.block_id} page {page} slot {slot}: not valid")
            seen.add(slot)
        for slot in slots:
            self.valid[page][slot] = False
        self.content_epoch += len(slots)

    def mark_page_updated(self, page: int) -> None:
        if self.page_updated is not None:
            self.page_updated[page] = True
            self.content_epoch += 1

    def _disturb(self, page: int, written_slots: list[int]) -> int:
        """Program disturb of one partial pass: in-page hits every
        programmed slot not just written, neighbour-page hits every
        programmed slot of pages ``page - 1`` and ``page + 1``; returns
        the valid in-page subpages hit."""
        written = set(written_slots)
        hit_valid = 0
        for slot in range(self.spp):
            if self.programmed[page][slot] and slot not in written:
                self.disturb_in[page][slot] += 1
                if self.valid[page][slot]:
                    hit_valid += 1
        for npage in (page - 1, page + 1):
            if 0 <= npage < self.next_page:
                for slot in range(self.spp):
                    if self.programmed[npage][slot]:
                        self.disturb_nb[npage][slot] += 1
        return hit_valid

    def erase(self) -> None:
        if self.n_valid != 0:
            raise EraseError(
                f"block {self.block_id}: erase with {self.n_valid} valid subpages")
        if self.state is BlockState.FREE:
            raise EraseError(f"block {self.block_id}: erase of a free block")
        self.erase_count += 1
        self.next_page = 0
        self.state = BlockState.FREE
        self.level = None
        self._reset_content()
        self.content_epoch += 1

    def retire(self) -> None:
        if self.state is not BlockState.FREE:
            raise SubpageStateError(
                f"block {self.block_id}: retire while {self.state.value} "
                f"(blocks retire from the just-erased FREE state)")
        self.state = BlockState.RETIRED

    def open_as(self, level: int) -> None:
        if self.state is not BlockState.FREE:
            raise SubpageStateError(
                f"block {self.block_id}: open while {self.state.value}")
        self.state = BlockState.OPEN
        self.level = level

    def mark_victim(self) -> None:
        self.state = BlockState.VICTIM


def reclaimable_subpages(block: "ReferenceBlock | Block") -> SubpageCount:
    """Subpages freed by collecting ``block``, either implementation
    (everything non-valid).  The victim scores compute it inline."""
    return block.total_subpages - block.n_valid
