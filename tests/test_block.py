"""Block state machine: sequential programming, partial passes, disturb."""

import numpy as np
import pytest

from repro.errors import (
    EraseError,
    PartialProgramLimitError,
    ProgramOrderError,
    SubpageStateError,
)
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode


def make_block(mode=CellMode.SLC, pages=4, spp=4, block_id=0):
    block = Block(block_id, mode, pages, spp)
    block.open_as(level=1)
    return block


class TestLifecycle:
    def test_starts_free(self):
        block = Block(0, CellMode.SLC, 4, 4)
        assert block.state is BlockState.FREE
        assert block.level is None

    def test_open_sets_level(self):
        block = make_block()
        assert block.state is BlockState.OPEN
        assert block.level == 1

    def test_open_twice_rejected(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.open_as(2)

    def test_full_after_all_pages(self):
        block = make_block(pages=2)
        block.program_disturb(0, [0], [10], 0.0, 4)
        assert block.state is BlockState.OPEN
        block.program_disturb(1, [0], [11], 0.0, 4)
        assert block.state is BlockState.FULL
        assert block.is_full

    def test_program_while_free_rejected(self):
        block = Block(0, CellMode.SLC, 4, 4)
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [0], [1], 0.0, 4)

    def test_per_page_lists_follow_the_lifecycle(self):
        """Free blocks share one all-zero tuple for their per-page
        values; opening gives a block its own lists, erasing takes them
        back."""
        block = Block(0, CellMode.SLC, 4, 4)
        other = Block(1, CellMode.MLC, 4, 4)
        shared = block.prog_mask
        assert shared == (0, 0, 0, 0)
        assert (block.valid_mask is block.pass_counts is shared
                is other.prog_mask)
        with pytest.raises(TypeError):
            block.pass_counts[0] += 1
        block.open_as(1)
        lists = (block.prog_mask, block.valid_mask, block.pass_counts)
        assert all(type(v) is list and v == [0] * 4 for v in lists)
        assert len({id(v) for v in lists}) == 3
        block.program_disturb(0, [0], [1], 0.0, 4)
        assert other.prog_mask == (0, 0, 0, 0)
        block.invalidate(0, 0)
        block.erase()
        assert block.prog_mask is block.valid_mask is shared
        block.verify_array_state()


class TestProgramming:
    def test_initial_program_not_partial(self):
        block = make_block()
        assert block.program_disturb(0, [0, 1], [10, 11], 0.0, 4)[0] is False

    def test_second_pass_is_partial(self):
        block = make_block()
        block.program_disturb(0, [0], [10], 0.0, 4)
        assert block.program_disturb(0, [1], [11], 0.0, 4)[0] is True

    def test_out_of_order_rejected(self):
        block = make_block()
        with pytest.raises(ProgramOrderError):
            block.program_disturb(2, [0], [10], 0.0, 4)

    def test_slot_reuse_rejected(self):
        block = make_block()
        block.program_disturb(0, [0], [10], 0.0, 4)
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [0], [11], 0.0, 4)

    def test_duplicate_slots_rejected(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [1, 1], [10, 11], 0.0, 4)

    def test_empty_slots_rejected(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [], [], 0.0, 4)

    def test_mismatched_lsns_rejected(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [0, 1], [10], 0.0, 4)

    def test_slot_out_of_range(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [4], [10], 0.0, 4)

    def test_partial_program_limit(self):
        block = make_block()
        for i in range(4):
            block.program_disturb(0, [i], [10 + i], 0.0, 4)
        block2 = make_block(pages=1)
        # pass_counts == max -> further pass rejected even with free slots
        block2.program_disturb(0, [0], [1], 0.0, 2)
        block2.program_disturb(0, [1], [2], 0.0, 2)
        with pytest.raises(PartialProgramLimitError):
            block2.program_disturb(0, [2], [3], 0.0, 2)

    def test_mlc_partial_program_rejected(self):
        block = make_block(mode=CellMode.MLC)
        block.program_disturb(0, [0], [10], 0.0, 4)
        with pytest.raises(SubpageStateError):
            block.program_disturb(0, [1], [11], 0.0, 4)

    def test_program_records_lsn_and_time(self):
        block = make_block()
        block.program_disturb(0, [2], [42], 7.5, 4)
        assert block.slot_lsn[0, 2] == 42
        assert block.slot_time[0, 2] == 7.5

    def test_counters(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        assert block.n_programmed == 2
        assert block.n_valid == 2
        assert block.n_invalid == 0

    def test_content_epoch_bumps(self):
        block = make_block()
        e0 = block.content_epoch
        block.program_disturb(0, [0], [1], 0.0, 4)
        assert block.content_epoch > e0


class TestInvalidate:
    def test_invalidate_moves_counters(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.invalidate(0, 0)
        assert block.n_valid == 0
        assert block.n_invalid == 1

    def test_double_invalidate_rejected(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.invalidate(0, 0)
        with pytest.raises(SubpageStateError):
            block.invalidate(0, 0)

    def test_invalidate_unprogrammed_rejected(self):
        block = make_block()
        with pytest.raises(SubpageStateError):
            block.invalidate(0, 3)

    def test_reclaimable(self):
        block = make_block(pages=1)
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        assert block.reclaimable_subpages == 2
        block.invalidate(0, 0)
        assert block.reclaimable_subpages == 3


class TestDisturb:
    def test_in_page_disturb_hits_valid_neighbors(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        _, hit = block.program_disturb(0, [2], [3], 0.0, 4)
        assert hit == 2
        assert block.disturb_in[0][0] == 1
        assert block.disturb_in[0][1] == 1
        assert block.disturb_in[0][2] == 0  # just-written slot spared

    def test_invalid_subpages_still_counted_in_array_not_in_hits(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        block.invalidate(0, 0)
        _, hit = block.program_disturb(0, [2], [3], 0.0, 4)
        assert hit == 1  # only the valid one matters
        assert block.disturb_in[0][0] == 1  # array still tracks programmed cells

    def test_neighbor_disturb(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.program_disturb(1, [0, 1], [2, 3], 0.0, 4)
        block.program_disturb(2, [0], [4], 0.0, 4)
        block.program_disturb(1, [2], [5], 0.0, 4)
        assert block.disturb_nb[0][0] == 1
        assert block.disturb_nb[2][0] == 1
        assert block.disturb_nb[1][0] == 0  # own page gets in-page, not nb

    def test_neighbor_disturb_edge_pages(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.program_disturb(0, [1], [2], 0.0, 4)  # page -1 does not exist
        assert sum(map(sum, block.disturb_nb)) == 0


class TestErase:
    def test_erase_resets_everything(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        block.invalidate(0, 0)
        block.invalidate(0, 1)
        block.erase()
        assert block.state is BlockState.FREE
        assert block.erase_count == 1
        assert block.next_page == 0
        assert block.n_programmed == 0
        assert block.n_invalid == 0
        assert list(block.prog_mask) == [0] * block.pages
        assert not block.valid.any()
        assert block.level is None

    def test_erase_with_valid_rejected(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        with pytest.raises(EraseError):
            block.erase()

    def test_erase_free_block_rejected(self):
        block = Block(0, CellMode.SLC, 4, 4)
        with pytest.raises(EraseError):
            block.erase()

    def test_reuse_after_erase(self):
        block = make_block(pages=1)
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.invalidate(0, 0)
        block.erase()
        block.open_as(2)
        assert block.program_disturb(0, [0], [5], 1.0, 4)[0] is False
        assert block.level == 2


class TestHelpers:
    def test_free_and_valid_slots(self):
        block = make_block()
        block.program_disturb(0, [0, 2], [1, 2], 0.0, 4)
        assert block.free_slots_of_page(0) == [1, 3]
        assert block.valid_slots_of_page(0) == [0, 2]
        block.invalidate(0, 0)
        assert block.valid_slots_of_page(0) == [2]

    def test_page_updated_flag(self):
        block = make_block()
        assert not block.page_updated[0]
        block.mark_page_updated(0)
        assert block.page_updated[0]

    def test_mlc_block_has_no_slc_arrays(self):
        block = Block(0, CellMode.MLC, 4, 4)
        assert block.slot_time is None
        assert block.disturb_in is None
        assert block.page_updated is None
