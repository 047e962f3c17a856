"""The in-page update feasibility check."""

import pytest

from repro.core.intra_page import plan_intra_page_update
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from repro.nand.geometry import PPA


def make_block(mode=CellMode.SLC):
    block = Block(0, mode, 4, 4)
    block.open_as(1)
    return block


def plan(chunk, mappings, block, max_programs=4):
    return plan_intra_page_update(
        chunk, mappings, get_block=lambda _id: block,
        max_page_programs=max_programs)


class TestFeasible:
    def test_single_subpage_update(self):
        block = make_block()
        block.program_disturb(0, [0], [7], 0.0, 4)
        result = plan([7], [PPA(0, 0, 0)], block)
        assert result is not None
        assert result.target_slots == (1,)

    def test_two_subpage_update(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [7, 8], 0.0, 4)
        result = plan([7, 8], [PPA(0, 0, 0), PPA(0, 0, 1)], block)
        assert result.target_slots == (2, 3)

    def test_targets_lowest_free_slots(self):
        block = make_block()
        block.program_disturb(0, [0, 2], [7, 8], 0.0, 4)
        block.invalidate(0, 2)  # stale older version
        result = plan([7], [PPA(0, 0, 0)], block)
        assert result.target_slots == (1,)

    def test_partial_rewrite_rejected(self):
        """An update that covers only part of the page's live data must
        not partial-program in place (it would disturb the sibling)."""
        block = make_block()
        block.program_disturb(0, [0, 1], [7, 8], 0.0, 4)
        assert plan([7], [PPA(0, 0, 0)], block) is None

    def test_works_on_full_block(self):
        block = make_block()
        for page in range(4):
            block.program_disturb(page, [0], [page], 0.0, 4)
        assert block.state is BlockState.FULL
        assert plan([0], [PPA(0, 0, 0)], block) is not None


class TestInfeasible:
    def test_unmapped_chunk(self):
        block = make_block()
        assert plan([7], [None], block) is None

    def test_partially_mapped_chunk(self):
        block = make_block()
        block.program_disturb(0, [0], [7], 0.0, 4)
        assert plan([7, 8], [PPA(0, 0, 0), None], block) is None

    def test_split_across_pages(self):
        block = make_block()
        block.program_disturb(0, [0], [7], 0.0, 4)
        block.program_disturb(1, [0], [8], 0.0, 4)
        assert plan([7, 8], [PPA(0, 0, 0), PPA(0, 1, 0)], block) is None

    def test_not_enough_free_slots(self):
        block = make_block()
        block.program_disturb(0, [0, 1, 2], [7, 8, 9], 0.0, 4)
        assert plan([7, 8], [PPA(0, 0, 0), PPA(0, 0, 1)], block) is None

    def test_pass_limit_reached(self):
        block = make_block()
        block.program_disturb(0, [0], [7], 0.0, 2)
        block.program_disturb(0, [1], [8], 0.0, 2)
        assert plan([7], [PPA(0, 0, 0)], block, max_programs=2) is None

    def test_mlc_resident_data(self):
        block = make_block(CellMode.MLC)
        block.program_disturb(0, [0], [7], 0.0, 4)
        assert plan([7], [PPA(0, 0, 0)], block) is None

    def test_victim_block_rejected(self):
        block = make_block()
        block.program_disturb(0, [0], [7], 0.0, 4)
        block.state = BlockState.VICTIM
        assert plan([7], [PPA(0, 0, 0)], block) is None

    def test_empty_chunk(self):
        block = make_block()
        assert plan([], [], block) is None

    def test_mismatched_lengths(self):
        block = make_block()
        assert plan([7], [], block) is None
