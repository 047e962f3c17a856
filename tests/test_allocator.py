"""Region allocator: striping, wear-aware pools, reserve, staleness."""

import pytest

from repro.errors import AllocationError
from repro.ftl.allocator import GC_RESERVE_BLOCKS, RegionAllocator
from repro.nand import FlashArray
from repro.nand.block import BlockState

from conftest import tiny_config
from reference_geometry import plane_of


@pytest.fixture
def flash():
    return FlashArray(tiny_config())


@pytest.fixture
def alloc(flash):
    return RegionAllocator(flash, True)


class TestPoolState:
    def test_initially_all_free(self, alloc):
        assert alloc.free_blocks == alloc.total_blocks
        assert alloc.free_fraction == 1.0

    def test_alloc_opens_block(self, alloc):
        block, page = alloc.alloc_page(1)
        assert block.state is BlockState.OPEN
        assert block.level == 1
        assert page == 0
        assert alloc.free_blocks == alloc.total_blocks - 1


class TestStriping:
    def test_rotates_over_stripes(self, flash, alloc):
        if alloc.stripes < 2:
            pytest.skip("single-stripe region")
        a, _ = alloc.alloc_page(1)
        b, _ = alloc.alloc_page(1)
        assert plane_of(flash.geometry, a.block_id) != plane_of(flash.geometry, b.block_id)

    def test_sequential_pages_within_stripe(self, flash, alloc):
        first = {}
        for _ in range(alloc.stripes * 2):
            block, page = alloc.alloc_page(1)
            block.program_disturb(page, [0], [1], 0.0, 4)
            if block.block_id in first:
                assert page == first[block.block_id] + 1
            else:
                first[block.block_id] = page

    def test_max_stripes_cap(self, flash):
        alloc = RegionAllocator(flash, True, max_stripes=1)
        assert alloc.stripes == 1


class TestWearAwareness:
    def test_pops_least_worn(self, flash, alloc):
        # Age every block except one.
        for block_id in flash.slc_block_ids[1:]:
            flash.block(block_id).erase_count = 5
        # Rebuild allocator so heaps see the wear.
        alloc = RegionAllocator(flash, True, max_stripes=1)
        block, _ = alloc.alloc_page(1)
        assert block.block_id == flash.slc_block_ids[0]


class TestLevels:
    def test_levels_get_separate_actives(self, alloc):
        a, _ = alloc.alloc_page(1)
        b, _ = alloc.alloc_page(2)
        assert a.block_id != b.block_id
        assert a.level == 1
        assert b.level == 2


class TestStaleActives:
    def test_erased_active_replaced(self, flash, alloc):
        block, page = alloc.alloc_page(1)
        block.program_disturb(page, [0], [1], 0.0, 4)
        flash.invalidate(block.block_id, page, 0)
        # Drain remaining pages so it can be erased.
        while not block.is_full:
            block.program_disturb(block.next_page, [0], [9], 0.0, 4)
            flash.invalidate(block.block_id, block.next_page - 1, 0)
        flash.erase(block.block_id)
        alloc.release(block.block_id)
        nxt, npage = alloc.alloc_page(1)
        assert nxt.state is BlockState.OPEN
        assert npage == 0

    def test_full_active_replaced(self, flash, alloc):
        block, page = alloc.alloc_page(1)
        while not block.is_full:
            block.program_disturb(block.next_page, [0], [9], 0.0, 4)
        # Keep requesting from the same level until a fresh block shows up
        # (for_gc bypasses the host reserve in this tiny region).
        for _ in range(alloc.stripes):
            nxt, _ = alloc.alloc_page(1, for_gc=True)
        assert nxt.block_id != block.block_id

    def test_relabelled_active_not_reused(self, flash, alloc):
        block, page = alloc.alloc_page(1)
        block.level = 3  # another level claimed it
        nxt, _ = alloc.alloc_page(1)
        assert nxt.level == 1


class TestReserve:
    def test_host_blocked_at_reserve(self, flash):
        alloc = RegionAllocator(flash, True, max_stripes=1)
        opened = 0
        while alloc.alloc_page(opened + 10) is not None:
            opened += 1  # each call a new level -> new block
        assert alloc.free_blocks == GC_RESERVE_BLOCKS

    def test_gc_can_use_reserve(self, flash):
        alloc = RegionAllocator(flash, True, max_stripes=1)
        level = 10
        while alloc.alloc_page(level) is not None:
            level += 1
        res = alloc.alloc_page(level, for_gc=True)
        assert res is not None

    def test_release_requires_free_state(self, flash, alloc):
        block, _ = alloc.alloc_page(1)
        with pytest.raises(AllocationError):
            alloc.release(block.block_id)


class TestCandidates:
    def test_only_full_blocks(self, flash, alloc):
        block, page = alloc.alloc_page(1)
        block.program_disturb(page, [0], [1], 0.0, 4)
        assert alloc.victim_candidates() == []
        while not block.is_full:
            block.program_disturb(block.next_page, [0], [9], 0.0, 4)
        assert block in alloc.victim_candidates()
