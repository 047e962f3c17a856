"""Wear tracking and static wear-levelling triggers."""

import pytest

from repro.config import CacheConfig
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from repro.nand.wear import WearTracker


def make_blocks(n=4):
    return [Block(i, CellMode.SLC, 2, 4) for i in range(n)]


def fill(block, lsn0=0, now=0.0):
    block.open_as(1)
    block.program_disturb(0, [0], [lsn0], now, 4)
    block.program_disturb(1, [0], [lsn0 + 1], now, 4)


@pytest.fixture
def cache():
    return CacheConfig(wear_leveling_gap=2, wear_leveling_period=3)


class TestSpread:
    def test_initial_spread_zero(self, cache):
        tracker = WearTracker(make_blocks(), cache)
        assert tracker.spread == 0
        assert tracker.min_erase == 0
        assert tracker.max_erase == 0

    def test_spread_tracks_erases(self, cache):
        blocks = make_blocks()
        blocks[0].erase_count = 5
        tracker = WearTracker(blocks, cache)
        assert tracker.spread == 5
        assert tracker.max_erase == 5


class TestShouldLevel:
    def test_disabled(self):
        cache = CacheConfig(static_wear_leveling=False)
        tracker = WearTracker(make_blocks(), cache)
        for _ in range(100):
            tracker.note_erase()
        assert not tracker.should_level()

    def test_period_gates(self, cache):
        blocks = make_blocks()
        blocks[0].erase_count = 10
        tracker = WearTracker(blocks, cache)
        tracker.note_erase()
        assert not tracker.should_level()  # period (3) not reached
        tracker.note_erase()
        tracker.note_erase()
        assert tracker.should_level()

    def test_small_spread_no_level(self, cache):
        blocks = make_blocks()
        blocks[0].erase_count = 1
        tracker = WearTracker(blocks, cache)
        for _ in range(3):
            tracker.note_erase()
        assert not tracker.should_level()

    def test_counter_resets_after_check(self, cache):
        blocks = make_blocks()
        blocks[0].erase_count = 10
        tracker = WearTracker(blocks, cache)
        for _ in range(3):
            tracker.note_erase()
        assert tracker.should_level()
        assert not tracker.should_level()  # counter consumed


class TestCandidates:
    def test_coldest_block_prefers_low_wear_full(self, cache):
        blocks = make_blocks()
        fill(blocks[0])
        fill(blocks[1], lsn0=10)
        blocks[1].erase_count = 7
        tracker = WearTracker(blocks, cache)
        assert tracker.coldest_block() is blocks[0]

    def test_coldest_requires_valid_data(self, cache):
        blocks = make_blocks()
        fill(blocks[0])
        blocks[0].invalidate(0, 0)
        blocks[0].invalidate(1, 0)
        tracker = WearTracker(blocks, cache)
        assert tracker.coldest_block() is None
