"""Victim-selection policies."""

import pytest

from repro.ftl.victim import (
    GreedyPageVictimPolicy,
    GreedyVictimPolicy,
    IsrVictimPolicy,
)
from repro.nand.block import Block
from repro.nand.cell import CellMode


def full_block(block_id, valid_per_page, pages=2, spp=4):
    """A FULL block with ``valid_per_page`` live slots per page."""
    block = Block(block_id, CellMode.SLC, pages, spp)
    block.open_as(1)
    for page in range(pages):
        block.program_disturb(page, list(range(spp)), list(range(spp)), 0.0,
                              spp)
        for slot in range(spp - valid_per_page):
            block.invalidate(page, slot)
    return block


class TestGreedy:
    def test_picks_most_reclaimable(self):
        a = full_block(0, valid_per_page=3)
        b = full_block(1, valid_per_page=1)
        assert GreedyVictimPolicy().select([a, b], 0.0) is b

    def test_none_when_nothing_reclaimable(self):
        a = full_block(0, valid_per_page=4)
        assert GreedyVictimPolicy().select([a], 0.0) is None

    def test_empty_candidates(self):
        assert GreedyVictimPolicy().select([], 0.0) is None

    def test_scan_accounting(self):
        policy = GreedyVictimPolicy()
        policy.select([full_block(0, 1)], 0.0)
        policy.select([full_block(1, 1)], 0.0)
        assert policy.scans == 2
        assert policy.scan_seconds >= 0.0


class TestGreedyPage:
    def test_counts_whole_pages(self):
        # Block a: every page half-valid (frees nothing page-wise);
        # block b: one page dead, one page full.
        a = full_block(0, valid_per_page=2)
        b = Block(1, CellMode.SLC, 2, 4)
        b.open_as(1)
        b.program_disturb(0, [0, 1, 2, 3], [1, 2, 3, 4], 0.0, 4)
        b.program_disturb(1, [0, 1, 2, 3], [5, 6, 7, 8], 0.0, 4)
        for slot in range(4):
            b.invalidate(0, slot)
        assert GreedyPageVictimPolicy().select([a, b], 0.0) is b

    def test_none_when_every_page_has_valid(self):
        a = full_block(0, valid_per_page=1)
        assert GreedyPageVictimPolicy().select([a], 0.0) is None


class TestIsr:
    def test_prefers_more_invalid(self):
        a = full_block(0, valid_per_page=3)
        b = full_block(1, valid_per_page=1)
        assert IsrVictimPolicy().select([a, b], 10.0) is b

    def test_cold_beats_recent_at_equal_invalid(self):
        a = full_block(0, valid_per_page=2)
        b = full_block(1, valid_per_page=2)
        a.slot_time[0, 2:4] = 99.0
        a.slot_time[1, 2:4] = 99.0
        assert IsrVictimPolicy().select([a, b], 100.0) is b

    def test_cache_invalidated_by_content_change(self):
        policy = IsrVictimPolicy(refresh_ms=1e9)
        hot = full_block(0, valid_per_page=4)
        fresh = full_block(1, valid_per_page=4)
        hot.slot_time[0] = 10.0   # hot looks warmer at first
        assert policy.select([hot, fresh], 10.0) is fresh
        # Invalidate hot's content: despite the long-lived cache entry
        # (refresh window is huge), the epoch bump forces a recompute.
        for page in range(hot.pages):
            for slot in range(4):
                hot.invalidate(page, slot)
        assert policy.select([hot, fresh], 10.0) is hot

    def test_cache_refreshes_after_interval(self):
        policy = IsrVictimPolicy(refresh_ms=5.0)
        block = full_block(0, valid_per_page=2)
        first = policy.select([block], 1.0)
        # Within refresh window the cached coldness is reused (no error).
        policy.select([block], 2.0)
        # After the window the value recomputes and ages increase.
        chosen = policy.select([block], 1000.0)
        assert chosen is block

    def test_empty_candidates(self):
        assert IsrVictimPolicy().select([], 0.0) is None
