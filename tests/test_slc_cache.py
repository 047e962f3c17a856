"""SLC cache view."""

import pytest

from repro import IPUFTL
from repro.ftl.levels import BlockLevel
from repro.slc_cache import SlcCacheView

from conftest import tiny_config


@pytest.fixture
def ftl():
    return IPUFTL(tiny_config())


class TestView:
    def test_empty_cache(self, ftl):
        view = SlcCacheView(ftl)
        stats = view.level_stats()
        assert all(s.blocks == 0 for s in stats.values())
        assert view.free_blocks == len(ftl.flash.slc_block_ids)

    def test_tracks_writes(self, ftl):
        ftl.handle_write([0, 1], 0.0)
        view = SlcCacheView(ftl)
        work = view.level_stats()[BlockLevel.WORK]
        assert work.blocks == 1
        assert work.valid_subpages == 2

    def test_tracks_updates(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        view = SlcCacheView(ftl)
        work = view.level_stats()[BlockLevel.WORK]
        assert work.invalid_subpages == 1
        assert work.updated_pages == 1

    def test_promotion_visible(self, ftl):
        for t in range(5):
            ftl.handle_write([0], float(t))
        view = SlcCacheView(ftl)
        stats = view.level_stats()
        assert stats[BlockLevel.MONITOR].blocks >= 1

    def test_summary_rows(self, ftl):
        ftl.handle_write([0], 0.0)
        rows = SlcCacheView(ftl).summary_rows()
        assert rows[-1]["level"] == "(free)"
        assert len(rows) == 4
