"""MGA scheme: packing, partial programming, buffered eviction."""

import pytest

from repro import MGAFTL
from repro.sim.ops import OpKind

from conftest import tiny_config


@pytest.fixture
def ftl():
    return MGAFTL(tiny_config())


class TestPacking:
    def test_small_writes_share_a_page(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([100], 1.0)
        a, b = ftl.lookup(0), ftl.lookup(100)
        assert (a.block, a.page) == (b.block, b.page)
        assert a.slot != b.slot

    def test_second_write_is_partial_program(self, ftl):
        ftl.handle_write([0], 0.0)
        assert ftl.flash.partial_programs == 0
        ftl.handle_write([100], 1.0)
        assert ftl.flash.partial_programs == 1

    def test_page_fills_to_capacity(self, ftl):
        for i in range(4):
            ftl.handle_write([i * 10], float(i))
        locations = {(ftl.lookup(i * 10).block, ftl.lookup(i * 10).page)
                     for i in range(4)}
        assert len(locations) == 1
        # Fifth write opens a new page.
        ftl.handle_write([40], 4.0)
        fifth = ftl.lookup(40)
        assert (fifth.block, fifth.page) not in locations or fifth.slot is None

    def test_respects_pass_limit(self, ftl):
        import dataclasses
        cfg = tiny_config()
        cfg = dataclasses.replace(
            cfg, reliability=dataclasses.replace(
                cfg.reliability, max_page_programs=2))
        ftl = MGAFTL(cfg)
        ftl.handle_write([0], 0.0)
        ftl.handle_write([10], 1.0)  # second pass, page at limit
        ftl.handle_write([20], 2.0)  # must go elsewhere
        a, c = ftl.lookup(0), ftl.lookup(20)
        assert (a.block, a.page) != (c.block, c.page)
        for b in ftl.flash.blocks:
            if b.mode.is_slc:
                assert max(b.pass_counts) <= 2

    def test_multi_subpage_write_single_pass_when_fresh(self, ftl):
        ops = ftl.handle_write([0, 1, 2, 3], 0.0)
        programs = [o for o in ops if o.kind is OpKind.PROGRAM]
        assert len(programs) == 1
        assert programs[0].n_slots == 4

    def test_write_splits_across_pack_boundary(self, ftl):
        ftl.handle_write([0, 1, 2], 0.0)       # page has 1 free slot
        ops = ftl.handle_write([10, 11], 1.0)  # 1 slot here, 1 in a new page
        programs = [o for o in ops if o.kind is OpKind.PROGRAM]
        assert len(programs) == 2
        ftl.check_consistency()

    def test_partial_transfer_only_written_slots(self, ftl):
        ops = ftl.handle_write([0], 0.0)
        program = next(o for o in ops if o.kind is OpKind.PROGRAM)
        assert program.channel_slots == 1


class TestUpdates:
    def test_update_invalidates_and_repacks(self, ftl):
        ftl.handle_write([0], 0.0)
        old = ftl.lookup(0)
        ftl.handle_write([0], 1.0)
        new = ftl.lookup(0)
        assert new != old
        assert not ftl.flash.block(old.block).valid[old.page, old.slot]
        ftl.check_consistency()

    def test_disturb_accrues_on_valid_neighbors(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([10], 1.0)
        assert ftl.flash.disturbed_valid_subpages >= 1


class TestGC:
    def fill_cache(self, ftl, n=4000):
        lsn = 0
        for i in range(n):
            ftl.handle_write([lsn], float(i))
            lsn += 4
            if ftl.flash.erases_slc > 3:
                break
        return lsn

    def test_gc_triggers_and_preserves_data(self, ftl):
        last = self.fill_cache(ftl)
        assert ftl.flash.erases_slc > 0
        for lsn in range(0, last, 4):
            assert ftl.lookup(lsn) is not None
        ftl.check_consistency()

    def test_eviction_buffer_drains(self, ftl):
        self.fill_cache(ftl)
        assert ftl._evict_buffer == [] or ftl.slc_gc.draining
        assert ftl.stats.evicted_subpages_to_mlc > 0

    def test_evictions_pack_mlc_pages(self, ftl):
        self.fill_cache(ftl)
        # Packed eviction: MLC program ops average close to 4 subpages.
        if ftl.stats.gc_programs_mlc:
            avg = ftl.stats.gc_subpages_mlc / ftl.stats.gc_programs_mlc
            assert avg > 2.0

    def test_write_to_buffered_lsn_cancels_eviction(self, ftl):
        """A host write racing a partially-drained victim must not let the
        flush resurrect stale data."""
        self.fill_cache(ftl)
        # Force a drain in progress, then rewrite something buffered.
        if ftl._evict_buffer:
            lsn = ftl._evict_buffer[0]
            ftl.handle_write([lsn], 1e6)
            assert lsn not in ftl._evict_buffer
            ftl.check_consistency()

    def test_utilization_is_high(self, ftl):
        self.fill_cache(ftl)
        assert ftl.slc_gc.stats.page_utilization > 0.9
