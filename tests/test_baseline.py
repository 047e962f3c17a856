"""Baseline scheme: positional pages, no partial programming, RMW ablation."""

import pytest

from repro import BaselineFTL
from repro.sim.ops import Cause, OpKind

from conftest import tiny_config


@pytest.fixture
def ftl():
    return BaselineFTL(tiny_config())


class TestWritePath:
    def test_new_write_maps_all_lsns(self, ftl):
        ftl.handle_write([0, 1], 0.0)
        assert ftl.lookup(0) is not None
        assert ftl.lookup(1) is not None
        ftl.check_consistency()

    def test_positional_slots(self, ftl):
        ftl.handle_write([1, 2], 0.0)
        assert ftl.lookup(1).slot == 1
        assert ftl.lookup(2).slot == 2

    def test_fresh_page_per_chunk(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([1], 1.0)
        a, b = ftl.lookup(0), ftl.lookup(1)
        assert (a.block, a.page) != (b.block, b.page)

    def test_never_partial_programs(self, ftl):
        for i in range(20):
            ftl.handle_write([i % 4], float(i))
        assert ftl.flash.partial_programs == 0

    def test_update_invalidates_old(self, ftl):
        ftl.handle_write([0], 0.0)
        old = ftl.lookup(0)
        ftl.handle_write([0], 1.0)
        new = ftl.lookup(0)
        assert (old.block, old.page) != (new.block, new.page)
        assert not ftl.flash.block(old.block).valid[old.page, old.slot]
        ftl.check_consistency()

    def test_multi_lpn_write_splits_chunks(self, ftl):
        ops = ftl.handle_write([2, 3, 4, 5], 0.0)
        programs = [o for o in ops if o.kind is OpKind.PROGRAM]
        assert len(programs) == 2  # LPN 0 chunk (2,3) and LPN 1 chunk (4,5)

    def test_full_page_transfer(self, ftl):
        ops = ftl.handle_write([0], 0.0)
        program = next(o for o in ops if o.kind is OpKind.PROGRAM)
        assert program.n_slots == 1
        assert program.channel_slots == ftl.geometry.subpages_per_page

    def test_update_counters(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        assert ftl.stats.new_data_writes == 1
        assert ftl.stats.update_writes == 1


class TestReadPath:
    def test_read_written_data(self, ftl):
        ftl.handle_write([0, 1], 0.0)
        ops = ftl.handle_read([0, 1], 1.0)
        reads = [o for o in ops if o.kind is OpKind.READ]
        assert len(reads) == 1
        assert reads[0].n_slots == 2
        assert reads[0].raw_errors > 0

    def test_unwritten_read_is_pseudo(self, ftl):
        ops = ftl.handle_read([100], 0.0)
        reads = [o for o in ops if o.kind is OpKind.READ]
        assert len(reads) == 1
        assert not reads[0].is_slc
        assert ftl.stats.pseudo_read_ops == 1

    def test_mixed_read(self, ftl):
        ftl.handle_write([0], 0.0)
        ops = ftl.handle_read([0, 1], 1.0)
        reads = [o for o in ops if o.kind is OpKind.READ]
        assert len(reads) == 2  # one real, one pseudo


class TestMergeAblation:
    def test_merge_carries_siblings(self):
        # LPN 3 as well as LPN 0: at LPN 0 an LPN passed where a sibling's
        # LSN belongs names subpage 0 itself, so only a nonzero LPN
        # catches the mix-up.
        for lpn in (0, 3):
            ftl = BaselineFTL(tiny_config(), merge_siblings=True)
            first = lpn * ftl.geometry.subpages_per_page
            ftl.handle_write([first], 0.0)
            ftl.handle_write([first + 1], 1.0)  # same LPN: merges `first`
            a, b = ftl.lookup(first), ftl.lookup(first + 1)
            assert (a.block, a.page) == (b.block, b.page), lpn
            assert ftl.stats.rmw_read_ops == 1
            ftl.check_consistency()

    def test_no_merge_leaves_siblings_in_place(self, ftl):
        ftl.handle_write([0], 0.0)
        before = ftl.lookup(0)
        ftl.handle_write([1], 1.0)
        assert ftl.lookup(0) == before


class TestGC:
    def test_gc_evicts_to_mlc(self, ftl):
        # Fill the SLC cache with unique single-subpage writes.
        lsn = 0
        for _ in range(3000):
            ftl.handle_write([lsn], float(lsn))
            lsn += 4
            if ftl.flash.erases_slc > 2:
                break
        assert ftl.flash.erases_slc > 0
        assert ftl.stats.gc_programs_mlc > 0
        ftl.check_consistency()

    def test_gc_preserves_all_data(self, ftl):
        written = []
        lsn = 0
        for i in range(1200):
            ftl.handle_write([lsn], float(i))
            written.append(lsn)
            lsn += 4
        for w in written:
            assert ftl.lookup(w) is not None, f"LSN {w} lost"
        ftl.check_consistency()
