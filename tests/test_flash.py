"""FlashArray facade: regions, operations, counters, RBER queries."""

import numpy as np
import pytest

from repro.errors import FlashError
from repro.nand import CellMode, FlashArray
from repro.nand.block import BlockState

from conftest import tiny_config
from reference_geometry import plane_of


@pytest.fixture
def flash():
    return FlashArray(tiny_config())


def open_slc(flash, idx=0, level=1):
    block = flash.block(flash.slc_block_ids[idx])
    block.open_as(level)
    return block


class TestRegions:
    def test_partition_complete(self, flash):
        total = flash.geometry.total_blocks
        assert len(flash.slc_block_ids) + len(flash.mlc_block_ids) == total

    def test_partition_disjoint(self, flash):
        assert not set(flash.slc_block_ids) & set(flash.mlc_block_ids)

    def test_slc_striped_over_planes(self, flash):
        planes = {plane_of(flash.geometry, b) for b in flash.slc_block_ids}
        assert planes == set(range(flash.geometry.planes))

    def test_modes_match_regions(self, flash):
        for b in flash.slc_block_ids:
            assert flash.block(b).mode is CellMode.SLC
        for b in flash.mlc_block_ids:
            assert flash.block(b).mode is CellMode.MLC

    def test_mlc_blocks_have_more_pages(self, flash):
        slc = flash.block(flash.slc_block_ids[0])
        mlc = flash.block(flash.mlc_block_ids[0])
        assert mlc.pages == 2 * slc.pages

    def test_region_blocks_helper(self, flash):
        assert len(flash.region_blocks(True)) == len(flash.slc_block_ids)

    def test_all_slc_rejected(self):
        cfg = tiny_config()
        import dataclasses
        bad = dataclasses.replace(
            cfg, cache=dataclasses.replace(cfg.cache, slc_ratio=0.99))
        with pytest.raises(Exception):
            FlashArray(bad)


class TestOperations:
    def test_program_counters(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        assert flash.programs_slc == 1
        assert flash.programs_mlc == 0

    def test_partial_program_counted(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        result = flash.program(block.block_id, 0, [1], [2], 0.0)
        assert result.partial
        assert result.disturbed_valid == 1
        assert flash.partial_programs == 1
        assert flash.disturbed_valid_subpages == 1

    def test_read_requires_programmed(self, flash):
        block = open_slc(flash)
        with pytest.raises(FlashError):
            flash.read_list(block.block_id, 0, [0], 0.0)
        with pytest.raises(FlashError):
            flash.read_span(block.block_id, [(0, [0])], 0.0)

    def test_read_returns_rbers(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0, 1], [1, 2], 0.0)
        rbers = flash.read_list(block.block_id, 0, [0, 1], 1.0)
        assert len(rbers) == 2
        assert all(r > 0 for r in rbers)

    def test_read_touches_access_time(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        flash.read_list(block.block_id, 0, [0], 5.0)
        assert block.slot_time[0, 0] == 5.0

    def test_erase_counters_by_region(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        flash.invalidate(block.block_id, 0, 0)
        assert flash.erase(block.block_id) == 1
        assert flash.erases_slc == 1
        assert flash.erases_mlc == 0

    def test_effective_pe_includes_initial(self, flash):
        """A read prices its block at ``initial_pe_cycles`` plus the
        erases this simulation performed."""
        initial = flash.config.reliability.initial_pe_cycles
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        assert flash.read_list(block.block_id, 0, [0], 1.0) == [
            flash.rber.base(initial, True)]
        flash.invalidate(block.block_id, 0, 0)
        flash.erase(block.block_id)
        block.open_as(1)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        assert flash.read_list(block.block_id, 0, [0], 1.0) == [
            flash.rber.base(initial + 1, True)]


def rber(flash, block, page=0, slot=0):
    """RBER of one slot as a read prices it."""
    return flash.read_list(block.block_id, page, [slot], 0.0)[0]


class TestRberQueries:
    def test_disturbed_subpage_has_higher_rber(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        before = rber(flash, block)
        flash.program(block.block_id, 0, [1], [2], 0.0)  # partial pass
        after = rber(flash, block)
        assert after > before

    def test_span_read_prices_like_page_reads(self):
        """``read_span`` (the GC drain) and per-page ``read_list`` calls
        agree bit for bit on program-disturbed slots, access times
        included."""
        twins = []
        for _ in range(2):
            f = FlashArray(tiny_config())
            block = open_slc(f)
            for page in range(3):
                f.program(block.block_id, page, [0], [page], 0.0)
                # A partial pass: disturbs slot 0 and the neighbour pages.
                f.program(block.block_id, page, [1, 2], [9, 9], 0.0)
            twins.append((f, block))
        (one, a), (other, b) = twins
        assert a.disturb_in[:3, 0].all() and a.disturb_nb[:2, 0].all()
        spans = [(0, [0, 1, 2]), (1, [0]), (2, [1, 2])]
        rbers, offsets = one.read_span(a.block_id, spans, 3.0)
        flat = [v for page, slots in spans
                for v in other.read_list(b.block_id, page, slots, 3.0)]
        assert rbers.tolist() == flat
        assert len(set(flat)) > 1
        assert offsets == [0, 3, 4]
        assert np.array_equal(a.slot_time, b.slot_time)

    def test_mlc_rber_at_least_slc(self, flash):
        slc = open_slc(flash)
        mlc = flash.block(flash.mlc_block_ids[0])
        mlc.open_as(0)
        flash.program(slc.block_id, 0, [0], [1], 0.0)
        flash.program(mlc.block_id, 0, [0], [2], 0.0)
        r_slc = rber(flash, slc)
        r_mlc = rber(flash, mlc)
        assert r_mlc >= r_slc

    def test_rber_grows_with_wear(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        fresh = rber(flash, block)
        flash.invalidate(block.block_id, 0, 0)
        flash.erase(block.block_id)
        block.open_as(1)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        worn = rber(flash, block)
        assert worn > fresh
