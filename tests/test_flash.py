"""FlashArray facade: regions, operations, counters, RBER queries."""

import numpy as np
import pytest

from repro.errors import FlashError
from repro.nand import CellMode, FlashArray
from repro.nand.block import BlockState

from conftest import tiny_config


@pytest.fixture
def flash():
    return FlashArray(tiny_config())


def open_slc(flash, idx=0, level=1):
    block = flash.block(flash.slc_block_ids[idx])
    block.open_as(level, 0.0)
    return block


class TestRegions:
    def test_partition_complete(self, flash):
        total = flash.geometry.total_blocks
        assert len(flash.slc_block_ids) + len(flash.mlc_block_ids) == total

    def test_partition_disjoint(self, flash):
        assert not set(flash.slc_block_ids) & set(flash.mlc_block_ids)

    def test_slc_striped_over_planes(self, flash):
        planes = {flash.geometry.plane_of(b) for b in flash.slc_block_ids}
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
            flash.read(block.block_id, 0, [0], 0.0)

    def test_read_returns_rbers(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0, 1], [1, 2], 0.0)
        rbers = flash.read(block.block_id, 0, [0, 1], 1.0)
        assert rbers.shape == (2,)
        assert (rbers > 0).all()

    def test_read_touches_access_time(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        flash.read(block.block_id, 0, [0], 5.0)
        assert block.slot_time[0, 0] == 5.0

    def test_erase_counters_by_region(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        flash.invalidate(block.block_id, 0, 0)
        assert flash.erase(block.block_id) == 1
        assert flash.erases_slc == 1
        assert flash.erases_mlc == 0

    def test_effective_pe_includes_initial(self, flash):
        block_id = flash.slc_block_ids[0]
        initial = flash.config.reliability.initial_pe_cycles
        assert flash.effective_pe(block_id) == initial
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        flash.invalidate(block.block_id, 0, 0)
        flash.erase(block.block_id)
        assert flash.effective_pe(block_id) == initial + 1


class TestRberQueries:
    def test_disturbed_subpage_has_higher_rber(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        before = flash.subpage_rbers(block.block_id, 0, [0])[0]
        flash.program(block.block_id, 0, [1], [2], 0.0)  # partial pass
        after = flash.subpage_rbers(block.block_id, 0, [0])[0]
        assert after > before

    def test_mlc_rber_at_least_slc(self, flash):
        slc = open_slc(flash)
        mlc = flash.block(flash.mlc_block_ids[0])
        mlc.open_as(0, 0.0)
        flash.program(slc.block_id, 0, [0], [1], 0.0)
        flash.program(mlc.block_id, 0, [0], [2], 0.0)
        r_slc = flash.subpage_rbers(slc.block_id, 0, [0])[0]
        r_mlc = flash.subpage_rbers(mlc.block_id, 0, [0])[0]
        assert r_mlc >= r_slc

    def test_rber_grows_with_wear(self, flash):
        block = open_slc(flash)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        fresh = flash.subpage_rbers(block.block_id, 0, [0])[0]
        flash.invalidate(block.block_id, 0, 0)
        flash.erase(block.block_id)
        block.open_as(1, 0.0)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        worn = flash.subpage_rbers(block.block_id, 0, [0])[0]
        assert worn > fresh
