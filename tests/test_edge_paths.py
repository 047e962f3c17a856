"""Edge paths: device exhaustion, wear levelling with buffered eviction,
byte-granular reprogram guards."""

import dataclasses

import pytest

from repro import BaselineFTL, MGAFTL, Simulator
from repro.config import CacheConfig, GeometryConfig, SSDConfig
from repro.errors import (
    OutOfSpaceError,
    PartialProgramLimitError,
    ProgramOrderError,
    SubpageStateError,
)
from repro.nand import FlashArray
from repro.traces import generate, profile

from conftest import tiny_config


def micro_config(**cache_kwargs):
    """A device so small it can genuinely fill up."""
    geometry = GeometryConfig(
        channels=1, chips_per_channel=1, planes_per_chip=1, total_blocks=12)
    cache = CacheConfig(slc_ratio=0.34, **cache_kwargs)
    return SSDConfig(geometry=geometry, cache=cache).validate()


class TestDeviceExhaustion:
    def test_out_of_space_raised_when_truly_full(self):
        ftl = BaselineFTL(micro_config())
        lsn = 0
        with pytest.raises(OutOfSpaceError):
            # Unique cold data forever must eventually exceed capacity.
            for _ in range(200_000):
                ftl.handle_write([lsn], float(lsn))
                lsn += 4

    def test_fills_most_of_capacity_before_dying(self):
        ftl = BaselineFTL(micro_config())
        cfg = ftl.config
        lsn = 0
        try:
            for _ in range(200_000):
                ftl.handle_write([lsn], float(lsn))
                lsn += 4
        except OutOfSpaceError:
            pass
        written_pages = lsn // 4  # one page chunk per write
        # MLC pages available (positional layout: one chunk per page).
        mlc_pages = cfg.mlc_blocks * cfg.geometry.mlc_pages_per_block
        assert written_pages > 0.5 * mlc_pages

    def test_mapping_still_consistent_after_exhaustion(self):
        ftl = BaselineFTL(micro_config())
        lsn = 0
        try:
            for _ in range(200_000):
                ftl.handle_write([lsn], float(lsn))
                lsn += 4
        except OutOfSpaceError:
            pass
        ftl.check_consistency()


class TestMgaWearLeveling:
    def test_wl_with_eviction_buffer_flushes(self):
        """The static WL path goes through MGA's buffered relocation; the
        pre-erase finish hook must flush it."""
        cfg = tiny_config(wear_leveling_gap=1, wear_leveling_period=2)
        ftl = MGAFTL(cfg)
        trace = generate(profile("ts0"), n_requests=4000, seed=11,
                         mean_interarrival_ms=0.4)
        Simulator(ftl).run(trace)
        assert ftl.slc_wear.leveling_moves >= 1
        assert not ftl._evict_buffer or ftl.slc_gc.draining
        ftl.check_consistency()


class TestReprogramGuards:
    def test_reprogram_unwritten_page_rejected(self):
        flash = FlashArray(tiny_config())
        block = flash.block(flash.slc_block_ids[0])
        block.open_as(1)
        with pytest.raises(ProgramOrderError):
            flash.reprogram(block.block_id, 0)

    def test_reprogram_respects_pass_limit(self):
        flash = FlashArray(tiny_config())
        block = flash.block(flash.slc_block_ids[0])
        block.open_as(1)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        for _ in range(3):
            flash.reprogram(block.block_id, 0)
        with pytest.raises(PartialProgramLimitError):
            flash.reprogram(block.block_id, 0)

    def test_reprogram_mlc_rejected(self):
        flash = FlashArray(tiny_config())
        block = flash.block(flash.mlc_block_ids[0])
        block.open_as(0)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        with pytest.raises(SubpageStateError):
            block.reprogram_pass(0, 4)

    def test_reprogram_disturbs_and_counts(self):
        flash = FlashArray(tiny_config())
        block = flash.block(flash.slc_block_ids[0])
        block.open_as(1)
        flash.program(block.block_id, 0, [0, 1], [1, 2], 0.0)
        result = flash.reprogram(block.block_id, 0)
        assert result.partial
        assert result.disturbed_valid == 2
        assert flash.partial_programs == 1
