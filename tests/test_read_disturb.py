"""Read-disturb extension (optional; off by default)."""

import dataclasses

import pytest

from repro import IPUFTL, Simulator
from repro.nand import FlashArray
from repro.traces import generate, profile

from conftest import tiny_config


def rd_config(ratio=0.01):
    cfg = tiny_config()
    return dataclasses.replace(
        cfg, reliability=dataclasses.replace(
            cfg.reliability, read_disturb_unit_ratio=ratio))


def programmed_flash(cfg):
    flash = FlashArray(cfg)
    block = flash.block(flash.slc_block_ids[0])
    block.open_as(1)
    flash.program(block.block_id, 0, [0, 1], [1, 2], 0.0)
    return flash, block


def rber(flash, block, page=0, now=0.0):
    """RBER of slot 0 as a read prices it (the read itself is counted)."""
    return flash.read_list(block.block_id, page, [0], now)[0]


class TestReadDisturb:
    def test_off_by_default(self):
        flash, block = programmed_flash(tiny_config())
        before = rber(flash, block)
        for t in range(50):
            flash.read_list(block.block_id, 0, [0], float(t))
        after = rber(flash, block)
        assert after == before

    def test_reads_raise_rber_when_enabled(self):
        flash, block = programmed_flash(rd_config())
        before = rber(flash, block)
        for t in range(50):
            flash.read_list(block.block_id, 0, [0], float(t))
        after = rber(flash, block)
        assert after > before

    def test_linear_in_read_count(self):
        flash, block = programmed_flash(rd_config(0.02))
        # Each read is priced at the reads before it: 0, 1 and 2.
        base = rber(flash, block)
        one = rber(flash, block)
        two = rber(flash, block)
        assert two - one == pytest.approx(one - base)
        assert one > base

    def test_affects_whole_block(self):
        flash, block = programmed_flash(rd_config())
        flash.program(block.block_id, 1, [0], [3], 0.0)
        before = rber(flash, block, page=1)
        for t in range(20):
            flash.read_list(block.block_id, 0, [0], float(t))  # read page 0 only
        after = rber(flash, block, page=1)
        assert after > before

    def test_erase_heals(self):
        flash, block = programmed_flash(rd_config())
        for t in range(20):
            flash.read_list(block.block_id, 0, [0], float(t))
        assert block.read_count == 20
        flash.invalidate(block.block_id, 0, 0)
        flash.invalidate(block.block_id, 0, 1)
        flash.erase(block.block_id)
        assert block.read_count == 0

    def test_mlc_blocks_affected_too(self):
        cfg = rd_config()
        flash = FlashArray(cfg)
        block = flash.block(flash.mlc_block_ids[0])
        block.open_as(0)
        flash.program(block.block_id, 0, [0], [1], 0.0)
        before = rber(flash, block)
        for t in range(30):
            flash.read_list(block.block_id, 0, [0], float(t))
        assert rber(flash, block) > before

    def test_end_to_end_error_rate_rises(self):
        trace = generate(profile("lun2"), n_requests=1200, seed=6,
                         mean_interarrival_ms=1.0)
        base = Simulator(IPUFTL(tiny_config())).run(trace)
        disturbed = Simulator(IPUFTL(rd_config(0.05))).run(trace)
        assert disturbed.read_error_rate > base.read_error_rate

    def test_negative_ratio_rejected(self):
        import dataclasses as dc
        from repro.errors import ConfigError
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            dc.replace(cfg.reliability, read_disturb_unit_ratio=-1).validate()
