"""Retention-loss extension (optional; off by default)."""

import dataclasses

import pytest

from repro import IPUFTL, Simulator
from repro.nand import FlashArray
from repro.traces import generate, profile

from conftest import tiny_config


def ret_config(rate=1e-3):
    cfg = tiny_config()
    return dataclasses.replace(
        cfg, reliability=dataclasses.replace(
            cfg.reliability, retention_unit_per_ms=rate))


def programmed(cfg):
    flash = FlashArray(cfg)
    block = flash.block(flash.slc_block_ids[0])
    block.open_as(1, 0.0)
    flash.program(block.block_id, 0, [0], [1], 0.0)
    return flash, block


def rber(flash, block, now, slot=0):
    """RBER of one page-0 slot as a read at ``now`` prices it."""
    return flash.read_list(block.block_id, 0, [slot], now)[0]


class TestRetention:
    def test_off_by_default(self):
        flash, block = programmed(tiny_config())
        young = rber(flash, block, 1.0)
        old = rber(flash, block, 1e6)
        assert old == young

    def test_rber_grows_with_age(self):
        flash, block = programmed(ret_config())
        young = rber(flash, block, 1.0)
        old = rber(flash, block, 1000.0)
        assert old > young

    def test_linear_in_age(self):
        flash, block = programmed(ret_config())
        r1 = rber(flash, block, 100.0)
        r2 = rber(flash, block, 200.0)
        r3 = rber(flash, block, 300.0)
        assert r3 - r2 == pytest.approx(r2 - r1)

    def test_reads_do_not_heal(self):
        """Retention counts from program time; touching data by reading it
        must not reset the clock."""
        flash, block = programmed(ret_config())
        rber(flash, block, 500.0)  # refreshes access time
        assert block.slot_time[0, 0] == 500.0
        aged = rber(flash, block, 1000.0)
        fresh_flash, fresh_block = programmed(ret_config())
        untouched = rber(fresh_flash, fresh_block, 1000.0)
        # Read disturb is off here, so the values must match exactly.
        assert aged == pytest.approx(untouched)

    def test_rewrite_resets_age(self):
        flash, block = programmed(ret_config())
        flash.program(block.block_id, 0, [1], [2], 900.0)  # partial pass
        old_slot = rber(flash, block, 1000.0)
        new_slot = rber(flash, block, 1000.0, slot=1)
        # The fresh slot has 100 ms of age vs 1000 ms, but absorbed no
        # in-page disturb (it was just written); the old slot absorbed one.
        assert new_slot < old_slot

    def test_no_age_means_no_retention_term(self):
        flash, block = programmed(ret_config())
        plain, _ = programmed(tiny_config())
        at_program_time = rber(flash, block, 0.0)
        assert at_program_time == rber(plain, plain.block(block.block_id), 0.0)
        assert rber(flash, block, 1e5) > at_program_time

    def test_end_to_end_error_rate_rises(self):
        trace = generate(profile("ts0"), n_requests=1200, seed=6,
                         mean_interarrival_ms=1.0)
        base = Simulator(IPUFTL(tiny_config())).run(trace)
        aged = Simulator(IPUFTL(ret_config(1e-4))).run(trace)
        assert aged.read_error_rate > base.read_error_rate

    def test_negative_rate_rejected(self):
        from repro.errors import ConfigError
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            dataclasses.replace(
                cfg.reliability, retention_unit_per_ms=-1.0).validate()
