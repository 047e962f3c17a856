"""GC controller: triggers, incremental draining, emergency collection,
wear levelling."""

import pytest

from repro import BaselineFTL, IPUFTL
from repro.nand.block import BlockState
from repro.sim.ops import Cause, OpKind

from conftest import tiny_config


def fill_slc(ftl, target_erases=1, limit=6000, stride=4):
    """Write unique cold data until the SLC region has erased blocks."""
    lsn, t = 0, 0.0
    for _ in range(limit):
        ftl.handle_write([lsn], t)
        lsn += stride
        t += 0.5
        if ftl.flash.erases_slc >= target_erases:
            break
    return lsn


class TestTrigger:
    def test_no_gc_when_plenty_free(self):
        ftl = BaselineFTL(tiny_config())
        ops = ftl.handle_write([0], 0.0)
        assert not any(o.cause is Cause.GC for o in ops)
        assert ftl.slc_gc.stats.collections == 0

    def test_gc_triggers_under_pressure(self):
        ftl = BaselineFTL(tiny_config())
        fill_slc(ftl)
        assert ftl.slc_gc.stats.collections >= 1

    def test_threshold_above_reserve(self):
        ftl = BaselineFTL(tiny_config())
        from repro.ftl.allocator import GC_RESERVE_BLOCKS
        assert ftl.slc_gc._threshold > GC_RESERVE_BLOCKS

    def test_restore_above_threshold(self):
        ftl = BaselineFTL(tiny_config())
        assert ftl.slc_gc._restore > ftl.slc_gc._threshold


class TestIncrementalDrain:
    def test_bounded_pages_per_trigger(self):
        cfg = tiny_config(gc_pages_per_trigger=2)
        ftl = BaselineFTL(cfg)
        lsn, t = 0, 0.0
        max_moves_per_call = 0
        for _ in range(4000):
            ops = ftl.handle_write([lsn], t)
            moves = sum(1 for o in ops
                        if o.cause is Cause.GC and o.kind is OpKind.PROGRAM)
            max_moves_per_call = max(max_moves_per_call, moves)
            lsn += 4
            t += 0.5
            if ftl.flash.erases_slc >= 3:
                break
        assert ftl.flash.erases_slc >= 3
        # 2 pages per region per trigger, both regions may drain.
        assert max_moves_per_call <= 8

    def test_drain_completes_before_new_victim(self):
        ftl = BaselineFTL(tiny_config())
        fill_slc(ftl, target_erases=2)
        gc = ftl.slc_gc
        if gc.draining:
            victim = gc._victim
            assert victim.state is BlockState.VICTIM

    def test_erase_op_emitted_at_completion(self):
        ftl = BaselineFTL(tiny_config())
        lsn, t = 0, 0.0
        saw_erase = False
        for _ in range(6000):
            ops = ftl.handle_write([lsn], t)
            if any(o.kind is OpKind.ERASE for o in ops):
                saw_erase = True
                break
            lsn += 4
            t += 0.5
        assert saw_erase


class TestStats:
    def test_utilization_recorded_per_victim(self):
        ftl = BaselineFTL(tiny_config())
        fill_slc(ftl, target_erases=2)
        stats = ftl.slc_gc.stats
        assert stats.utilization_blocks >= stats.collections
        assert 0.0 < stats.page_utilization <= 1.0

    def test_baseline_utilization_reflects_fragmentation(self):
        ftl = BaselineFTL(tiny_config())
        fill_slc(ftl, target_erases=2)  # single-subpage writes -> 25%
        assert ftl.slc_gc.stats.page_utilization < 0.5

    def test_moved_subpages_counted(self):
        ftl = IPUFTL(tiny_config())
        fill_slc(ftl, target_erases=2)
        assert ftl.slc_gc.stats.moved_subpages > 0


class TestEmergency:
    def test_collect_emergency_frees_blocks(self):
        ftl = BaselineFTL(tiny_config())
        fill_slc(ftl, target_erases=1)
        before = ftl.flash.erases_slc
        ops = ftl.slc_gc.collect_emergency(1e9)
        # Either finished a drain or collected a fresh victim.
        assert ftl.flash.erases_slc >= before

    def test_emergency_noop_when_empty(self):
        ftl = BaselineFTL(tiny_config())
        assert ftl.mlc_gc.collect_emergency(0.0) == []


class TestWearLeveling:
    def test_static_wl_moves_cold_block(self):
        cfg = tiny_config(wear_leveling_gap=1, wear_leveling_period=2)
        ftl = BaselineFTL(cfg)
        fill_slc(ftl, target_erases=8, limit=20000)
        # With an aggressive gap/period the tracker must have fired.
        assert ftl.slc_wear.leveling_moves >= 1

    def test_wl_disabled(self):
        cfg = tiny_config(static_wear_leveling=False)
        ftl = BaselineFTL(cfg)
        fill_slc(ftl, target_erases=8, limit=20000)
        assert ftl.slc_wear.leveling_moves == 0

    def test_wear_spread_bounded(self):
        cfg = tiny_config(wear_leveling_gap=2, wear_leveling_period=2)
        ftl = BaselineFTL(cfg)
        fill_slc(ftl, target_erases=10, limit=30000)
        # Dynamic + static levelling keep the spread moderate.
        assert ftl.slc_wear.spread <= 10
