"""Idle-time background garbage collection."""

import numpy as np
import pytest

from repro import IPUFTL, BaselineFTL, Simulator
from repro.traces import generate, profile
from repro.traces.model import Trace

from conftest import tiny_config


def below_threshold(gc):
    """Whether the region's free pool is under its GC trigger."""
    return gc.allocator.free_blocks < gc._threshold


def bursty_trace(n=1200, burst=50, gap_ms=30.0):
    """Writes in dense bursts separated by long idle gaps."""
    base = generate(profile("ts0"), n_requests=n, seed=4,
                    mean_interarrival_ms=0.1)
    times = np.array(base.times_ms, copy=True)
    bump = 0.0
    for i in range(n):
        if i and i % burst == 0:
            bump += gap_ms
        times[i] += bump
    return Trace(times, base.is_write, base.offsets, base.sizes, name="bursty")


class TestIdleCollect:
    def test_idle_collect_noop_when_clean(self):
        ftl = IPUFTL(tiny_config())
        assert ftl.idle_collect(0.0) == []

    def test_idle_collect_reaches_restore(self):
        ftl = BaselineFTL(tiny_config())
        lsn = 0
        while not below_threshold(ftl.slc_gc):
            ftl.write([lsn], 0.0)
            lsn += 4
        ops = ftl.idle_collect(1.0)
        assert ops
        assert not below_threshold(ftl.slc_gc)
        assert not ftl.slc_gc.draining

    def test_state_consistent(self):
        ftl = BaselineFTL(tiny_config())
        lsn = 0
        while ftl.flash.erases_slc < 1:
            ftl.write([lsn], 0.0)
            lsn += 4
            ftl.idle_collect(float(lsn))
        ftl.check_consistency()


class TestSimulatorIdleGc:
    def test_idle_gc_reduces_foreground_gc_bursts(self):
        trace = bursty_trace()
        plain = Simulator(IPUFTL(tiny_config())).run(trace)
        idle = Simulator(IPUFTL(tiny_config()), idle_gc=True,
                         idle_threshold_ms=5.0).run(trace)
        # Same work gets done; idle collection cannot make latency worse
        # (GC runs while the device would otherwise sit quiet).
        assert idle.erases_slc >= plain.erases_slc * 0.8
        assert idle.avg_latency_ms <= plain.avg_latency_ms * 1.05

    def test_idle_gc_preserves_data(self):
        trace = bursty_trace(n=800)
        ftl = IPUFTL(tiny_config())
        Simulator(ftl, idle_gc=True, idle_threshold_ms=5.0).run(trace)
        ftl.check_consistency()

    def test_disabled_by_default(self):
        sim = Simulator(IPUFTL(tiny_config()))
        assert sim.idle_gc is False
