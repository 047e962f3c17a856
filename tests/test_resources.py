"""FCFS resources and chip/channel mapping."""

import pytest

from repro.config import GeometryConfig
from repro.errors import SimulationError
from repro.nand.geometry import Geometry
from repro.sim.resources import Resource, ResourceSet


class TestResource:
    def test_immediate_service_when_idle(self):
        r = Resource("chip")
        start, end = r.acquire(5.0, 2.0)
        assert (start, end) == (5.0, 7.0)

    def test_fcfs_queueing(self):
        r = Resource("chip")
        r.acquire(0.0, 3.0)
        start, end = r.acquire(1.0, 1.0)
        assert start == 3.0
        assert end == 4.0

    def test_busy_accounting(self):
        r = Resource("chip")
        r.acquire(0.0, 3.0)
        r.acquire(0.0, 2.0)
        assert r.busy_ms == 5.0
        assert r.operations == 2

    def test_utilization(self):
        r = Resource("chip")
        r.acquire(0.0, 4.0)
        assert r.utilization(8.0) == pytest.approx(0.5)
        assert r.utilization(2.0) == 1.0
        assert r.utilization(0.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource("x").acquire(0.0, -1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Resource("x").acquire(-1.0, 1.0)


class TestResourceSet:
    @pytest.fixture
    def rs(self):
        geo = Geometry(GeometryConfig(
            channels=2, chips_per_channel=2, planes_per_chip=1, total_blocks=32))
        return ResourceSet(geo)

    def test_counts(self, rs):
        assert len(rs.chips) == 4
        assert len(rs.channels) == 2

    def test_block_routing_consistent(self, rs):
        geo = rs.geometry
        for block in range(32):
            chip, channel = rs._pair[block]
            assert chip is rs.chips[geo.chip_of(block)]
            assert channel is rs.channels[geo.channel_of(block)]

    def test_acquire_occupies_both(self, rs):
        start, end = rs.acquire_for_block(0, 0.0, 2.0)
        assert (start, end) == (0.0, 2.0)
        geo = rs.geometry
        assert rs.chips[geo.chip_of(0)].next_free == 2.0
        assert rs.channels[geo.channel_of(0)].next_free == 2.0

    def test_channel_contention_across_chips(self, rs):
        geo = rs.geometry
        # Two blocks on different chips of the same channel contend.
        b0 = 0
        b1 = next(b for b in range(32)
                  if geo.channel_of(b) == geo.channel_of(b0)
                  and geo.chip_of(b) != geo.chip_of(b0))
        rs.acquire_for_block(b0, 0.0, 2.0)
        start, _ = rs.acquire_for_block(b1, 0.0, 1.0)
        assert start == 2.0

    def test_parallel_channels_do_not_contend(self, rs):
        geo = rs.geometry
        b0 = 0
        b1 = next(b for b in range(32)
                  if geo.channel_of(b) != geo.channel_of(b0))
        rs.acquire_for_block(b0, 0.0, 2.0)
        start, _ = rs.acquire_for_block(b1, 0.0, 1.0)
        assert start == 0.0

    def test_horizon(self, rs):
        assert rs.horizon() == 0.0
        rs.acquire_for_block(0, 0.0, 3.5)
        assert rs.horizon() == 3.5
