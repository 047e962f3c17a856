"""FCFS resources and chip/channel mapping."""

import pytest

from repro.config import GeometryConfig, paper_config, scaled_config
from repro.nand.geometry import Geometry
from repro.sim.resources import ResourceSet

from reference_geometry import channel_of, chip_of


@pytest.fixture
def rs():
    geo = Geometry(GeometryConfig(
        channels=2, chips_per_channel=2, planes_per_chip=1, total_blocks=32))
    return ResourceSet(geo)


class TestResource:
    """One block's chip/channel pair behaves as a unit-capacity FCFS
    server."""

    def test_immediate_service_when_idle(self, rs):
        start, end = rs.acquire_for_block(0, 5.0, 2.0)
        assert (start, end) == (5.0, 7.0)

    def test_fcfs_queueing(self, rs):
        rs.acquire_for_block(0, 0.0, 3.0)
        start, end = rs.acquire_for_block(0, 1.0, 1.0)
        assert start == 3.0
        assert end == 4.0

    def test_busy_accounting(self, rs):
        rs.acquire_for_block(0, 0.0, 3.0)
        rs.acquire_for_block(0, 0.0, 2.0)
        chip, channel = rs._pair[0]
        for server in (chip, channel):
            assert server.busy_ms == 5.0
            assert server.operations == 2


class TestResourceSet:
    def test_counts(self, rs):
        assert len(rs.chips) == 4
        assert len(rs.channels) == 2

    def test_block_routing_consistent(self, rs):
        """``_pair`` repeats each chip's pair over its run of blocks; it
        must equal the per-block address arithmetic, here and on the
        smoke and paper geometries."""
        for rset in (rs, *(ResourceSet(Geometry(config.geometry))
                           for config in (scaled_config("smoke"),
                                          paper_config()))):
            geo = rset.geometry
            assert len(rset._pair) == geo.total_blocks
            for block, (chip, channel) in enumerate(rset._pair):
                assert chip is rset.chips[chip_of(geo, block)]
                assert channel is rset.channels[channel_of(geo, block)]

    def test_acquire_occupies_both(self, rs):
        start, end = rs.acquire_for_block(0, 0.0, 2.0)
        assert (start, end) == (0.0, 2.0)
        geo = rs.geometry
        assert rs.chips[chip_of(geo, 0)].next_free == 2.0
        assert rs.channels[channel_of(geo, 0)].next_free == 2.0

    def test_channel_contention_across_chips(self, rs):
        geo = rs.geometry
        # Two blocks on different chips of the same channel contend.
        b0 = 0
        b1 = next(b for b in range(32)
                  if channel_of(geo, b) == channel_of(geo, b0)
                  and chip_of(geo, b) != chip_of(geo, b0))
        rs.acquire_for_block(b0, 0.0, 2.0)
        start, _ = rs.acquire_for_block(b1, 0.0, 1.0)
        assert start == 2.0

    def test_parallel_channels_do_not_contend(self, rs):
        geo = rs.geometry
        b0 = 0
        b1 = next(b for b in range(32)
                  if channel_of(geo, b) != channel_of(geo, b0))
        rs.acquire_for_block(b0, 0.0, 2.0)
        start, _ = rs.acquire_for_block(b1, 0.0, 1.0)
        assert start == 0.0

    def test_horizon(self, rs):
        assert rs.horizon() == 0.0
        rs.acquire_for_block(0, 0.0, 3.5)
        assert rs.horizon() == 3.5
