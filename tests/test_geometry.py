"""Physical address arithmetic."""

import pytest

from repro.config import GeometryConfig
from repro.errors import ConfigError
from repro.nand.geometry import Geometry, PPA

from reference_geometry import channel_of, chip_of, plane_of


@pytest.fixture
def geo():
    return Geometry(GeometryConfig(
        channels=2, chips_per_channel=2, planes_per_chip=2, total_blocks=64))


class TestHierarchy:
    def test_counts(self, geo):
        assert geo.channels == 2
        assert geo.chips == 4
        assert geo.planes == 8
        assert geo.blocks_per_plane == 8

    def test_plane_of_first_block(self, geo):
        assert plane_of(geo, 0) == 0

    def test_plane_of_last_block(self, geo):
        assert plane_of(geo, 63) == 7

    def test_chip_of(self, geo):
        # planes 0,1 -> chip 0; planes 6,7 -> chip 3
        assert chip_of(geo, 0) == 0
        assert chip_of(geo, 63) == 3

    def test_channel_of(self, geo):
        assert channel_of(geo, 0) == 0
        assert channel_of(geo, 63) == 1

    def test_consistency_chip_channel(self, geo):
        for block in range(64):
            chip = chip_of(geo, block)
            assert channel_of(geo, block) == chip // 2

    def test_out_of_range_block(self, geo):
        with pytest.raises(ConfigError):
            plane_of(geo, 64)
        with pytest.raises(ConfigError):
            plane_of(geo, -1)


class TestLogicalSpace:
    def test_byte_range_single_subpage(self, geo):
        assert list(geo.byte_range_to_lsns(0, 4096)) == [0]

    def test_byte_range_straddles(self, geo):
        # 4 KiB starting 1 KiB into subpage 0 touches subpages 0 and 1.
        assert list(geo.byte_range_to_lsns(1024, 4096)) == [0, 1]

    def test_byte_range_large(self, geo):
        lsns = list(geo.byte_range_to_lsns(16384, 32768))
        assert lsns == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_byte_range_zero_length_rejected(self, geo):
        with pytest.raises(ConfigError):
            geo.byte_range_to_lsns(0, 0)

    def test_byte_range_negative_offset_rejected(self, geo):
        with pytest.raises(ConfigError):
            geo.byte_range_to_lsns(-1, 4096)


class TestCapacity:
    def test_pages_per_block_modes(self, geo):
        assert geo.pages_per_block(slc=True) == 64
        assert geo.pages_per_block(slc=False) == 128


class TestPPA:
    def test_tuple_fields(self):
        ppa = PPA(3, 7, 1)
        assert ppa.block == 3
        assert ppa.page == 7
        assert ppa.slot == 1

    def test_equality(self):
        assert PPA(1, 2, 3) == PPA(1, 2, 3)
        assert PPA(1, 2, 3) != PPA(1, 2, 0)
