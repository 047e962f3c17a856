"""Configuration validation and derived quantities."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    GeometryConfig,
    ReliabilityConfig,
    SCALES,
    SSDConfig,
    ScaleSpec,
    TimingConfig,
    paper_config,
    scaled_config,
)
from repro.errors import ConfigError
from repro.units import KIB


class TestGeometryConfig:
    def test_defaults_valid(self):
        GeometryConfig().validate()

    def test_paper_block_count(self):
        assert GeometryConfig().total_blocks == 65536

    def test_subpages_per_page(self):
        assert GeometryConfig().subpages_per_page == 4

    def test_chips_planes(self):
        g = GeometryConfig(channels=4, chips_per_channel=2, planes_per_chip=2)
        assert g.chips == 8
        assert g.planes == 16

    def test_blocks_per_plane(self):
        g = GeometryConfig(channels=2, chips_per_channel=1, planes_per_chip=1,
                           total_blocks=64)
        assert g.blocks_per_plane == 32

    def test_indivisible_blocks_rejected(self):
        g = GeometryConfig(channels=3, total_blocks=65536)
        with pytest.raises(ConfigError):
            g.validate()

    def test_zero_channels_rejected(self):
        with pytest.raises(ConfigError):
            GeometryConfig(channels=0).validate()

    def test_page_not_multiple_of_subpage_rejected(self):
        with pytest.raises(ConfigError):
            GeometryConfig(page_size=10_000).validate()

    def test_mlc_fewer_pages_than_slc_rejected(self):
        with pytest.raises(ConfigError):
            GeometryConfig(slc_pages_per_block=128,
                           mlc_pages_per_block=64).validate()


class TestTimingConfig:
    def test_table2_values(self):
        t = TimingConfig()
        assert t.slc_read_ms == 0.025
        assert t.mlc_read_ms == 0.05
        assert t.slc_write_ms == 0.3
        assert t.mlc_write_ms == 0.9
        assert t.erase_ms == 10.0
        assert t.ecc_min_ms == 0.0005
        assert t.ecc_max_ms == 0.0968

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(slc_read_ms=-1).validate()

    def test_ecc_ordering_enforced(self):
        with pytest.raises(ConfigError):
            TimingConfig(ecc_min_ms=0.1, ecc_max_ms=0.05).validate()


class TestReliabilityConfig:
    def test_defaults_valid(self):
        ReliabilityConfig().validate()

    def test_calibration_points(self):
        r = ReliabilityConfig()
        assert r.rber_conventional_ref == pytest.approx(2.8e-4)
        assert r.rber_partial_ref == pytest.approx(3.8e-4)
        assert r.reference_pe_cycles == 4000

    def test_partial_below_conventional_rejected(self):
        with pytest.raises(ConfigError):
            ReliabilityConfig(rber_partial_ref=1e-4).validate()

    def test_negative_pe_rejected(self):
        with pytest.raises(ConfigError):
            ReliabilityConfig(initial_pe_cycles=-1).validate()

    def test_max_page_programs_floor(self):
        with pytest.raises(ConfigError):
            ReliabilityConfig(max_page_programs=0).validate()

    def test_manufacturer_limit_default(self):
        assert ReliabilityConfig().max_page_programs == 4


class TestCacheConfig:
    def test_defaults_valid(self):
        CacheConfig().validate()

    def test_table2_slc_ratio(self):
        assert CacheConfig().slc_ratio == 0.05

    def test_table2_gc_threshold(self):
        assert CacheConfig().gc_threshold == 0.05

    def test_slc_ratio_bounds(self):
        with pytest.raises(ConfigError):
            CacheConfig(slc_ratio=0.0).validate()
        with pytest.raises(ConfigError):
            CacheConfig(slc_ratio=1.0).validate()

    def test_restore_below_threshold_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(gc_threshold=0.2, gc_restore=0.1).validate()

    def test_gc_pages_floor(self):
        with pytest.raises(ConfigError):
            CacheConfig(gc_pages_per_trigger=0).validate()


class TestSSDConfig:
    def test_paper_config(self):
        cfg = paper_config()
        assert cfg.geometry.total_blocks == 65536
        assert cfg.slc_blocks == pytest.approx(65536 * 0.05, abs=1)

    def test_capacity_partition(self):
        cfg = paper_config()
        assert cfg.capacity_bytes == cfg.slc_capacity_bytes + cfg.mlc_capacity_bytes

    def test_slc_capacity_formula(self):
        cfg = paper_config()
        assert cfg.slc_capacity_bytes == cfg.slc_blocks * 64 * 16 * KIB

    def test_with_pe_cycles(self):
        cfg = paper_config().with_pe_cycles(8000)
        assert cfg.reliability.initial_pe_cycles == 8000
        # Original untouched (frozen dataclasses).
        assert paper_config().reliability.initial_pe_cycles == 4000

    def test_describe_contains_table2_rows(self):
        desc = paper_config().describe()
        assert desc["Block number"] == 65536
        assert desc["SLC mode ratio"] == "5%"
        assert desc["SLC/MLC Page"] == "64/128"
        assert desc["Page size"] == "16KB"
        assert desc["FTL scheme"] == "Page"

    def test_validate_chains(self):
        cfg = SSDConfig()
        assert cfg.validate() is cfg


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "small", "medium", "paper"}

    def test_paper_scale_blocks(self):
        assert SCALES["paper"].total_blocks == 65536

    def test_scaled_config_divisible(self):
        for name in SCALES:
            cfg = scaled_config(name)
            assert cfg.geometry.total_blocks % cfg.geometry.planes == 0

    def test_scaled_config_keeps_latencies(self):
        cfg = scaled_config("smoke")
        assert cfg.timing == TimingConfig()

    def test_invalid_scale_spec(self):
        with pytest.raises(ConfigError):
            ScaleSpec("bad", total_blocks=0, target_requests=1,
                      max_requests=1).validate()

    def test_target_above_max_rejected(self):
        with pytest.raises(ConfigError):
            ScaleSpec("bad", total_blocks=64, target_requests=10,
                      max_requests=5).validate()

    def test_config_is_frozen(self):
        cfg = paper_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
