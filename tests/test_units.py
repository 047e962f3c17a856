"""Unit helpers: conversions, formatting."""

import pytest

from repro import units


class TestSizes:
    def test_kib(self):
        assert units.kib(4) == 4096

    def test_fractional_kib(self):
        assert units.kib(0.5) == 512


class TestTime:
    def test_constants(self):
        assert units.US == pytest.approx(1e-3)
        assert units.SEC == pytest.approx(1e3)


class TestFormatting:
    def test_fmt_bytes_small(self):
        assert units.fmt_bytes(512) == "512B"

    def test_fmt_bytes_kib(self):
        assert units.fmt_bytes(4096) == "4.00KiB"

    def test_fmt_bytes_mib(self):
        assert "MiB" in units.fmt_bytes(3 * units.MIB)
