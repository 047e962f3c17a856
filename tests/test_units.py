"""Unit helpers: conversions, ceiling division, formatting."""

import pytest

from repro import units


class TestSizes:
    def test_kib(self):
        assert units.kib(4) == 4096

    def test_fractional_kib(self):
        assert units.kib(0.5) == 512


class TestCeilDiv:
    def test_exact(self):
        assert units.ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert units.ceil_div(9, 4) == 3

    def test_one(self):
        assert units.ceil_div(1, 4096) == 1

    def test_zero_numerator(self):
        assert units.ceil_div(0, 7) == 0

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            units.ceil_div(5, 0)

    def test_rejects_negative_divisor(self):
        with pytest.raises(ValueError):
            units.ceil_div(5, -1)


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
