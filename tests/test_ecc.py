"""ECC latency model bounds and monotonicity."""

import numpy as np
import pytest

from repro.config import ReliabilityConfig, TimingConfig
from repro.error.ecc import EccModel


@pytest.fixture
def ecc():
    return EccModel(TimingConfig(), ReliabilityConfig())


class TestDecodeLatency:
    def test_lower_bound(self, ecc):
        assert ecc.decode_ms(0.0) == pytest.approx(0.0005)

    def test_upper_bound_saturates(self, ecc):
        assert ecc.decode_ms(1.0) == pytest.approx(0.0968)
        assert ecc.decode_ms(0.5) == pytest.approx(0.0968)

    def test_monotone(self, ecc):
        values = [ecc.decode_ms(r) for r in (0.0, 1e-5, 1e-4, 5e-4, 1e-3)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_within_table2_bounds(self, ecc):
        for rber in np.geomspace(1e-7, 1e-2, 30):
            value = ecc.decode_ms(float(rber))
            assert 0.0005 <= value <= 0.0968

    def test_nominal_value_between_bounds(self, ecc):
        value = ecc.decode_ms(2.8e-4)
        assert 0.0005 < value < 0.0968


class TestPageDecode:
    def test_worst_subpage_dominates(self, ecc):
        mixed = ecc.decode_ms_list([1e-5, 4e-4, 2e-5])
        assert mixed == ecc.decode_ms(4e-4)

    def test_empty_read_is_min(self, ecc):
        assert ecc.decode_ms_list([]) == pytest.approx(0.0005)

    def test_accepts_list(self, ecc):
        assert ecc.decode_ms_list([1e-4]) == ecc.decode_ms(1e-4)


class TestUncorrectable:
    def test_monotone(self, ecc):
        low = ecc.uncorrectable_probability(1e-4)
        high = ecc.uncorrectable_probability(1e-3)
        assert high > low

    def test_bounds(self, ecc):
        p = ecc.uncorrectable_probability(2.8e-4)
        assert 0.0 <= p <= 1.0
