"""BCH code model."""

import math

import pytest

from repro.errors import ConfigError
from repro.error.bch import BCHCode


@pytest.fixture
def code():
    return BCHCode()


class TestParameters:
    def test_default_geometry(self, code):
        assert code.payload_bytes == 512
        assert code.t == 5

    def test_payload_bits(self, code):
        assert code.payload_bits == 4096

    def test_parity_bits(self, code):
        # m = ceil(log2(4097)) = 13, so 13 * 5 = 65 parity bits.
        assert code.parity_bits == 65

    def test_codeword_bits(self, code):
        assert code.codeword_bits == 4096 + 65

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BCHCode(payload_bytes=0)
        with pytest.raises(ConfigError):
            BCHCode(t=0)


class TestCodewords:
    def test_codewords_for_subpage(self, code):
        assert code.codewords_for(4096) == 8

    def test_codewords_partial(self, code):
        assert code.codewords_for(513) == 2

    def test_codewords_zero(self, code):
        assert code.codewords_for(0) == 0

    def test_negative_rejected(self, code):
        with pytest.raises(ConfigError):
            code.codewords_for(-1)


class TestFailureProbability:
    def test_zero_rber(self, code):
        assert code.failure_probability(0.0) == 0.0

    def test_certain_failure(self, code):
        assert code.failure_probability(1.0) == 1.0

    def test_monotone_in_rber(self, code):
        values = [code.failure_probability(r) for r in (1e-5, 1e-4, 1e-3, 1e-2)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_at_nominal_rber(self, code):
        # At the paper's 2.8e-4, t=5 per 512B leaves ample margin.
        assert code.failure_probability(2.8e-4) < 1e-2

    def test_matches_binomial_tail(self, code):
        # Cross-check against an explicit binomial sum at a larger p.
        p = 1e-3
        n = code.codeword_bits
        total = sum(
            math.comb(n, i) * p ** i * (1 - p) ** (n - i)
            for i in range(code.t + 1)
        )
        assert code.failure_probability(p) == pytest.approx(1 - total, rel=1e-6)

    def test_negative_rejected(self, code):
        with pytest.raises(ConfigError):
            code.failure_probability(-0.1)
