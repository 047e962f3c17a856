"""Analytic Bose-Chaudhuri-Hocquenghem (BCH) code model.

Following the ISSCC'06 embedded-BCH design the paper cites, data is
protected per 512-byte codeword with a correction capability of ``t`` bits.
We model the code analytically: its codeword size (an RBER times
:attr:`BCHCode.codeword_bits` is the expected raw errors per codeword),
and the probability that a codeword exceeds ``t`` errors (decode
failure, triggering a read retry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class BCHCode:
    """A ``(n, k, t)`` binary BCH code over 512-byte payload sectors."""

    payload_bytes: int = 512
    t: int = 5

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ConfigError("payload_bytes must be positive")
        if self.t <= 0:
            raise ConfigError("correction capability t must be positive")

    @property
    def payload_bits(self) -> int:
        """Data bits per codeword."""
        return self.payload_bytes * 8

    @property
    def parity_bits(self) -> int:
        """Approximate parity bits: ``m * t`` with ``m = ceil(log2(n+1))``."""
        m = math.ceil(math.log2(self.payload_bits + 1))
        return m * self.t

    @property
    def codeword_bits(self) -> int:
        """Total transmitted bits per codeword."""
        return self.payload_bits + self.parity_bits

    def codewords_for(self, nbytes: int) -> int:
        """Codewords needed to protect ``nbytes`` of payload."""
        if nbytes < 0:
            raise ConfigError(f"negative payload size {nbytes}")
        return -(-nbytes // self.payload_bytes)

    def failure_probability(self, rber: float) -> float:
        """Probability that raw errors exceed ``t`` (uncorrectable codeword).

        Exact binomial tail; computed in log space to stay stable for the
        tiny probabilities typical of healthy flash.
        """
        if rber < 0:
            raise ConfigError(f"negative RBER {rber}")
        if rber == 0.0:
            return 0.0
        if rber >= 1.0:
            return 1.0
        n = self.codeword_bits
        # P[X > t] = 1 - sum_{i=0..t} C(n,i) p^i (1-p)^(n-i)
        log_p = math.log(rber)
        log_q = math.log1p(-rber)
        total = 0.0
        for i in range(self.t + 1):
            log_term = (
                math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * log_p + (n - i) * log_q
            )
            total += math.exp(log_term)
        return max(0.0, 1.0 - total)
