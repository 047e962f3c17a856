"""ECC decode latency model.

The BCH decoder of Table 2 takes between ``ecc_min_ms`` (clean read,
syndrome check only) and ``ecc_max_ms`` (errors close to the correction
capability, full Chien search).  We interpolate linearly in the ratio of
expected raw errors per codeword to the capability ``t`` — the standard
first-order model for iterative BCH decoding effort — and clamp at the
maximum, which also covers the retry penalty of a saturated decoder.

The *read error rate* metric the paper reports (Figures 8 and 14) is the
expected number of raw bit errors per bit read: the FTL charges each read
op its subpages' RBER times the bits read, and the replay sums them.
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import ReliabilityConfig, TimingConfig
from ..errors import ConfigError
from ..units import KIB, Ms
from .bch import BCHCode

#: Subpage payload a failure-probability query covers (4 KiB LSN unit).
SUBPAGE_BYTES = 4 * KIB
#: Distinct ``(code, RBER)`` pairs the failure-probability memo keeps.
FAILURE_MEMO_ENTRIES = 1024


@functools.lru_cache(maxsize=FAILURE_MEMO_ENTRIES)
def _subpage_failure_probability(code: BCHCode, rber: float) -> float:
    """Probability at least one of ``code``'s codewords in a 4 KiB
    subpage fails.  Pure and costly (a binomial tail per call), while a
    replay reads only a few distinct RBERs, so memoised per process."""
    per_cw = code.failure_probability(rber)
    ncw = code.codewords_for(SUBPAGE_BYTES)
    return 1.0 - (1.0 - per_cw) ** ncw


class EccModel:
    """Decode-latency and raw-error expectations for page reads."""

    def __init__(self, timing: TimingConfig, reliability: ReliabilityConfig):
        timing.validate()
        reliability.validate()
        self.timing = timing
        self.code = BCHCode(
            payload_bytes=reliability.bch_codeword_bytes,
            t=reliability.bch_t,
        )
        self._min = timing.ecc_min_ms
        self._span = timing.ecc_max_ms - timing.ecc_min_ms
        self._t = float(self.code.t)
        # codeword_bits re-derives its parity term (a log2) per call;
        # it is fixed for a code, so resolve it once.
        self._cw_bits = self.code.codeword_bits

    def decode_ms(self, rber: float) -> Ms:
        """Decode time for data read at uniform ``rber``."""
        if rber < 0:
            raise ConfigError(f"negative RBER {rber}")
        lam = rber * self._cw_bits
        frac = min(1.0, lam / self._t)
        return self._min + self._span * frac

    def decode_ms_list(self, rbers: "list[float]") -> Ms:
        """Decode time for one page read covering several subpages.

        Codewords are decoded in a pipeline, so the slowest (highest-RBER)
        subpage dominates the page's ECC latency: the result is
        :meth:`decode_ms` of the largest value, and a read of no subpage
        costs the clean-read minimum.
        """
        n = len(rbers)
        if n == 0:
            return self._min
        rber = rbers[0] if n == 1 else max(rbers)
        lam = rber * self._cw_bits
        frac = min(1.0, lam / self._t)
        return self._min + self._span * frac

    def decode_ms_many(self, rbers: "np.ndarray | list[float]") -> np.ndarray:
        """Vectorised :meth:`decode_ms` over per-read RBERs.

        Elementwise float64 arithmetic, so every element equals the
        scalar :meth:`decode_ms` of the same input exactly (used by the
        batch latency-accounting paths; tests assert the equivalence).
        """
        arr = np.asarray(rbers, dtype=np.float64)
        if arr.size and float(arr.min()) < 0:
            raise ConfigError("negative RBER in batch")
        lam = arr * self._cw_bits
        frac = np.minimum(1.0, lam / self._t)
        return self._min + self._span * frac

    def uncorrectable_probability(self, rber: float) -> float:
        """Probability at least one codeword of a 4 KiB subpage fails."""
        return _subpage_failure_probability(self.code, rber)

    def uncorrectable_probability_for_subpages(
            self, rbers: "list[float]") -> float:
        """Failure probability of a page read covering several subpages.

        Mirrors :meth:`decode_ms_list`: the worst (highest-RBER)
        subpage dominates, so the read fails when *its* codewords exceed
        the correction capability.  Drives the fault-injection read-retry
        ladder (:mod:`repro.faults`)."""
        if not rbers:
            return 0.0
        return self.uncorrectable_probability(max(rbers))
