"""Reliability substrate: raw-bit-error-rate and ECC models.

Calibrated to the measurements the paper relies on (Section 2.2 / Figure 2,
quoting Zhang et al. FAST'16): conventional programming shows RBER 2.8e-4
at 4000 P/E cycles while partial programming shows 3.8e-4, with the gap
widening as wear grows.  The ECC model follows the Table 2 BCH settings
(decode latency between 0.0005 ms and 0.0968 ms depending on raw errors).
"""

from .. import lazy_exports

_EXPORTS = {
    "RberModel": ".rber",
    "BCHCode": ".bch",
    "EccModel": ".ecc",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
