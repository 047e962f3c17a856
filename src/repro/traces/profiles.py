"""Per-trace statistical profiles (Tables 1 and 3 of the paper).

Each :class:`TraceProfile` captures the published aggregate statistics of
one evaluation trace.  The synthetic generator consumes a profile and
produces a request stream whose measured statistics match it; the Table 1
and Table 3 experiments regenerate the published numbers from the stream.

Paper values::

    Table 3 (ordered by write ratio)          Table 1 (updated requests)
    trace   #req      writeR  writeSZ hot     <=4K    4-8K   >8K
    ts0     1,801,734 82.4%   8.0KB   50.5%   69.8%   17.9%  12.3%
    wdev0   1,143,261 79.9%   8.2KB   58.2%   73.2%    6.8%  20.1%
    lun1    1,073,405 73.1%   7.6KB   10.0%   85.2%    7.3%   7.5%
    usr0    2,237,889 59.6%   10.3KB  36.5%   66.3%   12.1%  21.6%
    lun2    1,758,887 19.3%   9.7KB    8.5%   92.6%    2.5%   4.9%
    ads     1,532,120  9.5%   7.0KB   74.5%*  18.3%   [*Table 1 row: 74.5/14.1/11.4]
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TraceError
from ..record import Record
from ..units import KIB, Bytes


@dataclass(frozen=True)
class TraceProfile(Record):
    """Published aggregate statistics of one block I/O trace."""

    error_type = TraceError

    name: str
    #: Total request count reported in Table 3.
    n_requests: int
    #: Fraction of requests that are writes.
    write_ratio: float
    #: Mean write request size in bytes.
    mean_write_bytes: Bytes
    #: Fraction of distinct addresses requested at least 4 times ("Hot write").
    hot_write_ratio: float
    #: Update-request size distribution over (<=4K, 4-8K, >8K] (Table 1).
    update_size_probs: tuple[float, float, float]

    def validate(self) -> "TraceProfile":
        """Sanity-check published statistics; returns ``self``."""
        if self.n_requests < 1:
            raise TraceError(f"{self.name}: non-positive request count")
        if not 0.0 < self.write_ratio <= 1.0:
            raise TraceError(f"{self.name}: write ratio {self.write_ratio} out of (0,1]")
        if self.mean_write_bytes < 512:
            raise TraceError(f"{self.name}: implausible mean write size")
        if not 0.0 <= self.hot_write_ratio <= 1.0:
            raise TraceError(f"{self.name}: hot ratio out of [0,1]")
        total = sum(self.update_size_probs)
        if abs(total - 1.0) > 0.02:
            raise TraceError(
                f"{self.name}: update size buckets sum to {total:.3f}, expected ~1")
        return self


#: The six evaluation traces, in Table 3 order.
PROFILES: dict[str, TraceProfile] = {
    p.name: p.validate()
    for p in (
        TraceProfile("ts0", 1_801_734, 0.824, int(8.0 * KIB), 0.505,
                     (0.698, 0.179, 0.123)),
        TraceProfile("wdev0", 1_143_261, 0.799, int(8.2 * KIB), 0.582,
                     (0.732, 0.068, 0.201)),
        TraceProfile("lun1", 1_073_405, 0.731, int(7.6 * KIB), 0.100,
                     (0.852, 0.073, 0.075)),
        TraceProfile("usr0", 2_237_889, 0.596, int(10.3 * KIB), 0.365,
                     (0.663, 0.121, 0.216)),
        TraceProfile("lun2", 1_758_887, 0.193, int(9.7 * KIB), 0.085,
                     (0.926, 0.025, 0.049)),
        TraceProfile("ads", 1_532_120, 0.095, int(7.0 * KIB), 0.183,
                     (0.745, 0.141, 0.114)),
    )
}

#: Table 3 row order.
TRACE_NAMES: tuple[str, ...] = tuple(PROFILES)


def profile(name: str) -> TraceProfile:
    """Look up a built-in profile by trace name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise TraceError(
            f"unknown trace {name!r}; available: {', '.join(PROFILES)}") from None
