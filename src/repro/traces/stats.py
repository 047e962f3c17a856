"""Trace characterisation: regenerates Tables 1 and 3 from any trace.

Definitions follow the paper:

* an **updated request** is a write whose start address was written
  before (Table 1 buckets its sizes into <=4K, 4-8K, >8K),
* a **hot address** is a distinct request start address touched at least
  4 times by any request (Table 3's "Hot write" column).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..units import KIB, Bytes
from .model import Trace
from .profiles import TraceStats

#: Table 1 bucket upper bounds in bytes (last bucket is open-ended).
BUCKET_BOUNDS = (4 * KIB, 8 * KIB)
#: Accesses needed for an address to count as hot (Section 4.1).
HOT_THRESHOLD = 4


def update_size_buckets(sizes_bytes: "Sequence[Bytes] | np.ndarray",
                        ) -> tuple[float, float, float]:
    """Fraction of update sizes in each Table 1 bucket."""
    sizes = np.asarray(sizes_bytes, dtype=np.int64)
    n = len(sizes)
    if not n:
        return (0.0, 0.0, 0.0)
    lo = int(np.count_nonzero(sizes <= BUCKET_BOUNDS[0]))
    mid = int(np.count_nonzero(sizes <= BUCKET_BOUNDS[1])) - lo
    hi = n - lo - mid
    return (lo / n, mid / n, hi / n)


def characterize(trace: Trace) -> TraceStats:
    """Compute Table 1 and Table 3 statistics for ``trace``.

    Column-wise: every statistic is a ratio of integer counts, so the
    result equals a request-by-request pass exactly.
    """
    n = len(trace)
    _, access_counts = np.unique(trace.offsets, return_counts=True)
    hot = int(np.count_nonzero(access_counts >= HOT_THRESHOLD))
    distinct = len(access_counts)

    write_offsets = trace.offsets[trace.is_write]
    write_sizes = trace.sizes[trace.is_write]
    n_writes = len(write_offsets)
    write_bytes = int(write_sizes.sum())
    # A write is an update unless it is the first write to its offset.
    _, first_writes = np.unique(write_offsets, return_index=True)
    is_update = np.ones(n_writes, dtype=bool)
    is_update[first_writes] = False
    update_sizes = write_sizes[is_update]

    return TraceStats(
        name=trace.name,
        n_requests=n,
        write_ratio=n_writes / n if n else 0.0,
        mean_write_bytes=write_bytes / n_writes if n_writes else 0.0,
        hot_write_ratio=hot / distinct if distinct else 0.0,
        n_updates=len(update_sizes),
        update_size_probs=update_size_buckets(update_sizes),
    )
