"""Trace data model.

A :class:`Trace` stores requests column-wise in NumPy arrays (times in
milliseconds, byte offsets, byte lengths, read/write flags) for compact
storage and fast characterisation, and yields :class:`TraceRequest` views
when iterated by the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import TraceError
from ..units import Bytes, Ms


class OpType(enum.Enum):
    """Request direction."""

    READ = "R"
    WRITE = "W"


@dataclass(frozen=True)
class TraceRequest:
    """One block I/O request."""

    time_ms: Ms
    op: OpType
    offset: int   #: byte offset into the logical address space
    size: int     #: length in bytes

    @property
    def is_write(self) -> bool:
        """True for writes."""
        return self.op is OpType.WRITE

    @property
    def end(self) -> int:
        """One past the last byte touched."""
        return self.offset + self.size


class Trace:
    """Column-wise container of block I/O requests, sorted by time."""

    def __init__(
        self,
        times_ms: Sequence[float],
        is_write: Sequence[bool],
        offsets: Sequence[int],
        sizes: Sequence[int],
        name: str = "trace",
    ):
        self.name = name
        self.times_ms = np.asarray(times_ms, dtype=np.float64)
        self.is_write = np.asarray(is_write, dtype=bool)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        n = len(self.times_ms)
        if not (len(self.is_write) == len(self.offsets) == len(self.sizes) == n):
            raise TraceError("trace columns have mismatched lengths")
        finite = np.isfinite(self.times_ms)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise TraceError(f"trace time at index {bad} is not finite "
                             f"({self.times_ms[bad]})")
        if n and np.any(np.diff(self.times_ms) < 0):
            raise TraceError("trace times must be non-decreasing")
        if np.any(self.sizes <= 0):
            raise TraceError("trace request sizes must be positive")
        if np.any(self.offsets < 0):
            raise TraceError("trace offsets must be non-negative")

    def __len__(self) -> int:
        return len(self.times_ms)

    def __iter__(self) -> Iterator[TraceRequest]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> TraceRequest:
        return TraceRequest(
            time_ms=float(self.times_ms[i]),
            op=OpType.WRITE if self.is_write[i] else OpType.READ,
            offset=int(self.offsets[i]),
            size=int(self.sizes[i]),
        )

    def head(self, n: int) -> "Trace":
        """A new trace containing the first ``n`` requests."""
        if n < 0:
            raise TraceError(f"cannot take head({n})")
        return Trace(
            self.times_ms[:n], self.is_write[:n],
            self.offsets[:n], self.sizes[:n], name=self.name,
        )

    @property
    def n_writes(self) -> int:
        """Number of write requests."""
        return int(self.is_write.sum())

    @property
    def n_reads(self) -> int:
        """Number of read requests."""
        return len(self) - self.n_writes

    @property
    def write_ratio(self) -> float:
        """Fraction of requests that are writes."""
        return self.n_writes / len(self) if len(self) else 0.0

    @property
    def footprint_bytes(self) -> Bytes:
        """Span of the touched byte range (upper bound on unique data)."""
        if not len(self):
            return 0
        return int((self.offsets + self.sizes).max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace({self.name!r}, n={len(self)}, "
                f"writes={self.n_writes}, span={self.footprint_bytes})")
