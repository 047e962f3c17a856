"""Parser for MSR-Cambridge style block I/O traces.

The MSR-Cambridge collection (Narayanan et al., ToS'08) ships CSV lines::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

with ``Timestamp`` in Windows filetime (100 ns ticks), ``Type`` one of
``Read``/``Write``, ``Offset``/``Size`` in bytes.  Users who have the real
``ts0``/``wdev0``/``usr0`` files can replay them directly; everyone else
uses :mod:`repro.traces.synth`.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import TraceError
from .model import Trace
from .stream import DEFAULT_CHUNK_REQUESTS as _DEFAULT_CHUNK_REQUESTS

#: Windows filetime ticks per millisecond.
_TICKS_PER_MS = 10_000
#: Largest timestamp and extent end a row may carry: the columns are
#: int64, and neither a rebase (``ticks - first``) nor ``offset + size``
#: of in-range values can overflow.
_INT64_MAX = 2**63 - 1


def _rows(handle: "Iterable[str]",
          name: str) -> "Iterator[tuple[int, int, bool, int, int]]":
    """``(lineno, ticks, is_write, offset, size)`` of each request row.

    Blank lines and ``#`` comments are skipped; a short or unreadable
    row, a non-integer field, an unknown op, a timestamp outside
    ``[0, 2**63)`` or a bad extent raises :class:`TraceError` naming the
    line, and a file that is not UTF-8 one naming the file.
    """
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 6:
                raise TraceError(
                    f"{name}:{lineno}: expected >=6 fields, got {len(row)}")
            try:
                ticks = int(row[0])
                op = row[3].strip().lower()
                offset = int(row[4])
                size = int(row[5])
            except ValueError as exc:
                raise TraceError(
                    f"{name}:{lineno}: malformed field ({exc})") from None
            if op not in ("read", "write", "r", "w"):
                raise TraceError(f"{name}:{lineno}: unknown op {row[3]!r}")
            if size <= 0 or offset < 0 or offset + size > _INT64_MAX:
                raise TraceError(
                    f"{name}:{lineno}: invalid extent {offset}+{size}")
            if not 0 <= ticks <= _INT64_MAX:
                raise TraceError(
                    f"{name}:{lineno}: timestamp {ticks} out of range")
            yield lineno, ticks, op.startswith("w"), offset, size
    except csv.Error as exc:
        raise TraceError(f"{name}:{lineno + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceError(f"{getattr(handle, 'name', name)}: not UTF-8 "
                         f"text ({exc.reason})") from None


def parse_msr_csv(
    source: "str | Path | io.TextIOBase",
    name: str | None = None,
    max_requests: int | None = None,
) -> Trace:
    """Parse an MSR-Cambridge CSV into a :class:`Trace`.

    Timestamps are rebased so the trace starts at 0 ms.  Lines with zero
    size or unknown operation types raise :class:`TraceError` with the
    offending line number.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        handle: io.TextIOBase = open(path, "r", encoding="utf-8",
                                     newline="")
        trace_name = name or path.stem
        close = True
    else:
        handle = source
        trace_name = name or "msr"
        close = False

    times: list[float] = []
    writes: list[bool] = []
    offsets: list[int] = []
    sizes: list[int] = []
    try:
        for _, ts, is_write, offset, size in _rows(handle, trace_name):
            times.append(ts)
            writes.append(is_write)
            offsets.append(offset)
            sizes.append(size)
            if max_requests is not None and len(times) >= max_requests:
                break
    finally:
        if close:
            handle.close()

    if not times:
        raise TraceError(f"{trace_name}: no requests parsed")

    # Rebase in integer ticks before converting to ms: Windows filetimes
    # are ~1.3e17 and would lose sub-tick precision in float64 otherwise.
    ticks = np.asarray(times, dtype=np.int64)
    order = np.argsort(ticks, kind="stable")
    t = (ticks[order] - ticks[order[0]]) / _TICKS_PER_MS
    return Trace(
        t,
        np.asarray(writes, dtype=bool)[order],
        np.asarray(offsets, dtype=np.int64)[order],
        np.asarray(sizes, dtype=np.int64)[order],
        name=trace_name,
    )


class MsrStream:
    """Constant-memory chunked reader for a *time-sorted* MSR CSV file.

    Implements the :class:`~repro.traces.stream.TraceStream` contract:
    every ``chunks()`` call reopens the file, so iteration is repeatable
    (the property checkpoint fast-forward relies on).  Only one chunk of
    parsed rows is ever resident — the reason this exists: the eager
    :func:`parse_msr_csv` buffers the whole file to sort it, which a
    week-long trace does not fit.

    Sortedness is therefore a *requirement* here, checked row by row: a
    timestamp going backwards raises :class:`TraceError` (fall back to
    the eager parser for unsorted files).  For sorted files the emitted
    requests are byte-identical to ``parse_msr_csv`` — same rebase
    arithmetic (integer tick subtraction, then one float division), and
    a stable argsort of an already-sorted column is the identity.
    """

    def __init__(self, path: "str | Path", name: str | None = None,
                 max_requests: int | None = None,
                 chunk_requests: int = _DEFAULT_CHUNK_REQUESTS):
        if chunk_requests < 1:
            raise TraceError(
                f"chunk_requests must be >= 1, got {chunk_requests}")
        self.path = Path(path)
        self.name = name or self.path.stem
        self.max_requests = max_requests
        self.chunk_requests = chunk_requests

    def chunks(self) -> "Iterator[Trace]":
        name = self.name
        limit = self.max_requests
        step = self.chunk_requests
        t0: int | None = None
        prev = 0
        parsed = 0
        times: list[float] = []
        writes: list[bool] = []
        offsets: list[int] = []
        sizes: list[int] = []
        emitted = False
        with open(self.path, "r", encoding="utf-8", newline="") as handle:
            for lineno, ts, is_write, offset, size in _rows(handle, name):
                if t0 is None:
                    t0 = ts
                elif ts < prev:
                    raise TraceError(
                        f"{name}:{lineno}: timestamps go backwards "
                        f"({ts} after {prev}); streaming requires a "
                        f"time-sorted file — use parse_msr_csv to sort")
                prev = ts
                times.append((ts - t0) / _TICKS_PER_MS)
                writes.append(is_write)
                offsets.append(offset)
                sizes.append(size)
                parsed += 1
                if len(times) >= step:
                    yield Trace(times, writes, offsets, sizes, name=name)
                    emitted = True
                    times, writes, offsets, sizes = [], [], [], []
                if limit is not None and parsed >= limit:
                    break
        if parsed == 0:
            raise TraceError(f"{name}: no requests parsed")
        if times or not emitted:
            yield Trace(times, writes, offsets, sizes, name=name)


def write_msr_csv(trace: Trace, destination: "str | Path | io.TextIOBase") -> None:
    """Serialise a trace back to the MSR CSV format (round-trip support)."""
    if isinstance(destination, (str, Path)):
        handle: io.TextIOBase = open(destination, "w", encoding="utf-8",
                                     newline="")
        close = True
    else:
        handle = destination
        close = False
    try:
        writer = csv.writer(handle)
        for req in trace:
            writer.writerow([
                int(round(req.time_ms * _TICKS_PER_MS)),
                trace.name,
                0,
                "Write" if req.is_write else "Read",
                req.offset,
                req.size,
                0,
            ])
    finally:
        if close:
            handle.close()
