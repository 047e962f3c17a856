"""Trace characterisation (Tables 1 and 3 regeneration)."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces.model import Trace
from repro.traces.stats import (
    BUCKET_BOUNDS,
    HOT_THRESHOLD,
    TraceStats,
    characterize,
    update_size_buckets,
)
from repro.units import KIB


def trace_from(rows):
    """rows: (time, is_write, offset, size)"""
    t, w, o, s = zip(*rows)
    return Trace(t, w, o, s, name="x")


class TestBuckets:
    def test_boundaries(self):
        probs = update_size_buckets([4 * KIB, 8 * KIB, 9 * KIB])
        assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_4k_inclusive(self):
        assert update_size_buckets([4096]) == (1.0, 0.0, 0.0)

    def test_8k_in_middle(self):
        assert update_size_buckets([8192]) == (0.0, 1.0, 0.0)

    def test_empty(self):
        assert update_size_buckets([]) == (0.0, 0.0, 0.0)


class TestCharacterize:
    def test_update_detection(self):
        trace = trace_from([
            (0.0, True, 0, 4096),       # first write
            (1.0, True, 0, 4096),       # update
            (2.0, True, 4096, 8192),    # first write elsewhere
        ])
        stats = characterize(trace)
        assert stats.n_updates == 1
        assert stats.update_size_probs == (1.0, 0.0, 0.0)

    def test_write_ratio_and_mean(self):
        trace = trace_from([
            (0.0, True, 0, 4096),
            (1.0, False, 0, 4096),
            (2.0, True, 8192, 12288),
        ])
        stats = characterize(trace)
        assert stats.write_ratio == pytest.approx(2 / 3)
        assert stats.mean_write_bytes == pytest.approx((4096 + 12288) / 2)

    def test_hot_threshold_is_paper_value(self):
        assert HOT_THRESHOLD == 4

    def test_hot_ratio_counts_reads_too(self):
        rows = [(float(i), i % 2 == 0, 0, 4096) for i in range(4)]
        rows.append((10.0, True, 4096, 4096))
        stats = characterize(trace_from(rows))
        # Address 0 touched 4 times (hot); address 4096 once.
        assert stats.hot_write_ratio == pytest.approx(0.5)

    def test_three_accesses_not_hot(self):
        rows = [(float(i), True, 0, 4096) for i in range(3)]
        stats = characterize(trace_from(rows))
        assert stats.hot_write_ratio == 0.0

    def test_table_rows_formatted(self):
        trace = trace_from([(0.0, True, 0, 4096)])
        stats = characterize(trace)
        row1 = stats.table1_row()
        row3 = stats.table3_row()
        assert row1["Trace"] == "x"
        assert row3["# of Req."] == "1"
        assert row3["Write R"] == "100.0%"


def characterize_loop(trace: Trace) -> TraceStats:
    """Request-by-request reference for the column-wise ``characterize``."""
    access_counts: Counter = Counter()
    written: set = set()
    update_sizes: list = []
    write_bytes = 0
    n_writes = 0
    for req in trace:
        access_counts[req.offset] += 1
        if req.is_write:
            n_writes += 1
            write_bytes += req.size
            if req.offset in written:
                update_sizes.append(req.size)
            else:
                written.add(req.offset)

    n = len(trace)
    hot = sum(1 for c in access_counts.values() if c >= HOT_THRESHOLD)
    distinct = len(access_counts)
    n_up = len(update_sizes)
    lo = sum(1 for size in update_sizes if size <= BUCKET_BOUNDS[0])
    mid = sum(1 for size in update_sizes
              if BUCKET_BOUNDS[0] < size <= BUCKET_BOUNDS[1])
    probs = ((lo / n_up, mid / n_up, (n_up - lo - mid) / n_up) if n_up
             else (0.0, 0.0, 0.0))
    return TraceStats(
        name=trace.name,
        n_requests=n,
        write_ratio=n_writes / n if n else 0.0,
        mean_write_bytes=write_bytes / n_writes if n_writes else 0.0,
        hot_write_ratio=hot / distinct if distinct else 0.0,
        n_updates=n_up,
        update_size_probs=probs,
    )


#: Few distinct offsets, so updates and hot addresses are common; sizes
#: straddle both Table 1 bucket bounds.
REQUESTS = st.lists(
    st.tuples(st.booleans(),
              st.sampled_from([0, 4096, 8192, 65536, 1 << 30]),
              st.sampled_from([512, 4095, 4096, 4097, 8192, 8193, 65536])),
    max_size=60)


class TestColumnWiseMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(REQUESTS)
    @example([])
    @example([(False, 0, 4096)] * 5)
    def test_equal_to_request_loop(self, requests):
        trace = Trace([float(i) for i in range(len(requests))],
                      [w for w, _, _ in requests],
                      [o for _, o, _ in requests],
                      [s for _, _, s in requests], name="h")
        assert characterize(trace) == characterize_loop(trace)

