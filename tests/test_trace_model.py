"""Trace container semantics."""

import numpy as np
import pytest
from conftest import tiny_config

from repro import IPUFTL, Simulator
from repro.errors import TraceError
from repro.traces.model import OpType, Trace, TraceRequest


def make_trace():
    return Trace(
        times_ms=[0.0, 1.0, 2.5],
        is_write=[True, False, True],
        offsets=[0, 4096, 8192],
        sizes=[4096, 8192, 4096],
        name="t",
    )


class TestTrace:
    def test_len(self):
        assert len(make_trace()) == 3

    def test_iteration_yields_requests(self):
        reqs = list(make_trace())
        assert all(isinstance(r, TraceRequest) for r in reqs)
        assert reqs[0].op is OpType.WRITE
        assert reqs[1].op is OpType.READ

    def test_indexing(self):
        req = make_trace()[2]
        assert req.offset == 8192
        assert req.time_ms == 2.5

    def test_counts(self):
        trace = make_trace()
        assert trace.n_writes == 2
        assert trace.n_reads == 1
        assert trace.write_ratio == pytest.approx(2 / 3)

    def test_footprint(self):
        assert make_trace().footprint_bytes == 8192 + 4096

    def test_head(self):
        head = make_trace().head(2)
        assert len(head) == 2
        assert head.name == "t"

    def test_head_negative_rejected(self):
        with pytest.raises(TraceError):
            make_trace().head(-1)

    def test_empty_trace(self):
        trace = Trace([], [], [], [])
        assert len(trace) == 0
        assert trace.write_ratio == 0.0
        assert trace.footprint_bytes == 0


class TestValidation:
    def test_mismatched_columns(self):
        with pytest.raises(TraceError):
            Trace([0.0], [True, False], [0], [1])

    def test_decreasing_times(self):
        with pytest.raises(TraceError):
            Trace([1.0, 0.5], [True, True], [0, 0], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_names_first_bad_index(self, bad):
        # NaN slips past the non-decreasing check (every comparison with
        # it is False), so it needs its own.
        with pytest.raises(TraceError, match="index 2 is not finite"):
            Trace([0.0, 1.0, bad, 3.0, bad], [True] * 5, [0] * 5, [1] * 5)

    def test_non_finite_time_in_streamed_chunk(self):
        class Stream:
            name = "bad-chunk"

            def chunks(self):
                yield Trace([0.0, 1.0], [True, False], [0, 0], [4096] * 2)
                yield Trace([2.0, np.nan], [True, True], [0, 0], [4096] * 2)

        with pytest.raises(TraceError, match="index 1 is not finite"):
            Simulator(IPUFTL(tiny_config())).run(Stream())

    def test_zero_size(self):
        with pytest.raises(TraceError):
            Trace([0.0], [True], [0], [0])

    def test_negative_offset(self):
        with pytest.raises(TraceError):
            Trace([0.0], [True], [-4096], [4096])


class TestTraceRequest:
    def test_is_write(self):
        req = TraceRequest(0.0, OpType.WRITE, 0, 4096)
        assert req.is_write

    def test_end(self):
        req = TraceRequest(0.0, OpType.READ, 4096, 8192)
        assert req.end == 12288
