"""MSR-Cambridge CSV parsing and round-trip."""

import io

import pytest

from repro.errors import TraceError
from repro.traces import generate, parse_msr_csv, profile
from repro.traces.msr import MsrStream, write_msr_csv

SAMPLE = """128166372003061629,hm,0,Read,383496192,32768,1331
128166372016853566,hm,0,Write,310378496,4096,2326
128166372026893794,hm,0,Write,310382592,8192,connector
"""


def valid_sample():
    return "\n".join(SAMPLE.splitlines()[:2]) + "\n"


class TestParse:
    def test_parses_requests(self):
        trace = parse_msr_csv(io.StringIO(valid_sample()), name="hm")
        assert len(trace) == 2
        assert trace.n_reads == 1
        assert trace.n_writes == 1

    def test_rebases_time(self):
        trace = parse_msr_csv(io.StringIO(valid_sample()))
        assert trace.times_ms[0] == 0.0
        # 13791937 ticks = 1379.1937 ms
        assert trace.times_ms[1] == pytest.approx(1379.1937)

    def test_fields(self):
        trace = parse_msr_csv(io.StringIO(valid_sample()))
        req = trace[0]
        assert req.offset == 383496192
        assert req.size == 32768
        assert not req.is_write

    def test_sorts_by_time(self):
        shuffled = (
            "200,h,0,Write,4096,4096,0\n"
            "100,h,0,Read,0,4096,0\n"
        )
        trace = parse_msr_csv(io.StringIO(shuffled))
        assert not trace[0].is_write

    def test_max_requests(self):
        trace = parse_msr_csv(io.StringIO(valid_sample()), max_requests=1)
        assert len(trace) == 1

    def test_skips_comments_and_blanks(self):
        text = "# comment\n\n" + valid_sample()
        assert len(parse_msr_csv(io.StringIO(text))) == 2

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(valid_sample())
        trace = parse_msr_csv(path)
        assert trace.name == "t"
        assert len(trace) == 2


def rejects_in_both_readers(text, tmp_path, match):
    """The eager parser and the streaming reader both reject ``text``,
    with the same message."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(TraceError, match=match) as eager:
        parse_msr_csv(io.StringIO(text), name="t")
    with pytest.raises(TraceError, match=match) as streamed:
        list(MsrStream(path).chunks())
    assert str(eager.value) == str(streamed.value)


class TestErrors:
    def test_short_row(self, tmp_path):
        rejects_in_both_readers("1,2,3\n", tmp_path,
                                "t:1: expected >=6 fields, got 3")

    def test_bad_op(self, tmp_path):
        rejects_in_both_readers("1,h,0,Flush,0,4096,0\n", tmp_path,
                                "t:1: unknown op 'Flush'")

    def test_bad_int(self, tmp_path):
        rejects_in_both_readers("# header\nx,h,0,Read,0,4096,0\n", tmp_path,
                                "t:2: malformed field")

    def test_zero_size(self, tmp_path):
        rejects_in_both_readers("1,h,0,Read,0,4096,0\n2,h,0,Read,0,0,0\n",
                                tmp_path, r"t:2: invalid extent 0\+0")

    def test_empty_input(self):
        with pytest.raises(TraceError):
            parse_msr_csv(io.StringIO(""))


class TestRoundTrip:
    def test_synthetic_roundtrip(self, tmp_path):
        original = generate(profile("ads"), n_requests=300, seed=3)
        path = tmp_path / "ads.csv"
        write_msr_csv(original, path)
        parsed = parse_msr_csv(path, name="ads")
        assert len(parsed) == len(original)
        assert parsed.n_writes == original.n_writes
        assert list(parsed.offsets) == list(original.offsets)
        assert list(parsed.sizes) == list(original.sizes)
