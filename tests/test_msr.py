"""MSR-Cambridge CSV parsing and round-trip."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces import generate, parse_msr_csv, profile
from repro.traces.msr import MsrStream, write_msr_csv

SRC = Path(__file__).resolve().parents[1] / "src"

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

    def test_offset_beyond_int64(self, tmp_path):
        rejects_in_both_readers(
            "1,h,0,Write,100000000000000000000000,4096,0\n", tmp_path,
            r"t:1: invalid extent 100000000000000000000000\+4096")

    def test_extent_end_beyond_int64(self, tmp_path):
        rejects_in_both_readers(
            f"1,h,0,Write,{2**63 - 4096},4097,0\n", tmp_path,
            "t:1: invalid extent")

    def test_timestamp_out_of_range(self, tmp_path):
        for ticks in (2**63, -1):
            rejects_in_both_readers(f"{ticks},h,0,Read,0,4096,0\n",
                                    tmp_path, f"t:1: timestamp {ticks} out")

    def test_oversized_field(self, tmp_path):
        row = "1,h,0,Read,0,4096,0\n2," + "h" * (csv.field_size_limit() + 1)
        rejects_in_both_readers(row + ",0,Read,0,4096,0\n", tmp_path,
                                "t:2: field larger than field limit")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"1,h\xff,0,Read,0,4096,0\n")
        for read in (parse_msr_csv, lambda p: list(MsrStream(p).chunks())):
            with pytest.raises(TraceError, match="not UTF-8") as info:
                read(path)
            assert str(path) in str(info.value)


ANCHOR = "0,h,0,Read,0,4096,0\n"
OPS = ("Read", "Write", "read", "WRITE", "r", "w", " Write ")


def not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def field(ints):
    """A CSV field: an integer's spelling, or text that is no integer."""
    return ints.map(str) | st.text(max_size=6).filter(not_an_int)


@settings(max_examples=300, deadline=None)
@given(ticks=field(st.integers()), op=st.sampled_from(OPS) | st.text(max_size=6),
       offset=field(st.integers()), size=field(st.integers()),
       host=st.text(max_size=8), tail=st.lists(st.text(max_size=4), max_size=2))
def test_any_row_parses_to_itself_or_names_its_line(ticks, op, offset, size,
                                                    host, tail):
    """A row of random fields after a valid first row either parses to
    its own timestamp, op, offset and size, or raises a TraceError
    naming line 2 -- never a numpy, csv or codec error.  A row whose
    first field starts with ``#`` is a comment and is skipped."""
    out = io.StringIO()
    csv.writer(out).writerow([ticks, host, 0, op, offset, size, *tail])
    try:
        trace = parse_msr_csv(io.StringIO(ANCHOR + out.getvalue()), name="t")
    except TraceError as exc:
        assert str(exc).startswith("t:2: ")
        return
    if ticks.startswith("#"):
        assert len(trace) == 1
        return
    req = trace[1]
    assert trace.times_ms[1] == float(int(ticks)) / 10_000
    assert req.is_write == op.strip().lower().startswith("w")
    assert (req.offset, req.size) == (int(offset), int(size))


@settings(max_examples=100, deadline=None)
@given(ticks=st.integers(0, 2**63 - 1), offset=st.integers(0, 2**62),
       size=st.integers(1, 2**62 - 1), op=st.sampled_from(OPS))
def test_in_range_rows_parse(ticks, offset, size, op):
    row = f"{ticks},h,0,{op},{offset},{size},0\n"
    req = parse_msr_csv(io.StringIO(ANCHOR + row))[1]
    assert (req.offset, req.size) == (offset, size)


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

    def test_non_ascii_name_roundtrips_under_an_ascii_locale(self, tmp_path):
        # The name lands in every row.  The writer must use UTF-8 whatever
        # the locale, or the UTF-8 reader rejects what it wrote.
        path = tmp_path / "proxy.csv"
        script = ("import sys\n"
                  "from repro.traces import generate, profile\n"
                  "from repro.traces.msr import write_msr_csv\n"
                  "t = generate(profile('ads'), n_requests=20, seed=3)\n"
                  "t.name = 'pr\\u00f8xy-\\u00e9'\n"
                  "write_msr_csv(t, sys.argv[1])\n")
        env = {**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C",
               "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes().decode("utf-8").count("prøxy-é") == 20
        original = generate(profile("ads"), n_requests=20, seed=3)
        parsed = parse_msr_csv(path)
        assert list(parsed.offsets) == list(original.offsets)
        assert list(parsed.sizes) == list(original.sizes)
