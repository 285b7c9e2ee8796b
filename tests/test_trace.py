import csv
import dataclasses
import itertools
import math
import random
import re
import tracemalloc
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from cyclecast import trace
from cyclecast.synthetic import SyntheticSpec, generate
from cyclecast.trace import (
    US_PER_SECOND,
    ColumnMapping,
    Events,
    MetricKind,
    Observations,
    PeriodObservation,
    aggregate_span,
    parse_trace,
    read_observations,
    span_tps,
    write_observations,
    write_trace,
)


import oracles


def _columns(events: Events):
    return events.timestamp.tolist(), events.cpu.tolist(), events.mem.tolist()


def _arrivals(*timestamps: int) -> Events:
    return Events(timestamps, [0.0] * len(timestamps), [0.0] * len(timestamps))


def _assert_same_parse(result, reference):
    """Equal to the bit: column dtypes and bytes, and the reject count."""
    assert result.rejected == reference.rejected
    for name in ("timestamp", "cpu", "mem"):
        got, want = getattr(result.events, name), getattr(reference.events, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestParse:
    """Every reject and mapping rule, on a line list (the per-row reader)."""

    @pytest.fixture
    def parse(self):
        def run(*rows, mapping=None):
            return parse_trace([row + "\n" for row in rows], mapping)

        return run

    def test_identity_mapping_row(self, parse):
        res = parse("600000000,j1,t1,0.5,0.02")
        assert res.rejected == 0
        assert _columns(res.events) == ([600000000], [0.5], [0.02])
        assert res.events.timestamp.dtype == np.int64
        assert res.events.cpu.dtype == res.events.mem.dtype == np.float64

    def test_empty_input(self, parse):
        res = parse("")
        assert len(res.events) == 0
        assert res.rejected == 0

    def test_bad_cpu_field_rejected(self, parse):
        res = parse("1,j,t,abc,0.1", "2,j,t,0.2,0.1")
        assert res.rejected == 1
        assert len(res.events) == 1

    def test_bad_timestamp_rejected(self, parse):
        # The last timestamp does not fit in int64 microseconds.
        res = parse("oops,j,t,0.1,0.1", "-5,j,t,0.1,0.1", f"{2**63},j,t,0.1,0.1")
        assert res.rejected == 3
        assert len(res.events) == 0

    def test_short_row_rejected(self, parse):
        res = parse("12,j", "13,j,t,0.7,0.3")
        assert res.rejected == 1
        assert res.events.timestamp.tolist() == [13]

    def test_non_ascii_digits(self, parse):
        # A control picture is no digit; int() reads Arabic-Indic digits.
        res = parse("7\u24271,j,t,0.5,0.1", "8,j,t,0.5,0.1")
        assert (res.rejected, _columns(res.events)[0]) == (1, [8])
        res = parse("\u0661\u0662,j,t,0.5,0.1")
        assert (res.rejected, _columns(res.events)[0]) == (0, [12])

    def test_timestamp_column_read_twice(self, parse):
        # int("-0") is 0 while float("-0") keeps its sign.
        res = parse("-0", "5", mapping=ColumnMapping(timestamp=0, cpu=0, mem=None))
        assert _columns(res.events) == ([0, 5], [0.0, 5.0], [0.0, 0.0])
        assert math.copysign(1.0, res.events.cpu[0]) == -1.0

    def test_negative_column_counts_from_row_end(self, parse):
        res = parse("0,j,t,0.1,0.2", "5,0.3,0.4", mapping=ColumnMapping(cpu=-2, mem=-1))
        assert _columns(res.events) == ([0, 5], [0.1, 0.3], [0.2, 0.4])

    def test_negative_request_rejected(self, parse):
        res = parse("1,j,t,-0.5,0.1")
        assert res.rejected == 1

    def test_unsorted_input_sorted(self, parse):
        res = parse("30,j,t,0.3,0", "10,j,t,0.1,0", "30,j,t,0.4,0", "20,j,t,0.2,0")
        # Equal timestamps keep their input order.
        assert _columns(res.events) == ([10, 20, 30, 30], [0.1, 0.2, 0.3, 0.4], [0.0] * 4)
        rows = [(int(ts), float(i)) for i, ts in enumerate(np.random.default_rng(5).integers(0, 9, size=300))]
        res = parse(*(f"{ts},j,t,{cpu!r},0" for ts, cpu in rows))
        expected = sorted(rows, key=lambda r: r[0])
        assert _columns(res.events)[:2] == ([ts for ts, _ in expected], [cpu for _, cpu in expected])

    def test_header_name_mapping(self, parse):
        mapping = ColumnMapping(timestamp="time", cpu="cpu_req", mem="mem_req", has_header=True)
        res = parse("time,cpu_req,mem_req", "42,0.25,0.5", mapping=mapping)
        assert _columns(res.events) == ([42], [0.25], [0.5])

    def test_empty_rows_before_header_skipped(self, parse):
        # csv yields [] for an empty line; the header is the first non-empty row.
        res = parse("", "", "timestamp,a,b,cpu,mem", "42,j,t,0.25,0.5", mapping=ColumnMapping(has_header=True))
        assert (res.rejected, _columns(res.events)) == (0, ([42], [0.25], [0.5]))
        mapping = ColumnMapping(timestamp="time", cpu="cpu_req", mem=None, has_header=True)
        res = parse("", "time,cpu_req", "42,0.25", mapping=mapping)
        assert (res.rejected, _columns(res.events)) == (0, ([42], [0.25], [0.0]))
        res = parse("", "", mapping=ColumnMapping(has_header=True))
        assert (res.rejected, len(res.events)) == (0, 0)

    def test_missing_named_column_raises(self, parse):
        mapping = ColumnMapping(timestamp="nope", has_header=True)
        with pytest.raises(ValueError):
            parse("time,cpu,mem", "42,0.25,0.5", mapping=mapping)

    def test_named_column_without_header_raises(self, parse):
        mapping = ColumnMapping(timestamp="time", has_header=False)
        with pytest.raises(ValueError):
            parse("42,j,t,0.25,0.5", mapping=mapping)

    def test_arrivals_only_mapping(self, parse):
        mapping = ColumnMapping(timestamp=0, cpu=None, mem=None)
        res = parse("7", "9", mapping=mapping)
        assert _columns(res.events) == ([7, 9], [0.0, 0.0], [0.0, 0.0])

    def test_alternate_delimiter(self, parse):
        mapping = ColumnMapping(delimiter=";")
        res = parse("600;j1;t1;0.5;0.02", mapping=mapping)
        assert _columns(res.events) == ([600], [0.5], [0.02])

    def test_non_finite_and_negative_values_rejected(self, parse):
        res = parse(
            "-5,j,t,0.1,0.1", "1,j,t,inf,0.1", "2,j,t,0.1,nan", "3,j,t,-0.0,0.1",
            "4,j,t,1e400,0", "5,j,t,0.5,-1e-300", f"{2**63 - 1},j,t,0.5,0.25",
        )
        assert res.rejected == 5
        assert _columns(res.events) == ([3, 2**63 - 1], [-0.0, 0.5], [0.1, 0.25])
        assert math.copysign(1.0, res.events.cpu[0]) == -1.0


class TestParseFile(TestParse):
    """The same cases from a file, where the bulk reader takes the well-formed ones."""

    @pytest.fixture
    def parse(self, tmp_path):
        def run(*rows, mapping=None):
            path = tmp_path / "trace.csv"
            path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
            return parse_trace(path, mapping)

        return run

    def test_byte_order_mark_skipped(self, parse):
        res = parse("\ufeff1,j,t,0.5,0.25", "2,j,t,0.5,0.25")
        assert (res.rejected, _columns(res.events)[0]) == (0, [1, 2])
        mapping = ColumnMapping(timestamp="time", cpu="cpu", mem=None, has_header=True)
        res = parse("\ufefftime,cpu", "42,0.25", mapping=mapping)
        assert _columns(res.events) == ([42], [0.25], [0.0])


def _fail(*args, **kwargs):
    raise AssertionError("the per-row reader ran")


def _reference_parse(path, mapping):
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        lines = fh
        if mapping.has_header:
            # The header is the first non-empty row; the reference took the
            # first row even when csv read it as empty.
            lines = itertools.dropwhile(lambda line: not line.strip("\r\n"), fh)
        return oracles.parse_rows(lines, mapping)


# Fields the two readers may disagree on: int() and float() take non-ASCII
# digits and underscores, csv takes quotes and carriage returns; and values at
# the edges of the reject rules.
_ODD_FIELDS = [
    "١٢", "１", "7\u24271", "1_0", "1_0.5", " 7 ", "\xa07\x85", "7\u2028", "\x0c7", "+3", "-3", "0x10", "1.0", "1e5", ".5",
    "inf", "-inf", "nan", "-nan", "1e400", "-0.0", "-0", "4.9e-324", "abc", "", " ",
    str(2**63 - 1), str(2**63), str(-(2**63)), "#1", "1#", '"1"', '1"', "1\r", "1\r\n2",
]
_ODD_LINES = ["", " ", "   ", "\t", "#", "#1,2,3", '"', "\r"]
_NUMBER_PIECES = st.sampled_from(
    ["", " ", "\t", "+", "-", "0", "7", "12", "00", ".", ".5", "e", "E+", "e-", "inf", "nan", "Infinity", "_", "x"]
)


@st.composite
def _trace_files(draw):
    """A mostly well-formed trace file (text) and a mapping, with at most one perturbation."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", " "]))
    c_ts, c_cpu, c_mem = draw(st.permutations(range(5)))[:3]
    c_cpu = draw(st.sampled_from([c_cpu] * 4 + [None, c_mem, c_ts]))
    c_mem = draw(st.sampled_from([c_mem] * 4 + [None, c_cpu]))
    width = draw(st.integers(max(c for c in (c_ts, c_cpu, c_mem) if c is not None) + 1, 7))
    timestamp = st.one_of(st.integers(0, 10**13), st.sampled_from([0, 2**63 - 1]))
    amount = st.one_of(
        st.floats(0.0, 1e6), st.floats(min_value=0.0, allow_infinity=False), st.floats(), st.sampled_from([-0.0, 5e-324])
    )
    other = st.sampled_from(["j1", "t1", "x", "", "7", "0.5"])

    def row():
        fields = [draw(other) for _ in range(width)]
        for c in (c_cpu, c_mem):
            if c is not None:
                fields[c] = repr(draw(amount))
        fields[c_ts] = str(draw(timestamp))
        return fields

    rows = [row() for _ in range(draw(st.integers(0, 6)))]
    has_header = draw(st.booleans())
    names = [f"col{i}" for i in range(width)]
    if has_header:
        rows.insert(0, list(names))
    kind = draw(st.sampled_from(["none", "none", "field", "field", "field", "line", "short", "long", "crlf", "bom"]))
    if kind == "field" and rows:
        fields = draw(st.sampled_from(rows))
        odd = st.one_of(st.sampled_from(_ODD_FIELDS), st.lists(_NUMBER_PIECES, min_size=1, max_size=4).map("".join))
        fields[draw(st.integers(0, width - 1))] = draw(odd)
    elif kind == "short" and rows:
        fields = draw(st.sampled_from(rows))
        del fields[draw(st.integers(0, width - 1)):]
    elif kind == "long" and rows:
        draw(st.sampled_from(rows)).extend(draw(st.lists(other, min_size=1, max_size=3)))
    lines = [delimiter.join(fields) for fields in rows]
    if kind == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
    text = "".join(line + ("\r\n" if kind == "crlf" else "\n") for line in lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    if kind == "bom":
        text = "\ufeff" + text
    named = has_header and draw(st.booleans())
    mapping = ColumnMapping(
        *(names[c] if named and c is not None else c for c in (c_ts, c_cpu, c_mem)),
        delimiter=delimiter,
        has_header=has_header,
    )
    return text, mapping


class TestBulkReader:
    def test_synth_trace_takes_bulk_path(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(pp_tps=12, tps=36, base_rate=5.0, noise_sigma=0.1, seed=8)
        events, _ = generate(spec)
        path = tmp_path / "trace.csv"
        write_trace(path, events, spec.tp_minutes)
        mapping = ColumnMapping(has_header=True)
        reference = _reference_parse(path, mapping)
        text = path.read_bytes()
        header, body = text.split(b"\n", 1)
        mid = body.index(b"\n", len(body) // 2) + 1
        named = ColumnMapping(timestamp="timestamp", cpu="cpu_request", mem="mem_request", has_header=True)
        # Both readers skip empty lines, so none of these leaves the bulk path.
        variants = {
            "bom.csv": (b"\xef\xbb\xbf" + text, named),
            "trailing_empty.csv": (text + b"\n", mapping),
            "mid_empty.csv": (header + b"\n" + body[:mid] + b"\n" + body[mid:], mapping),
            "headerless_empty_first.csv": (b"\n\n" + body, ColumnMapping()),
        }
        for name, (data, _) in variants.items():
            (tmp_path / name).write_bytes(data)
        references = {name: _reference_parse(tmp_path / name, m) for name, (_, m) in variants.items()}
        # An empty line before a header: csv takes the next row as the header,
        # a row of numbers too, so the per-row reader runs.
        empty_first = tmp_path / "empty_first.csv"
        for data in (text, body):
            empty_first.write_bytes(b"\n" + data)
            assert trace._parse_bulk(empty_first, mapping) is None
            _assert_same_parse(parse_trace(empty_first, mapping), _reference_parse(empty_first, mapping))
        monkeypatch.setattr(trace, "_parse_rows", _fail)
        res = parse_trace(path, mapping)
        _assert_same_parse(res, reference)
        assert len(res.events) == len(events) and res.rejected == 0
        for name, (_, m) in variants.items():
            _assert_same_parse(references[name], reference)
            _assert_same_parse(parse_trace(tmp_path / name, m), references[name])

    def test_line_past_csv_field_limit_is_refused(self, tmp_path):
        # The per-row reader raises on a field longer than csv.field_size_limit()
        # (131,072), so no file with such a line may take the bulk path.
        rows = [f"{i * 1_000_000},j1,j1,0.01,0.005" for i in range(100)]
        rows[49] = f"5000000,{'x' * 200_000},j1,0.01,0.005"
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n" + "".join(r + "\n" for r in rows))
        mapping = ColumnMapping(has_header=True)
        assert trace._parse_bulk(path, mapping) is None
        with pytest.raises(csv.Error, match="^line 51: field larger than field limit"):
            parse_trace(path, mapping)
        # Any run of 3 * _NEWLINE_STRETCH - 2 bytes without a newline is refused, across a block edge too.
        run = 3 * trace._NEWLINE_STRETCH - 2
        for start in range(trace._SCAN_BLOCK - run, trace._SCAN_BLOCK + 1, trace._NEWLINE_STRETCH // 4):
            for bom in (b"", b"\xef\xbb\xbf"):
                path.write_bytes(bom + b"1\n" * (start // 2) + b"2" * (start % 2) + b"7" * run + b"\n1\n")
                assert not trace._is_plain(path), (start, bom)

    def test_every_written_value_takes_bulk_path(self, tmp_path, monkeypatch):
        # write_trace prints int64 timestamps and float reprs; some fail the reject rules.
        stamps = [0, 1, 7, 2**53 + 1, 2**63 - 1, -1, -(2**63)]
        amounts = [
            0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1 / 3, 1.5, 1e16, 1.7976931348623157e308,
            float("inf"), float("-inf"), float("nan"), -1.5, -5e-324,
        ]
        cpu = [a for a in amounts for _ in amounts]
        mem = amounts * len(amounts)
        ts = [stamps[i % len(stamps)] for i in range(len(cpu))]
        path = tmp_path / "trace.csv"
        write_trace(path, Events(ts, cpu, mem), tp_minutes=30)
        mapping = ColumnMapping(has_header=True)
        reference = _reference_parse(path, mapping)
        monkeypatch.setattr(trace, "_parse_rows", _fail)
        res = parse_trace(path, mapping)
        _assert_same_parse(res, reference)
        assert 0 < len(res.events) < len(cpu)

    def test_bulk_equals_per_row_reference(self, tmp_path):
        path = tmp_path / "trace.csv"
        taken = []

        @settings(max_examples=600)
        @given(case=_trace_files())
        def check(case):
            text, mapping = case
            path.write_bytes(text.encode("utf-8"))
            try:
                reference = _reference_parse(path, mapping)
            except ValueError:
                # The bulk reader refuses what the per-row reader raises on.
                assert trace._parse_bulk(path, mapping) is None
                with pytest.raises(ValueError):
                    parse_trace(path, mapping)
                return
            bulk = trace._parse_bulk(path, mapping)
            if bulk is not None:
                _assert_same_parse(bulk, reference)
            _assert_same_parse(parse_trace(path, mapping), reference)
            taken.append(bulk is not None)

        check()
        # Most files are well formed, so the property is not vacuous.
        assert sum(taken) >= len(taken) / 4, (sum(taken), len(taken))

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 7])
    def test_checks_made_a_block_at_a_time(self, tmp_path, monkeypatch, block):
        # The one descent falls on each block boundary in turn, and so does the one reject.
        path = tmp_path / "trace.csv"
        mapping = ColumnMapping(has_header=True)
        monkeypatch.setattr(trace, "_EVENT_BLOCK", block)
        for at in range(1, 9):
            for bad in (None, "ts", "cpu"):
                stamps = list(range(10, 19))
                if bad is None:
                    stamps[at:] = [t - 5 for t in stamps[at:]]
                rows = [[str(t), "j1", "j1", "0.5", "0.25"] for t in stamps]
                if bad == "ts":
                    rows[at][0] = "-1"
                elif bad == "cpu":
                    rows[at][3] = "nan"
                path.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n"
                                + "".join(",".join(row) + "\n" for row in rows))
                reference = _reference_parse(path, mapping)
                bulk = trace._parse_bulk(path, mapping)
                assert bulk is not None
                _assert_same_parse(bulk, reference)
                with open(path, encoding="utf-8") as fh:
                    _assert_same_parse(parse_trace(fh, mapping), reference)


def _no_network(*args, **kwargs):
    raise AssertionError("a URL was opened")


class TestBulkReaderOpensByName:
    """loadtxt opens the file by its name, through numpy's data source."""

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_still_plain_text(self, tmp_path, suffix):
        # numpy decompresses a file named so; the per-row reader reads it as text.
        events = Events(np.arange(199) * 60 * US_PER_SECOND, np.full(199, 0.5), np.full(199, 0.25))
        path = tmp_path / f"plain.csv{suffix}"
        write_trace(path, events, tp_minutes=30)
        mapping = ColumnMapping(has_header=True)
        reference = _reference_parse(path, mapping)
        assert trace._parse_bulk(path, mapping) is None
        res = parse_trace(path, mapping)
        _assert_same_parse(res, reference)
        assert (len(res.events), res.rejected) == (199, 0)

    def test_relative_path_that_reads_as_a_url(self, tmp_path, monkeypatch):
        # Relative to the working directory, "http://x/trace.csv" is the file
        # http:/x/trace.csv; numpy would take the name for a URL and fetch it.
        spec = SyntheticSpec(pp_tps=12, tps=24, base_rate=5.0, noise_sigma=0.1, seed=3)
        events, _ = generate(spec)
        (tmp_path / "http:" / "x").mkdir(parents=True)
        path = tmp_path / "http:" / "x" / "trace.csv"
        write_trace(path, events, spec.tp_minutes)
        mapping = ColumnMapping(has_header=True)
        reference = _reference_parse(path, mapping)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", _no_network)
        monkeypatch.setattr(trace, "_parse_rows", _fail)
        res = parse_trace("http://x/trace.csv", mapping)
        _assert_same_parse(res, reference)
        assert len(res.events) == len(events)


# Pieces of a file for the pre-scan: plain text, line ends, and each byte it refuses.
_SCAN_PIECES = st.sampled_from(
    [b"\n", b"\n", b"\n\n", b"7", b"12,0.5", b" ", b"\t", b"\xef\xbb\xbf", b"\xef", b'"', b"\r", b"\x7f", b"\x00",
     "\u2028".encode("utf-8")]
)


class TestPlainScan:
    def test_equals_bytes_method_scan(self, tmp_path):
        path = tmp_path / "trace.csv"
        answers = []

        @settings(max_examples=800)
        @given(
            bom=st.booleans(),
            pieces=st.lists(st.one_of(_SCAN_PIECES, st.sampled_from([b"1,2\n", b"3,4\n"])), max_size=24),
            sizes=st.one_of(
                st.tuples(st.integers(1, 12), st.integers(1, 12)),
                st.just((trace._SCAN_BLOCK, trace._NEWLINE_STRETCH)),
            ),
        )
        def check(bom, pieces, sizes):
            # Small blocks and stretches put byte order marks and runs without a
            # newline across block boundaries.
            block, stretch = sizes
            data = b"\xef\xbb\xbf" * bom + b"".join(pieces)
            path.write_bytes(data)
            with (
                mock.patch.object(trace, "_SCAN_BLOCK", block), mock.patch.object(oracles, "_SCAN_BLOCK", block),
                mock.patch.object(trace, "_NEWLINE_STRETCH", stretch),
                mock.patch.object(oracles, "_NEWLINE_STRETCH", stretch),
            ):
                expected = oracles.plain_file(path)
                assert trace._is_plain(path) == expected
            # Only the first byte order mark is skipped; a second one counts as line bytes.
            lines = data.removeprefix(b"\xef\xbb\xbf").split(b"\n")
            if stretch <= block and max(map(len, lines)) >= 3 * stretch - 2:
                assert not expected
            answers.append(expected)

        check()
        # Both answers occur often, so the property is not vacuous.
        plain = sum(answers)
        assert len(answers) / 5 <= plain <= len(answers) * 4 / 5, (plain, len(answers))


def _one_period(events, metric=MetricKind.ARRIVALS, tp_minutes=1, sub_bin_seconds=60, scale=100.0):
    """The samples of a single target period starting at 0."""
    (obs,) = aggregate_span(events, 0, 1, tp_minutes, 1, metric, sub_bin_seconds, scale)
    return obs.samples


class TestAggregate:
    def test_arrival_counting(self):
        events = _arrivals(0, 10 * US_PER_SECOND, 70 * US_PER_SECOND)
        assert _one_period(events, tp_minutes=2) == [2, 1]

    def test_empty_window_zeros(self):
        assert _one_period(_arrivals(), tp_minutes=3) == [0, 0, 0]

    def test_cpu_scaling(self):
        events = Events([0, 1 * US_PER_SECOND], [0.5, 0.25], [0.0, 0.0])
        assert _one_period(events, MetricKind.CPU, scale=100.0) == [75]

    def test_memory_metric(self):
        events = Events([0], [0.0], [0.031])
        assert _one_period(events, MetricKind.MEMORY, scale=1000.0) == [31]

    def test_events_outside_window_ignored(self):
        events = _arrivals(1, 5 * US_PER_SECOND, 62 * US_PER_SECOND)
        (obs,) = aggregate_span(events, 2 * US_PER_SECOND, 1, 1, 1, MetricKind.ARRIVALS, 60)
        assert obs.samples == [1]

    def test_indivisible_window_raises(self):
        with pytest.raises(ValueError, match="whole number"):
            _one_period(_arrivals(), sub_bin_seconds=45)

    def test_inverted_window_raises(self):
        for tp_minutes in (0, -1):
            with pytest.raises(ValueError, match="at least one minute"):
                _one_period(_arrivals(), tp_minutes=tp_minutes)

    def test_span_geometry_is_the_period_the_sub_bin_and_their_ratio(self):
        assert trace._span_geometry(30) == (30 * 60 * US_PER_SECOND, 60 * US_PER_SECOND, 30)
        assert trace._span_geometry(14, 7, num_tps=4) == (14 * 60 * US_PER_SECOND, 7 * US_PER_SECOND, 120)

    def test_period_of_2_63_us_or_more_raises(self):
        # The longest period below 2**63 us, in whole minutes, and one minute more.
        longest = (2**63 - 1) // (60 * US_PER_SECOND)
        assert trace._span_geometry(longest)[0] == longest * 60 * US_PER_SECOND < 2**63
        message = f"target period of {longest + 1}min is {(longest + 1) * 60 * US_PER_SECOND}us, not below 2**63us"
        for call in (
            lambda: _one_period(_arrivals(0), tp_minutes=longest + 1),
            lambda: span_tps(_arrivals(0), 0, longest + 1),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_nonpositive_scale_rejected_for_every_metric(self):
        for metric in MetricKind:
            for scale in (0.0, -1.0, -0.0):
                with pytest.raises(ValueError, match="scale"):
                    _one_period(_arrivals(), metric, scale=scale)

    def test_nonpositive_pattern_period_raises(self):
        with pytest.raises(ValueError):
            aggregate_span(_arrivals(0), 0, 1, 1, 0, MetricKind.ARRIVALS, 60)

    def test_conservation_over_span(self):
        rng = np.random.default_rng(13)
        span_sec = 40 * 60
        events = _arrivals(*rng.integers(0, span_sec * US_PER_SECOND, size=500).tolist())
        observations = aggregate_span(events, 0, 4, 10, 2, MetricKind.ARRIVALS, 60)
        assert sum(sum(o.samples) for o in observations) == len(events)

    def test_rebinning_preserves_sum(self):
        rng = np.random.default_rng(17)
        events = _arrivals(*rng.integers(0, 600 * US_PER_SECOND, size=200).tolist())
        coarse = _one_period(events, tp_minutes=10, sub_bin_seconds=60)
        fine = _one_period(events, tp_minutes=10, sub_bin_seconds=30)
        assert len(fine) == 2 * len(coarse)
        assert sum(fine) == sum(coarse)

    def test_span_stamping(self):
        events = _arrivals(*(i * 30 * 60 * US_PER_SECOND for i in range(6)))
        observations = aggregate_span(events, 0, 6, 30, 2, MetricKind.ARRIVALS, 60)
        assert [(o.tp_index, o.cycle_index) for o in observations] == [
            (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3),
        ]

    def test_span_tps_covers_last_event(self):
        events = _arrivals(0, 95 * 60 * US_PER_SECOND)
        assert span_tps(events, 0, 30) == 4
        assert span_tps(events, 96 * 60 * US_PER_SECOND, 30) == 0

    def test_offsets_outside_int64_refused(self):
        events = _arrivals(5, 2**62)
        # 2**62 - start reaches 2**63: the offset would wrap in int64.
        start = 2**62 - 2**63
        for call in (
            lambda: span_tps(events, start, 30),
            lambda: aggregate_span(events, start, 1, 30, 1, MetricKind.ARRIVALS, 60),
        ):
            with pytest.raises(ValueError, match="outside int64"):
                call()
        assert span_tps(events, start + 1, 30) == (2**63 - 1) // (30 * 60 * US_PER_SECOND) + 1
        # The earliest event's offset below -2**63, and a start beyond int64.
        late = _arrivals(-(2**62), 0)
        with pytest.raises(ValueError, match="outside int64"):
            aggregate_span(late, 2**62 + 1, 1, 30, 1, MetricKind.ARRIVALS, 60)
        with pytest.raises(ValueError, match="outside int64"):
            aggregate_span(_arrivals(), 2**63, 1, 30, 1, MetricKind.ARRIVALS, 60)
        # span_tps needs no offset of an event before the start.
        assert span_tps(late, 2**63, 30) == 0

    def test_negative_start_prepends_empty_periods(self):
        events = _arrivals(0, 61 * US_PER_SECOND)
        start = -2 * 60 * US_PER_SECOND
        assert span_tps(events, start, 1) == 4
        observations = aggregate_span(events, start, 4, 1, 4, MetricKind.ARRIVALS, 60)
        assert [o.samples for o in observations] == [[0], [0], [1], [1]]

    @given(data=st.data())
    def test_span_equals_per_period_reference(self, data):
        tp_minutes = data.draw(st.sampled_from([1, 2, 5]))
        sub_bin_seconds = data.draw(
            st.sampled_from([s for s in (10, 15, 20, 30, 60) if tp_minutes * 60 % s == 0])
        )
        num_tps = data.draw(st.integers(1, 5))
        pp_tps = data.draw(st.integers(1, 4))
        start_us = data.draw(st.integers(0, 10**9))
        tp_us = tp_minutes * 60 * US_PER_SECOND
        # Unsorted, with events before the span and past its end.
        n = data.draw(st.integers(0, 60))
        timestamps = data.draw(st.lists(
            st.integers(max(0, start_us - tp_us), start_us + (num_tps + 1) * tp_us), min_size=n, max_size=n
        ))
        # Multiples of 1/8 make rounding ties at small scales.
        amount = st.one_of(st.floats(0.0, 50.0), st.integers(0, 400).map(lambda v: v / 8))
        amounts = st.lists(amount, min_size=n, max_size=n)
        cpu, mem = data.draw(amounts), data.draw(amounts)
        scale = data.draw(st.sampled_from([1.0, 0.25, 0.37, 100.0, 1e4]))
        events = Events(timestamps, cpu, mem)
        for metric, values in ((MetricKind.ARRIVALS, None), (MetricKind.CPU, cpu), (MetricKind.MEMORY, mem)):
            observations = aggregate_span(
                events, start_us, num_tps, tp_minutes, pp_tps, metric, sub_bin_seconds, scale
            )
            expected = oracles.aggregate_per_period(
                timestamps, values, start_us, num_tps, tp_us, sub_bin_seconds * US_PER_SECOND, scale
            )
            assert [o.samples for o in observations] == expected
            assert [(o.tp_index, o.cycle_index) for o in observations] == [
                (i % pp_tps + 1, i // pp_tps + 1) for i in range(num_tps)
            ]
            assert all(o.metric is metric and o.sub_bin_seconds == sub_bin_seconds for o in observations)
            assert (observations.metric, observations.sub_bin_seconds, observations.scale) == (
                metric, sub_bin_seconds, scale
            )


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        observations = [
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [0, 3, 1], 60),
            PeriodObservation(2, 1, MetricKind.ARRIVALS, [5, 5, 5], 60),
        ]
        path = tmp_path / "obs.csv"
        write_observations(path, Observations.of(observations, scale=2.5))
        got = read_observations(path)
        assert list(got) == observations
        assert (got.metric, got.sub_bin_seconds, got.scale) == (MetricKind.ARRIVALS, 60, 2.5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, np.float64(100.0)])
    def test_writer_refuses_a_scale_the_reader_refuses(self, tmp_path, scale):
        # No stream holds a scale the reader refuses, so none reaches the writer.
        path = tmp_path / "obs.csv"
        periods = [PeriodObservation(1, 1, MetricKind.CPU, [1], 60)]
        if not (math.isfinite(scale) and scale > 0):
            with pytest.raises(ValueError, match="scale must be a finite positive number"):
                Observations.of(periods, scale=scale)
            return
        # A numpy float would print as np.float64(100.0), which reads back as no
        # number: the stream holds it as a float, and the file reads back.
        write_observations(path, Observations.of(periods, scale=scale))
        assert "1,1,cpu,60,100.0,1" in path.read_text()
        assert read_observations(path).scale == 100.0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60),
        periods=st.integers(0, 12),
        metric=st.sampled_from(list(MetricKind)),
        width=st.integers(1, 3600),
        scale=st.floats(min_value=5e-324, allow_infinity=False),
        data=st.data(),
    )
    def test_rectangular_streams_round_trip(self, tmp_path_factory, n, periods, metric, width, scale, data):
        samples = data.draw(st.lists(
            st.lists(st.one_of(st.integers(0, 60), st.integers(0, 2**63 - 1)), min_size=n, max_size=n),
            min_size=periods, max_size=periods,
        ))
        tp = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=periods, max_size=periods))
        cycle = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=periods, max_size=periods))
        obs = Observations(tp, cycle, np.array(samples, dtype=np.int64).reshape(periods, n), metric, width, scale)
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        write_observations(path, obs)
        got = read_observations(path)
        for name in ("tp_index", "cycle_index", "samples"):
            column = getattr(got, name)
            assert column.dtype == np.int64 and column.tolist() == getattr(obs, name).tolist(), name
        # A file of no records carries no units, as a stream of no periods may.
        assert got._units == (obs._units if periods else (None, None, None, None))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_observations(path)

    def test_row_errors_name_the_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
            "1,1,arrivals,60,100.0,1 2\n"
            "2,1,arrivals,60,100.0,\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            read_observations(path)

    def test_trace_round_trip(self, tmp_path):
        events = Events([5, 9, 60 * US_PER_SECOND], [0.5, 1.5, 0.1], [0.25, 0.125, 0.3])
        path = tmp_path / "trace.csv"
        write_trace(path, events, tp_minutes=1)
        assert path.read_text().splitlines()[1:] == [
            "5,j1,j1,0.5,0.25", "9,j1,j1,1.5,0.125", "60000000,j2,j2,0.1,0.3",
        ]
        res = parse_trace(path, ColumnMapping(has_header=True))
        assert _columns(res.events) == _columns(events)
        assert res.rejected == 0

    def test_every_row_written_in_order(self, tmp_path):
        # Enough events to span several of the writer's conversion blocks.
        ts = np.arange(25_000, dtype=np.int64) * 7_000_001
        cpu, mem = np.arange(25_000) / 3.0, np.arange(25_000) / 7.0 + 0.1
        path = tmp_path / "trace.csv"
        write_trace(path, Events(ts, cpu, mem), tp_minutes=1)
        tps = (ts // (60 * US_PER_SECOND) + 1).tolist()
        assert path.read_text().splitlines()[1:] == [
            f"{t},j{tp},j{tp},{c!r},{m!r}" for t, tp, c, m in zip(ts.tolist(), tps, cpu.tolist(), mem.tolist())
        ]


# Every kind of float the writer can print: signed zeros, subnormals, the
# extremes, infinities and NaNs with both signs and several payloads.
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64)
_PRINTED_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, -1.5, 1e16, 1.7976931348623157e308,
    float("inf"), float("-inf"), *_NANS.view(np.float64),
]
# Values that are equal, or all NaN, yet differ in their bits.
_LOOKALIKES = [[0.0, -0.0], list(_NANS.view(np.float64)), [5e-324, -5e-324, 0.0]]
_STAMPS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]))


@st.composite
def _written_events(draw):
    """Events in runs of shared cpu and memory bits, drawn from a small pool so
    that unequal bits with equal values (0.0 and -0.0, two NaNs) meet."""
    pool = draw(st.one_of(st.sampled_from(_LOOKALIKES), st.lists(st.sampled_from(_PRINTED_FLOATS), min_size=1, max_size=3)))
    value = st.sampled_from(pool)
    length = st.one_of(st.integers(1, 40), st.integers(trace._WRITE_BLOCK - 40, trace._WRITE_BLOCK + 40))
    runs = draw(st.lists(st.tuples(value, value, length), max_size=5))
    lengths = [n for _, _, n in runs]
    cpu = np.repeat([c for c, _, _ in runs], lengths)
    mem = np.repeat([m for _, m, _ in runs], lengths)
    # Stamps step by a run-wide stride from a drawn start (wrapping in int64),
    # so periods change within runs, across them, or not at all.
    stamps = [
        np.int64(draw(_STAMPS)) + np.arange(n, dtype=np.int64) * np.int64(draw(st.sampled_from([0, 1, 7_000_001, 2**40])))
        for n in lengths
    ]
    ts = np.concatenate(stamps) if stamps else np.zeros(0, dtype=np.int64)
    return Events(ts, cpu, mem)


class TestWriters:
    """The run-length writers against the row-at-a-time references, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(events=_written_events(), tp_minutes=st.sampled_from([1, 7, 30, 1440]))
    def test_trace_equals_per_row_reference(self, tmp_path_factory, events, tp_minutes):
        out = tmp_path_factory.mktemp("trace")
        write_trace(out / "new.csv", events, tp_minutes)
        oracles.write_trace_rows(out / "ref.csv", events, tp_minutes)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "tp_minutes, message",
        [(0, "at least one minute"), (-1, "at least one minute"), (2**57, "not below 2\\*\\*63us")],
        ids=["zero", "negative", "past-int64"],
    )
    def test_refused_period_raises_before_writing(self, tmp_path, tp_minutes, message):
        with pytest.raises(ValueError, match=message):
            write_trace(tmp_path / "trace.csv", _arrivals(1), tp_minutes)
        assert not (tmp_path / "trace.csv").exists()

    def test_equal_values_with_unequal_bits_split_runs(self, tmp_path):
        nan_a, nan_b = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
        cpu = [0.0, -0.0, 0.0, 5e-324, -5e-324, nan_a, nan_b, nan_a, 0.0]
        events = Events(np.arange(len(cpu)), cpu, [-0.0] * len(cpu))
        write_trace(tmp_path / "trace.csv", events, tp_minutes=1)
        assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
            "0,j1,j1,0.0,-0.0", "1,j1,j1,-0.0,-0.0", "2,j1,j1,0.0,-0.0", "3,j1,j1,5e-324,-0.0",
            "4,j1,j1,-5e-324,-0.0", "5,j1,j1,nan,-0.0", "6,j1,j1,nan,-0.0", "7,j1,j1,nan,-0.0", "8,j1,j1,0.0,-0.0",
        ]

    def test_memory_bits_alone_split_runs(self, tmp_path):
        # Same period and cpu throughout: only the memory column's bits split the runs.
        nan_a, nan_b = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
        mem = [0.0, -0.0, -0.0, 0.0, nan_a, nan_b, 0.0]
        events = Events(np.arange(len(mem)), [0.5] * len(mem), mem)
        write_trace(tmp_path / "trace.csv", events, tp_minutes=1)
        assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
            "0,j1,j1,0.5,0.0", "1,j1,j1,0.5,-0.0", "2,j1,j1,0.5,-0.0", "3,j1,j1,0.5,0.0",
            "4,j1,j1,0.5,nan", "5,j1,j1,0.5,nan", "6,j1,j1,0.5,0.0",
        ]

    def test_runs_across_block_boundaries(self, tmp_path):
        # One run over three blocks, then runs that end just before, at and after a boundary.
        block = trace._WRITE_BLOCK
        cpu = np.full(5 * block, 0.5)
        cpu[3 * block - 1] = cpu[4 * block] = cpu[4 * block + 1] = 0.25
        events = Events(np.arange(5 * block) * 1_000_000, cpu, np.full(5 * block, 0.125))
        write_trace(tmp_path / "new.csv", events, tp_minutes=60)
        oracles.write_trace_rows(tmp_path / "ref.csv", events, tp_minutes=60)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(
        # Up to 6 periods, each of one drawn number of samples.
        periods=st.integers(1, 30).flatmap(lambda n: st.lists(
            st.tuples(
                st.integers(1, 10**6),
                st.integers(1, 10**6),
                st.lists(st.one_of(st.integers(0, 50), st.integers(0, 2**70)), min_size=n, max_size=n),
            ),
            max_size=6,
        )),
        metric=st.sampled_from(list(MetricKind)),
        width=st.integers(1, 3600),
        scale=st.floats(min_value=5e-324, allow_infinity=False),
    )
    def test_observations_equal_per_sample_reference(self, tmp_path_factory, periods, metric, width, scale):
        # One unit set per file.
        observations = [PeriodObservation(tp, cycle, metric, samples, width) for tp, cycle, samples in periods]
        out = tmp_path_factory.mktemp("obs")
        if any(s >= 2**63 for p in periods for s in p[2]):
            # Observations hold int64 samples: a larger one is refused.
            with pytest.raises(ValueError, match="below 2\\*\\*63"):
                Observations.of(observations)
            return
        write_observations(out / "new.csv", Observations.of(observations, scale=scale))
        oracles.write_observations_per_sample(out / "ref.csv", observations, scale)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_many_periods_of_every_width_equal_per_sample_reference(self, tmp_path):
        rng = random.Random(13)
        widths = itertools.cycle(range(1, 20))
        # One file per metric, each in one sub-bin width and number of samples.
        for metric, sub_bin_seconds, n in zip(MetricKind, (1, 60, 3600), (1, 17, 40)):
            observations = [
                PeriodObservation(
                    i % 48 + 1, i // 48 + 1, metric,
                    [rng.randrange(10 ** (d - 1) if d > 1 else 0, min(10**d, 2**63))
                     for d in itertools.islice(widths, n)],
                    sub_bin_seconds,
                )
                for i in range(1100)
            ]
            assert {len(str(s)) for p in observations for s in p.samples} == set(range(1, 20))
            write_observations(tmp_path / "new.csv", Observations.of(observations, scale=0.1))
            oracles.write_observations_per_sample(tmp_path / "ref.csv", observations, 0.1)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# The ends of every decimal width: 0, ±(10**k - 1) and ±10**k for k = 1..18, and the int64 extremes.
_EDGE_INTS = [0, -(2**63), 2**63 - 1, *(s * (10**k + d) for k in range(1, 19) for d in (-1, 0) for s in (1, -1))]
# A nonnegative int64 of d decimal digits, d drawn from 1..19.
_WIDE_INTS = st.integers(1, 19).flatmap(lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, min(10**d, 2**63) - 1))
_INT64S = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from(_EDGE_INTS), _WIDE_INTS, _WIDE_INTS.map(lambda v: -v - 1)
)


class TestDecimal:
    """The writers' integer-to-text kernel against ``str``."""

    @staticmethod
    def _spaced(values) -> str:
        return trace._decimal(np.array(values, dtype=np.int64), trace._words([" "])[0]).decode("ascii")

    @settings(max_examples=300)
    @given(values=st.lists(_INT64S, max_size=60), negative=st.booleans())
    def test_text_equals_str(self, values, negative):
        if negative:  # all negative: 0..2**63-1 maps onto -1..-(2**63)
            values = [v if v < 0 else -v - 1 for v in values]
        assert self._spaced(values) == " ".join(map(str, values)) + " " * bool(values)

    def test_every_width_and_extreme_in_one_array(self):
        for values in (_EDGE_INTS, [v for v in _EDGE_INTS if v < 0], [], [0], [7, -(2**63), 0, 10**18]):
            assert self._spaced(values) == " ".join(map(str, values)) + " " * bool(values)

    @given(
        rows=st.lists(
            st.tuples(_INT64S, st.text(st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=9)),
            min_size=1, max_size=30,
        )
    )
    def test_each_value_takes_its_own_row_of_after(self, rows):
        values, texts = zip(*rows)
        text = trace._decimal(np.array(values, dtype=np.int64), trace._words(texts))
        assert text.decode("ascii") == "".join(f"{v}{t}" for v, t in rows)


class TestObservationType:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [], 60)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [3, -8, 1], 60)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(0, 1, MetricKind.ARRIVALS, [1], 60)


def _periods(metric=MetricKind.CPU, sub_bin_seconds=30, samples=4):
    """Four periods in one set of units, each of ``samples`` samples."""
    rows = [[0, 3, 1, 5], [5, 0, 0, 2], [7, 2**62, 0, 4], [1, 1, 2, 0]]
    return [
        PeriodObservation(tp, cycle, metric, (row * samples)[:samples], sub_bin_seconds)
        for (tp, cycle), row in zip([(1, 1), (2, 1), (1, 2), (2, 2)], rows)
    ]


class TestObservationColumns:
    def test_columns_of_periods(self):
        obs = Observations.of(_periods())
        assert len(obs) == 4
        assert obs.tp_index.tolist() == [1, 2, 1, 2] and obs.cycle_index.tolist() == [1, 1, 2, 2]
        assert obs.samples.dtype == np.int64 and obs.samples.shape == (4, 4)
        assert obs.samples.tolist() == [[0, 3, 1, 5], [5, 0, 0, 2], [7, 2**62, 0, 4], [1, 1, 2, 0]]
        assert (obs.metric, obs.sub_bin_seconds, obs.scale) == (MetricKind.CPU, 30, 100.0)
        assert Observations.of(obs) is obs

    def test_indexing_gives_periods(self):
        periods = _periods()
        obs = Observations.of(periods)
        assert list(obs) == periods and obs[-1] == periods[-1] and obs[np.int64(1)] == periods[1]
        for index in (slice(1, 3), slice(-3, None), slice(None, 10), slice(0, 0), slice(3, 1), slice(1, None, 1)):
            part = obs[index]
            assert isinstance(part, Observations)
            assert list(part) == periods[index]
            assert part._units == obs._units and np.shares_memory(part.samples, obs.samples) == bool(len(part))
        for index in (4, -5):
            with pytest.raises(IndexError):
                obs[index]
        for index in (slice(None, None, -2), [3, 0], obs.tp_index == 1, 1.0):
            with pytest.raises(TypeError):
                obs[index]

    def test_concat(self):
        periods = _periods()
        obs = Observations.of(periods)
        assert list(Observations.concat([obs[:1], obs[1:1], obs[1:]])) == periods
        # A part with no periods, with units or without, takes on those of the rest.
        empty = Observations.of([])
        for parts in ([empty, obs], [Observations.of(_periods(MetricKind.MEMORY))[:0], obs, empty]):
            joined = Observations.concat(parts)
            assert list(joined) == periods and (joined.metric, joined.scale) == (MetricKind.CPU, 100.0)

    def test_empty(self):
        obs = Observations.of([])
        assert len(obs) == 0 and obs.samples.dtype == np.int64 and list(obs) == []
        assert obs._units == (None, None, None, None)

    @pytest.mark.parametrize(
        "i, change, units",
        [
            (2, dict(metric=MetricKind.MEMORY), "metric 'memory' with 30s sub-bins, 4"),
            (1, dict(sub_bin_seconds=60), "metric 'cpu' with 60s sub-bins, 4"),
            (3, dict(samples=[1, 1, 2]), "metric 'cpu' with 30s sub-bins, 3"),
            (1, dict(samples=[5, 0, 0, 2, 9]), "metric 'cpu' with 30s sub-bins, 5"),
        ],
    )
    def test_of_refuses_periods_in_other_units(self, i, change, units):
        periods = _periods()
        periods[i] = p = dataclasses.replace(periods[i], **change)
        message = (
            f"period {i} (tp_index={p.tp_index}, cycle_index={p.cycle_index}) carries {units} per period, "
            "but period 0 carries metric 'cpu' with 30s sub-bins, 4 per period"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Observations.of(periods)

    def test_concat_refuses_parts_in_other_units(self):
        obs = Observations.of(_periods())
        for other in (Observations.of(_periods(MetricKind.ARRIVALS)), Observations.of(_periods(sub_bin_seconds=60)),
                      Observations.of(_periods(), scale=1e4), Observations.of(_periods(samples=3)),
                      Observations.of(_periods(samples=5))):
            with pytest.raises(ValueError, match="follows one in metric"):
                Observations.concat([obs, other])
            with pytest.raises(ValueError, match="follows one in metric"):
                Observations.concat([other[:1], obs[:0], obs])

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(samples=[[0, 3], [1, 5], [7, 2**63], [4, 1]]), "below 2\\*\\*63"),
            (dict(samples=[[0, 3], [1, 5], [7, 2.5], [4, 1]]), "below 2\\*\\*63"),
            (dict(samples=[[0, 3], [1, 5], [7, -1], [4, 1]]), "negative"),
            (dict(samples=[[0, 3], [1, 5], [7, 1]]), "one row per period"),
            (dict(samples=[0, 3, 1, 5]), "one row per period"),
            (dict(samples=np.zeros((4, 0))), "at least one sample"),
            (dict(tp_index=[1, 0, 1, 2]), "1-based"),
            (dict(cycle_index=[1, 1, -2, 2]), "1-based"),
            (dict(sub_bin_seconds=0), "1 second"),
            (dict(sub_bin_seconds=2.5), "below 2\\*\\*63"),
            (dict(metric="cpu"), "MetricKind"),
            (dict(metric=None), "MetricKind"),
            (dict(scale=0.0), "scale must be a finite positive number"),
            (dict(scale=math.nan), "scale must be a finite positive number"),
            (dict(scale=None), "scale must be a finite positive number"),
            (dict(tp_index=[1, 2, 1]), "equal lengths"),
        ],
    )
    def test_invariants(self, change, message):
        obs = Observations.of(_periods())
        fields = ("tp_index", "cycle_index", "samples", "metric", "sub_bin_seconds", "scale")
        columns = {name: getattr(obs, name) for name in fields}
        with pytest.raises(ValueError, match=message):
            Observations(**(columns | change))
        # A stream with no periods may carry no units, but not some of them.
        empty = dict(tp_index=[], cycle_index=[], samples=np.zeros((0, 0)))
        assert len(Observations(**empty, metric=None, sub_bin_seconds=None, scale=None)) == 0
        with pytest.raises(ValueError):
            Observations(**empty, metric=None, sub_bin_seconds=60, scale=100.0)
        # A stream with units has at least one sub-bin a period, with periods or without.
        with pytest.raises(ValueError, match="at least one sample"):
            Observations(**empty, metric=MetricKind.CPU, sub_bin_seconds=60, scale=100.0)
        no_periods = Observations([], [], np.zeros((0, 3)), MetricKind.CPU, 60, 100.0)
        assert no_periods._units == (MetricKind.CPU, 60, 3, 100.0)


_HEADER = "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"


class TestObservationReader:
    @pytest.mark.parametrize(
        "row",
        [
            "2,1,arrivals,0,100.0,1 2",
            "2,1,arrivals,-60,100.0,1 2",
            "2,1,arrivals,60,nonsense,1 2",
            "2,1,arrivals,60,nan,1 2",
            "2,1,arrivals,60,-inf,1 2",
            "2,1,arrivals,60,0.0,1 2",
            "2,1,arrivals,60,-1.5,1 2",
            "2,1,arrivals,60,100.0,1 9223372036854775808",
            "9223372036854775808,1,arrivals,60,100.0,1 2",
            "2,1,arrivals,60,100.0,1 -2",
            "2,1,arrivals,60,100.0,",
        ],
    )
    def test_bad_row_names_the_line(self, tmp_path, row):
        path = tmp_path / "obs.csv"
        path.write_text(_HEADER + "1,1,arrivals,60,100.0,1 2\n" + row + "\n3,1,arrivals,60,100.0,4\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            read_observations(path)

    def test_plain_file_is_read_in_bulk(self, tmp_path, monkeypatch):
        events, _ = generate(SyntheticSpec(pp_tps=12, tps=30, base_rate=3.0, seed=5))
        path = tmp_path / "obs.csv"
        for metric in MetricKind:
            obs = aggregate_span(events, 0, 30, 30, 12, metric, 60, 100.0)
            write_observations(path, obs)
            monkeypatch.setattr(trace, "_read_records", None)  # the per-line reader must not run
            got = read_observations(path)
            monkeypatch.undo()
            assert list(got) == list(obs) == oracles.read_observations(path)

    def test_tokens_only_int_reads_go_through_int(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(
            _HEADER.encode()
            + "+1,1_0,arrivals,60,100.0,+5 1_0 \u0663 007\t0000000000000000000001\r\n\r\n".encode()
            + " 2 , 01,arrivals, 6_0,1e2,4  4 \x1c 0 +6 12\r".encode()
            + "3,1,arrivals,60,100.0,9223372036854775807 0 0 0 0\n\n".encode()
        )
        got = read_observations(path)
        assert list(got) == oracles.read_observations(path)
        assert got.samples.tolist() == [[5, 10, 3, 7, 1], [4, 4, 0, 6, 12], [2**63 - 1, 0, 0, 0, 0]]
        # 6_0 and 60, 1e2 and 100.0: the units are compared as numbers, not as text.
        assert got.tp_index.tolist() == [1, 2, 3] and (got.sub_bin_seconds, got.scale) == (60, 100.0)

    @pytest.mark.parametrize(
        "row, units",
        [
            ("2,1,cpu,60,100.0,3 4", "metric 'cpu' with 60s sub-bins, 2 per period, at scale 100.0"),
            ("2,1,arrivals,30,100.0,3 4", "metric 'arrivals' with 30s sub-bins, 2 per period, at scale 100.0"),
            ("2,1,arrivals,60,10000.0,3 4", "metric 'arrivals' with 60s sub-bins, 2 per period, at scale 10000.0"),
            ("2,1,arrivals,60,100.0,3", "metric 'arrivals' with 60s sub-bins, 1 per period, at scale 100.0"),
            ("2,1,arrivals,60,100.0,3 4 0", "metric 'arrivals' with 60s sub-bins, 3 per period, at scale 100.0"),
        ],
    )
    def test_lines_in_other_units_name_the_line(self, tmp_path, row, units):
        path = tmp_path / "obs.csv"
        path.write_text(_HEADER + "1,1,arrivals,60,100.0,1 2\n" + row + "\n3,1,arrivals,60,100.0,5 6\n")
        with pytest.raises(ValueError) as err:
            read_observations(path)
        assert str(err.value) == (
            f"{path}:3: {units}, but the file began with metric 'arrivals' with 60s sub-bins, 2 per period, "
            "at scale 100.0"
        )

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_columns_equal_per_line_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        clean = data.draw(st.booleans())
        text = data.draw(_observation_files(clean))
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trace, "_read_records", wraps=trace._read_records) as per_line:
            try:
                got = read_observations(path)
            except ValueError as exc:
                got = exc
        kind, expected = _strict_reference(path)
        event(f"{kind}, clean={clean}, per-line={per_line.called}")
        if kind == "periods":
            assert not isinstance(got, ValueError), got
            assert list(got) == expected
            assert got.samples.dtype == np.int64
        elif kind == "error":
            assert isinstance(got, ValueError) and str(got) == expected
        else:  # a line the old reader took that a new rule refuses
            assert isinstance(got, ValueError) and str(got).startswith(f"{path}:{expected}: "), got
        if clean:
            assert not per_line.called


# Integer fields: plain ones, and what int() reads but the bulk reader leaves to it
# (signs, underscores, other digits, spaces, leading zeros, 19+ digits), and what neither reads.
_PLAIN_INT = st.integers(0, 40).map(str)
_ODD_INTS = [
    "+5", "1_0", "-3", " 4", "4 ", "٣", "１２", "007", "0", "9223372036854775807",
    "9223372036854775808", "99999999999999999999", "0000000000000000000001", "", "x", "1.0", " 5",
]
_METRIC_TEXTS = ["arrivals", "cpu", "memory", "Arrivals", " cpu", "", "bytes"]
_SCALES = ["100.0", "1e-3", "5e-324", "0.37", "1_0.5", " 2.5", "nonsense", "nan", "inf", "-inf", "0", "-1", ""]


@st.composite
def _observation_files(draw, clean):
    """Observation file texts; ``clean`` ones hold only records the bulk reader takes.

    A file draws one metric, width and scale text and a number of samples;
    the records of a clean one all carry them, and most records of another do.
    """
    if clean:
        integer = _PLAIN_INT
        positive = st.integers(1, 40).map(str)
        metric = st.sampled_from(["arrivals", "cpu", "memory"])
        scale = st.sampled_from(_SCALES[:4])
        sep = st.just(" ")
        blank = st.sampled_from(["", "   ", "\t"])
        ending = st.sampled_from(["\n"])
    else:
        # Mostly fields that both readers take, so that many files read to the end.
        integer = st.one_of(_PLAIN_INT, _PLAIN_INT, _PLAIN_INT, st.sampled_from(_ODD_INTS))
        positive = st.one_of(*[st.integers(1, 40).map(str)] * 3, st.sampled_from(_ODD_INTS + ["-60"]))
        metric = st.one_of(*[st.sampled_from(_METRIC_TEXTS[:3])] * 3, st.sampled_from(_METRIC_TEXTS))
        scale = st.one_of(*[st.sampled_from(_SCALES[:4])] * 3, st.sampled_from(_SCALES))
        sep = st.sampled_from([" ", " ", " ", "  ", "\t", " 　 "])
        blank = st.sampled_from(["", "   ", "\t", "\x1c", " "])
        ending = st.sampled_from(["\n", "\r\n", "\r"])
    units = draw(st.tuples(metric, positive, scale))
    n = draw(st.integers(1, 6))  # samples per record
    samples = st.lists(integer, min_size=n, max_size=n)
    record = st.builds(
        lambda tp, cycle, units, samples, s, extra: ",".join([tp, cycle, *units, s.join(samples)] + extra),
        positive, positive,
        st.just(units) if clean else st.one_of(*[st.just(units)] * 3, st.tuples(metric, positive, scale)),
        samples if clean else st.one_of(*[samples] * 3, st.lists(integer, min_size=1, max_size=6)), sep,
        st.just([]) if clean else st.sampled_from([[], [], [], ["1"]]),
    )
    lines = draw(st.lists(st.one_of(record, record, record, blank), max_size=8))
    if not clean and draw(st.booleans()) and lines:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(record).rsplit(",", 1)[0]  # five fields
    header = _HEADER if clean or draw(st.integers(0, 9)) else "a,b\n"
    body = "".join(line + draw(ending) for line in lines)
    return header + (body[:-1] if body and draw(st.booleans()) else body)


def _strict_reference(path):
    """What the reader must give: ("periods", list), ("error", message) or ("line", lineno).

    The old line reader's result, with the rules it lacked applied to every
    line it read before its first error: sub-bins of at least 1 second, a
    finite positive scale, indices and samples below 2**63, and every line
    in the first record's metric, width, number of samples and scale.
    """
    try:
        expected, failed = oracles.read_observations(path), None
    except ValueError as exc:
        match = re.match(f"^{re.escape(str(path))}:(\\d+): ", str(exc))
        if match is None:
            return "error", str(exc)
        expected, failed = str(exc), int(match[1])
    with open(path, "r", encoding="utf-8", newline="") as fh:
        fh.readline()
        first = None  # the first record's units
        for lineno, line in enumerate(fh, start=2):
            if failed is not None and lineno >= failed:
                break
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            try:
                scale = float(parts[4])
            except ValueError:
                scale = math.nan
            numbers = [int(parts[0]), int(parts[1]), int(parts[3]), *map(int, parts[5].split())]
            if int(parts[3]) < 1 or not (math.isfinite(scale) and scale > 0) or max(numbers) >= 2**63:
                return "line", lineno
            units = (MetricKind(parts[2]), int(parts[3]), len(parts[5].split()), scale)
            first = first or units
            if units != first:
                return "line", lineno
    return ("periods" if failed is None else "error"), expected


class TestAggregateReference:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_span_equals_old_aggregation(self, data):
        tp_minutes = data.draw(st.sampled_from([1, 2, 30]))
        sub_bin_seconds = data.draw(st.sampled_from([s for s in (1, 15, 60) if tp_minutes * 60 % s == 0]))
        num_tps = data.draw(st.integers(1, 5))
        pp_tps = data.draw(st.integers(1, 4))
        start_us = data.draw(st.integers(0, 10**9))
        tp_us = tp_minutes * 60 * US_PER_SECOND
        n = data.draw(st.integers(0, 40))
        timestamps = data.draw(st.lists(
            st.integers(max(0, start_us - tp_us), start_us + (num_tps + 1) * tp_us), min_size=n, max_size=n
        ))
        # Amounts and scales whose rounded products reach 2**63, and non-finite amounts.
        amount = st.one_of(
            st.floats(0.0, 50.0), st.integers(0, 400).map(lambda v: v / 8),
            st.sampled_from([1e17, 9.3e18, 1e300, math.inf, math.nan]),
        )
        amounts = st.lists(amount, min_size=n, max_size=n)
        events = Events(timestamps, data.draw(amounts), data.draw(amounts))
        scale = data.draw(st.sampled_from([1.0, 0.25, 0.37, 100.0, 1e4, 1e17, 5e-324]))
        for metric in MetricKind:
            args = (events, start_us, num_tps, tp_minutes, pp_tps, metric, sub_bin_seconds, scale)
            try:
                expected = oracles.aggregate_span(*args)
            except (ValueError, OverflowError):
                expected = None
            if expected is None or max(max(o.samples) for o in expected) >= 2**63:
                with pytest.raises(ValueError):
                    aggregate_span(*args)
                continue
            got = aggregate_span(*args)
            assert isinstance(got, Observations) and got.samples.dtype == np.int64
            assert list(got) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_block_size_gives_the_same_span(self, data):
        # Up to 40 events in at most 12 sub-bins of 15 s, and blocks of 1 to
        # 7 events: most sub-bins hold events of more than one block.
        block = data.draw(st.integers(1, 7))
        num_tps = data.draw(st.integers(1, 3))
        pp_tps = data.draw(st.integers(1, 4))
        start_us = data.draw(st.integers(-(10**9), 10**9))
        sub_bin_us = 15 * US_PER_SECOND
        n = data.draw(st.integers(0, 40))
        # Events before the span, in it and past its end; sorted or not.
        timestamps = data.draw(st.lists(
            st.integers(start_us - sub_bin_us, start_us + (4 * num_tps + 1) * sub_bin_us), min_size=n, max_size=n
        ))
        if data.draw(st.booleans()):
            timestamps.sort()
        amount = st.one_of(
            st.floats(0.0, 50.0), st.integers(0, 400).map(lambda v: v / 8), st.sampled_from([1e300, math.nan])
        )
        amounts = st.lists(amount, min_size=n, max_size=n)
        events = Events(timestamps, data.draw(amounts), data.draw(amounts))
        scale = data.draw(st.sampled_from([1.0, 0.37, 100.0]))
        with mock.patch.object(trace, "_EVENT_BLOCK", block):
            for metric in MetricKind:
                args = (events, start_us, num_tps, 1, pp_tps, metric, 15, scale)
                try:
                    expected = oracles.aggregate_span(*args)
                except (ValueError, OverflowError):
                    expected = None
                if expected is None or max(max(o.samples) for o in expected) >= 2**63:
                    with pytest.raises(ValueError):
                        aggregate_span(*args)
                    continue
                assert list(aggregate_span(*args)) == expected

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected_for_every_metric(self, scale):
        for metric in MetricKind:
            with pytest.raises(ValueError, match="scale must be a finite positive number"):
                _one_period(Events([0], [0.5], [0.5]), metric, scale=scale)

    def test_count_beyond_int64_rejected(self):
        events = Events([0, 1], [0.5, 1e18], [0.0, 0.0])
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            _one_period(events, MetricKind.CPU, scale=10.0)

    def test_count_beyond_int64_prints_the_sum_as_a_number(self):
        events = Events([0, 60 * US_PER_SECOND], [1.0, 1e17], [0.5, 0.5])
        message = "scaled cpu sum 1e+19 of period 1 is not a count below 2**63"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate_span(events, 0, 1, 30, 24, MetricKind.CPU, 60, 100.0)


def _traced_peak(call) -> int:
    """The most bytes that ``call()`` held at once, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_span_and_arrivals_do_not_grow_with_the_events(self):
        # The same 48 periods, with 250k and then 2M events in them.
        span_us = 48 * 30 * 60 * US_PER_SECOND
        peaks = []
        for n in (250_000, 2_000_000):
            zero = np.broadcast_to(0.0, n)  # arrivals read no request column
            events = Events(np.arange(n, dtype=np.int64) * (span_us // n), zero, zero)
            peaks.append((
                _traced_peak(lambda: aggregate_span(events, 0, 48, 30, 336, MetricKind.ARRIVALS)),
                _traced_peak(lambda: span_tps(events, 0, 30)),
            ))
        (aggregate_small, span_small), (aggregate_big, span_big) = peaks
        assert aggregate_big <= aggregate_small + 16 * 1024, peaks
        assert span_big <= span_small + 16 * 1024, peaks

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_span_past_the_limit_is_refused_before_allocating(self, metric):
        # The Google schema's "after the trace" timestamp: 5.1e9 periods of
        # 30 one-minute sub-bins, whose totals alone would take 1.12 TiB.
        events = Events([0, 2**63 - 1], [0.01, 0.01], [0.005, 0.005])
        num_tps = span_tps(events, 0, 30)
        message = f"{num_tps} periods of 30 sub-bins are {30 * num_tps} sub-bins, more than the 2147483648 "

        def call():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                aggregate_span(events, 0, num_tps, 30, 24, metric)

        assert _traced_peak(call) < 64 * 1024

    def test_one_reject_copies_no_column(self, tmp_path, monkeypatch):
        # 150,000 rows, then the same behind one row of negative cpu: the
        # reject moves the rows after it up within the table, a block at a time.
        monkeypatch.setattr(trace, "_EVENT_BLOCK", 4096)
        n = 150_000
        rows = "".join(f"{i * 1000},j1,j1,{i % 7 / 8},{i % 5 / 4}\n" for i in range(n))
        header = "timestamp,job_id,task_id,cpu_request,mem_request\n"
        clean, rejected = tmp_path / "clean.csv", tmp_path / "rejected.csv"
        clean.write_text(header + rows)
        rejected.write_text(header + "5,j1,j1,-1.0,0.5\n" + rows)
        mapping = ColumnMapping(has_header=True)
        peaks = [_traced_peak(lambda: parse_trace(path, mapping)) for path in (clean, rejected)]
        # Within one block's kept records (24 bytes each) and its masks of the
        # clean parse; a copy of the three columns would add 3.6 MB.
        assert peaks[1] <= peaks[0] + 4096 * (24 + 8) + 16 * 1024, peaks
        res, ref = parse_trace(rejected, mapping), parse_trace(clean, mapping)
        assert res.rejected == 1 and ref.rejected == 0
        for column in ("timestamp", "cpu", "mem"):
            assert getattr(res.events, column).tobytes() == getattr(ref.events, column).tobytes()

    def test_span_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(trace, "_MAX_SPAN_SUB_BINS", 4 * 30)
        events = Events([0, 5 * 30 * 60 * US_PER_SECOND], [0.01, 0.01], [0.005, 0.005])
        assert len(aggregate_span(events, 0, 4, 30, 24, MetricKind.CPU)) == 4
        with pytest.raises(ValueError, match="^5 periods of 30 sub-bins are 150 sub-bins, more than the 120 "):
            aggregate_span(events, 0, 5, 30, 24, MetricKind.CPU)
