"""Trace ingestion: delimited-text task records to per-period count vectors.

A trace row carries an arrival timestamp (integer microseconds) plus the
task's CPU and memory requests. Each metric reads its own fields and has one
rule: arrivals count every row with a usable timestamp, and cpu or memory the
rows of those with a usable request in its column. Rejected rows are tallied
per metric and skipped, never fatal: real traces contain noise and the
reject counts keep a run auditable. A reader refuses a field it cannot read
(absent, a field that ``int`` or ``float`` refuses, a timestamp beyond
int64); ``_usable``, the one value rule, refuses a negative timestamp and a
request negative or not finite. A row whose timestamp is refused counts for
no metric; one whose request is refused still counts as an arrival.

A trace file is read in bulk by numpy's C reader when that provably gives
what the per-row ``csv`` reader gives; otherwise, and for streams and line
iterables, the per-row reader runs. ``_parse_bulk`` holds the conditions;
its pre-scan checks only the file's bytes, and both readers skip empty lines.

Both writers turn integers into text with one numpy kernel, ``_decimal``,
which builds every value's digits as 4-byte words from lookup tables and
makes no Python object per value. A trace is written a run at a time:
consecutive rows that share their period, cpu and memory bits share one
tail, formatted once in Python, and each row is its timestamp's digits
followed by its run's tail. Bit equality, not float equality, decides a
run, so the output is the same bytes as formatting every row on its own.

Aggregation slices a time window into fixed sub-bins and produces one
integer sample per sub-bin: event counts for the arrivals metric, scaled
rounded request sums for CPU/memory (rate fitting needs count data, so
continuous requests are multiplied by a recorded scale and rounded).
It bins a block of ``_EVENT_BLOCK`` events at a time, and so do the parse
checks, so beyond the events themselves neither holds an array that
grows with the trace.

Per-period samples travel as ``Observations``: a stream's units (metric,
sub-bins per period, sub-bin width, scale), held once, and columns of
period stamps plus a periods x sub-bins int64 matrix of samples.
Aggregation returns them, the observations writer formats all samples in
one kernel call and puts each period's fields in front of its line, and the
reader, which refuses a file in mixed units, parses a file's sample text
with one numpy call when every token is provably plain, else token by token
with ``int`` as before.
``PeriodObservation`` is the one-period form that the online forecasting
steps take; a sequence of them converts to columns with ``Observations.of``,
which is what the writer, ``run`` and ``sweep`` take.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
import operator
import os
from array import array
from collections.abc import Sequence as _Sequence
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

__all__ = [
    "MetricKind",
    "Events",
    "PeriodObservation",
    "Observations",
    "ColumnMapping",
    "ParseResult",
    "parse_trace",
    "aggregate_span",
    "write_observations",
    "read_observations",
    "write_trace",
]

US_PER_SECOND = 1_000_000
_WRITE_BLOCK = 8192  # events per block that write_trace formats at once; bounds its word arrays
# Events per block of synthetic placement, aggregation and the parse checks: their
# temporaries are a few arrays of this length, whatever the number of events.
_EVENT_BLOCK = 1 << 16
# The most sub-bins one span may hold: about 850 times the 29-day Google cluster
# trace at 1 s sub-bins. A longer span is refused before its totals are allocated.
_MAX_SPAN_SUB_BINS = 2**31
_SCAN_BLOCK = 1 << 20  # bytes per read of the bulk reader's pre-scan, which checks bytes only
_NEWLINE_STRETCH = 1 << 15  # keeps a plain line under 98,302 bytes, below csv's field limit
_UTF8_BOM = b"\xef\xbb\xbf"
# The suffixes that np.loadtxt decompresses a file by, given its name.
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")
# Bytes of a plain trace file: printable ASCII but the double quote, tab, newline.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"
_INT64_LIMIT = 2**63
_PLAIN_DIGITS = 18  # a token of at most 18 decimal digits is below 2**63
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")


class MetricKind(enum.Enum):
    ARRIVALS = "arrivals"
    CPU = "cpu"
    MEMORY = "memory"


# The Events column that each request metric reads.
_REQUESTS = {MetricKind.CPU: "cpu", MetricKind.MEMORY: "mem"}


@dataclass(frozen=True, eq=False)
class Events:
    """Task records as equal-length columns; ``len`` is the event count.

    ``timestamp`` holds arrival times in integer microseconds (int64),
    ``cpu`` and ``mem`` the tasks' resource requests (float64), or None
    for a request that the events do not carry: arrivals read neither.
    Inputs are converted to those dtypes on construction.
    """

    timestamp: np.ndarray
    cpu: np.ndarray | None = None
    mem: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamp", _int64(self.timestamp, "timestamp"))
        for name in _REQUESTS.values():
            if (values := getattr(self, name)) is not None:
                object.__setattr__(self, name, values := np.asarray(values, dtype=np.float64))
                if len(values) != len(self.timestamp):
                    raise ValueError("event columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.timestamp)


@dataclass(frozen=True)
class PeriodObservation:
    """The i.i.d. count samples extracted from one target period.

    ``tp_index`` is the period's 1-based position within the pattern period,
    ``cycle_index`` which repetition of the pattern it belongs to.
    """

    tp_index: int
    cycle_index: int
    metric: MetricKind
    samples: list[int]
    sub_bin_seconds: int

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a period observation needs at least one sample")
        if self.tp_index < 1 or self.cycle_index < 1:
            raise ValueError(
                f"indices are 1-based, got tp_index={self.tp_index}, cycle_index={self.cycle_index}"
            )
        if min(self.samples) < 0:
            raise ValueError(f"samples are counts and cannot be negative, got {min(self.samples)}")


def _int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; anything but integers below 2**63 raises ValueError."""
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "biu" or (a.dtype.kind == "u" and a.max() >= _INT64_LIMIT)):
        raise ValueError(f"{what} must be integers below 2**63")
    return a.astype(np.int64, copy=False)


_COLUMNS = ("tp_index", "cycle_index", "samples")  # the per-period fields of Observations


def _units_text(metric, sub_bin_seconds, sub_bins, scale=None) -> str:
    """A unit set as errors name it: ``metric 'cpu' with 60s sub-bins, 30 per period, at scale 100.0``."""
    text = f"metric {getattr(metric, 'value', metric)!r} with {sub_bin_seconds}s sub-bins, {sub_bins} per period"
    return text if scale is None else f"{text}, at scale {scale!r}"


@dataclass(frozen=True, eq=False)
class Observations(_Sequence):
    """A stream of periods in one set of units, stored as columns.

    ``tp_index`` and ``cycle_index`` hold one entry per period, and
    ``samples`` is an int64 matrix with one row per period and one column
    per sub-bin. ``metric``, ``sub_bin_seconds``, ``scale`` (of cpu and
    memory requests) and the sub-bins per period (the matrix's width) are
    the units of every period; a stream with no periods may carry None for
    the first three, and then has no units at all. ``len`` is the number of
    periods. Indexing with an integer gives that period as a
    ``PeriodObservation``, with a slice of step 1 those periods, in the same
    units, with columns that are views of these; any other index raises
    ``TypeError``. It has no ``==``.

    The invariants are ``PeriodObservation``'s plus int64 range: indices,
    sub-bin width and sub-bins per period at least 1, samples nonnegative,
    and a finite positive scale.
    """

    tp_index: np.ndarray
    cycle_index: np.ndarray
    samples: np.ndarray
    metric: MetricKind | None
    sub_bin_seconds: int | None
    scale: float | None

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            object.__setattr__(self, name, _int64(getattr(self, name), name))
        n = len(self.tp_index)
        if self.samples.ndim != 2 or not len(self.cycle_index) == len(self.samples) == n:
            raise ValueError("period columns must have equal lengths, and samples one row per period")
        if n and min(self.tp_index.min(), self.cycle_index.min()) < 1:
            raise ValueError("indices are 1-based")
        if self.samples.size and self.samples.min() < 0:
            raise ValueError("samples are counts and cannot be negative")
        if n or (self.metric, self.sub_bin_seconds, self.scale) != (None, None, None):
            if not isinstance(self.metric, MetricKind):
                raise ValueError(f"the metric must be a MetricKind member, got {self.metric!r}")
            if self.samples.shape[1] < 1:
                raise ValueError("a period observation needs at least one sample")
            width = int(_int64(self.sub_bin_seconds, "sub_bin_seconds"))
            if width < 1:
                raise ValueError(f"a sub-bin is at least 1 second wide, got {width}")
            object.__setattr__(self, "sub_bin_seconds", width)
            object.__setattr__(self, "scale", _check_scale(self.scale))

    @property
    def _units(self) -> tuple:
        """The metric, sub-bin width, sub-bins per period and scale; all None for a stream without units."""
        sub_bins = None if self.metric is None else self.samples.shape[1]
        return self.metric, self.sub_bin_seconds, sub_bins, self.scale

    @classmethod
    def of(cls, observations: Observations | Iterable[PeriodObservation], scale: float = 100.0) -> Observations:
        """``observations`` as columns: as it is if it already is, else converted.

        Every period must carry the first's metric, sub-bin width and number
        of samples; no periods give no units.
        """
        if isinstance(observations, Observations):
            return observations
        periods = list(observations)
        if not periods:
            return cls([], [], np.zeros((0, 0)), None, None, None)
        first = periods[0]
        units = (first.metric, first.sub_bin_seconds, len(first.samples))
        for i, p in enumerate(periods):
            if (own := (p.metric, p.sub_bin_seconds, len(p.samples))) != units:
                raise ValueError(
                    f"period {i} (tp_index={p.tp_index}, cycle_index={p.cycle_index}) carries "
                    f"{_units_text(*own)}, but period 0 carries {_units_text(*units)}"
                )
        return cls(
            [p.tp_index for p in periods], [p.cycle_index for p in periods], [p.samples for p in periods],
            first.metric, first.sub_bin_seconds, scale,
        )

    @classmethod
    def concat(cls, parts: Sequence[Observations]) -> Observations:
        """The periods of ``parts``, one after the other, in the units of those with periods."""
        first, *rest = [p for p in parts if len(p)] or parts[:1]
        for part in rest:
            if part._units != first._units:
                raise ValueError(f"a part in {_units_text(*part._units)} follows one in {_units_text(*first._units)}")
        return replace(first, **{name: np.concatenate([getattr(p, name) for p in (first, *rest)]) for name in _COLUMNS})

    def __len__(self) -> int:
        return len(self.tp_index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise TypeError("Observations take an integer or a slice of step 1")
            # A run of periods: every column is a view, so nothing is copied.
            return replace(self, **{name: getattr(self, name)[index] for name in _COLUMNS})
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"period {index} of {len(self)}")
        return PeriodObservation(
            int(self.tp_index[i]), int(self.cycle_index[i]), self.metric, self.samples[i].tolist(), self.sub_bin_seconds
        )


@dataclass(frozen=True)
class ColumnMapping:
    """Where the trace columns live; indices 0-based, or header names.

    The defaults match the packaged trace layout
    (timestamp, job_id, task_id, cpu_request, mem_request); the id columns
    are not read. ``cpu``/``mem`` may be None, and then that column is not
    read either: arrivals need neither. ``timestamp`` may not be None, and
    ValueError says so.
    """

    timestamp: int | str = 0
    cpu: int | str | None = 3
    mem: int | str | None = 4
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        if self.timestamp is None:
            raise ValueError("the timestamp column is required")
        # csv.reader needs one character, and a quote or line end could not split fields.
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValueError(
                "delimiter must be one character other than a double quote, "
                f"carriage return or newline, got {self.delimiter!r}"
            )


@dataclass
class ParseResult:
    """A parsed trace: every row with a usable timestamp, and what each metric rejects.

    ``events`` holds those rows in time order, with a request column for
    each one the mapping reads. ``rejected`` counts the rows that no metric
    counts: unreadable, too short for the timestamp, or with a timestamp
    that ``_usable`` refuses. ``cpu_invalid`` and ``mem_invalid`` mark,
    over ``events``, the rows whose request in that column is absent,
    unreadable or refused by ``_usable``; such a row still counts as an
    arrival. Each is None when no row is marked, so a clean file carries
    no mask. A marked request reads 0.0. Every total starts at 0.0 and
    every usable request is 0 or more, so adding a 0.0 changes no bit of
    it: ``aggregate_span`` bins ``events`` for every metric, and each
    request metric's sums are exactly those of its usable requests, with
    no copy that drops the marked rows.
    """

    events: Events
    rejected: int
    cpu_invalid: np.ndarray | None = None
    mem_invalid: np.ndarray | None = None

    def rejected_for(self, metric: MetricKind) -> int:
        """The rows that ``metric`` rejects: ``rejected``, and for cpu or memory
        the rows that its column's mask marks too. Raises ValueError for a
        request metric whose column was not read."""
        if metric is MetricKind.ARRIVALS:
            return self.rejected
        name = _REQUESTS[metric]
        if getattr(self.events, name) is None:
            raise ValueError(f"no {metric.value} column was read")
        invalid = getattr(self, f"{name}_invalid")
        return self.rejected + (0 if invalid is None else int(np.count_nonzero(invalid)))


def _resolve(mapping: ColumnMapping, header: list[str] | None) -> tuple[int, int | None, int | None]:
    """The timestamp, cpu and memory column indices, header names looked up in ``header``."""
    indices = []
    for what in ("timestamp", "cpu", "mem"):
        col = getattr(mapping, what)
        if col is not None and not isinstance(col, int):
            if header is None:
                raise ValueError(f"column {col!r} for {what} needs a header row to resolve")
            if col not in header:
                raise ValueError(f"column {col!r} for {what} not found in header {header}")
            col = header.index(col)
        indices.append(col)
    return tuple(indices)


def parse_trace(
    source: str | Path | IO[str] | Iterable[str], mapping: ColumnMapping | None = None
) -> ParseResult:
    """Parse a delimited trace into timestamp-ordered events.

    ``source`` may be a path, an open text stream, or an iterable of lines.
    A path is read as UTF-8, after a byte order mark if there is one.
    Only the columns that ``mapping`` names are read. Each metric has one
    rule (see the module docstring): arrivals count every row with a usable
    timestamp, and cpu and memory those of them with a usable request in
    their own column. ``ParseResult`` keeps the rows of the first rule,
    counts the rest in ``rejected``, and marks the rows whose request fails
    its column's rule, reading that request as 0.0. Events come back sorted
    by timestamp even when the input is not; equal timestamps keep their
    input order.

    A path is first offered to a bulk reader (numpy's C text reader). It
    takes the file only when its rows and values are provably the per-row
    reader's, and the result is then equal column for column, ``rejected``
    and the masks included. Every other file, stream or line iterable is
    read row by row with the ``csv`` module.

    Raises
    ------
    OSError
        If a path cannot be opened.
    UnicodeDecodeError
        If a path is not UTF-8 text.
    csv.Error
        If a field is longer than ``csv.field_size_limit()``; it names the line.
    ValueError
        If a header-name column mapping cannot be resolved.
    """
    mapping = mapping or ColumnMapping()
    if isinstance(source, (str, Path)):
        parsed = _parse_bulk(source, mapping)
        if parsed is not None:
            return parsed
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_rows(fh, mapping)
    return _parse_rows(source, mapping)


def _is_plain(path: str | Path) -> bool:
    """Whether a file's bytes are plain: all ``_PLAIN_BYTES`` after a leading
    UTF-8 byte order mark, with a newline in each whole stretch of
    ``_NEWLINE_STRETCH`` bytes from the start of a ``_SCAN_BLOCK`` read. A
    run of ``3 * _NEWLINE_STRETCH - 2`` bytes with no newline covers such a
    stretch, even across a block edge, so no line that long is plain.
    """
    # Reads go into one buffer: fh.read per block raised the readme benchmark's peak RSS by 1.4 MB.
    buffer = memoryview(bytearray(_SCAN_BLOCK))
    with open(path, "rb", buffering=0) as fh:
        fh.seek(len(_UTF8_BOM) if fh.read(len(_UTF8_BOM)) == _UTF8_BOM else 0)
        while size := fh.readinto(buffer):
            block = bytes(buffer[:size])  # bytes.translate is faster than bytearray's
            if block.translate(None, _PLAIN_BYTES):
                return False
            for i in range(0, len(block) - _NEWLINE_STRETCH + 1, _NEWLINE_STRETCH):
                if block.find(b"\n", i, i + _NEWLINE_STRETCH) < 0:
                    return False
    return True


def _parse_bulk(path: str | Path, mapping: ColumnMapping) -> ParseResult | None:
    """Parse a trace file with ``np.loadtxt``, or return None to leave it to ``_parse_rows``.

    The result equals ``_parse_rows``'s whenever it is returned, because:

    * The file is plain (see ``_is_plain``). With no double quote or carriage
      return, csv splits every line exactly at the delimiter, as the C reader
      and ``str.split`` of the header do, and loadtxt neither splits nor drops
      a line that csv keeps; both strip spaces and tabs around a field alike.
      Other characters are refused because the readers differ on them: the C
      reader strips ``\\x1f`` and turns some non-ASCII characters within an
      integer into digits (``"7\\u24271"`` reads as 92771), where ``int``
      raises. No line reaches csv's field limit (131,072 characters).
    * Both readers skip exactly the empty lines: on a line of spaces or a
      lone tab loadtxt raises, and the per-row reader rejects the row. An
      empty line before a header would differ (csv takes the next row as
      the header), so with ``has_header`` an empty first line is refused.
    * loadtxt reads the file the per-row reader opens, as the same text. It
      is given the absolute path as a ``str``, so that its C reader pulls the
      file in chunks rather than a line at a time, and opens it through
      ``np.lib._datasource``. That treats a path of the form
      ``scheme://netloc/...`` as a URL, which an absolute path never is, and
      decompresses a file by its suffix (``_COMPRESSED``), so such a file is
      refused. It opens the rest as text in the given encoding,
      ``utf-8-sig`` (which drops a byte order mark) with universal newlines,
      the same as ``newline=""`` on a file with no carriage return. With no
      comment character and a first line that is not empty, ``skiprows``
      skips exactly the header line that ``readline`` read.
    * The file holds at least one data row (numpy warns on none), and the
      timestamp column is not also the cpu or memory column: it is read
      once, and ``int`` and ``float`` read "-0" as 0 and -0.0. A negative
      column index counts from the end of each row in both readers.
    * Only the mapped columns are parsed (``usecols``), so a field of any
      other column plays no part, as in the per-row reader.
    * Every mapped field parses as int64 or float64, or loadtxt raises (or
      warns, which is raised) and the file is refused. The C reader refuses
      what only ``int``/``float`` accept (``_`` between digits, a float where
      an integer belongs, a timestamp beyond int64), an empty field and a
      row too short for a mapped column. A float both accept rounds to the
      same double.
    * Both readers then hand their columns to ``_usable_events``, which
      applies ``_usable``, the one value rule, to each column.
    """
    import warnings

    if os.path.splitext(path)[1] in _COMPRESSED or not _is_plain(path):
        return None
    try:
        header = None
        if mapping.has_header:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                header = fh.readline().removesuffix("\n").split(mapping.delimiter)
        c_ts, c_cpu, c_mem = _resolve(mapping, header)
        if c_ts in (c_cpu, c_mem) or header == [""]:  # [""]: an empty first line
            return None
        usecols = sorted({c_ts, c_cpu, c_mem} - {None})
        dtype = np.dtype([(f"c{c}", np.int64 if c == c_ts else np.float64) for c in usecols])
        # Made absolute but not normalised: os.path.abspath folds "link/.." by
        # name, which can lead to another file than the one the system opens.
        name = os.path.join(os.getcwd(), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                name, dtype=dtype, comments=None, delimiter=mapping.delimiter, skiprows=int(mapping.has_header),
                usecols=usecols, ndmin=1, encoding="utf-8-sig",
            )
    except (ValueError, Warning):  # _parse_rows raises or rejects as it always did
        return None
    fields = {c: table[f"c{c}"] for c in usecols}  # one view per column, though cpu and mem share it
    return _usable_events(*(fields.get(c) for c in (c_ts, c_cpu, c_mem)), rejected=0)


def _blocks(n: int) -> Iterable[slice]:
    """Consecutive slices of ``_EVENT_BLOCK`` events that cover ``n`` events."""
    return (slice(lo, lo + _EVENT_BLOCK) for lo in range(0, n, _EVENT_BLOCK))


def _usable(values: np.ndarray) -> np.ndarray:
    """The value rule of both readers, for one column: a timestamp counts when 0 or more,
    a request when finite and 0 or more."""
    if values.dtype.kind == "i":
        return values >= 0
    return np.isfinite(values) & (values >= 0)


def _usable_events(ts: np.ndarray, cpu: np.ndarray | None, mem: np.ndarray | None, rejected: int) -> ParseResult:
    """The rows whose timestamp ``_usable`` keeps, in time order, ``rejected`` plus the rows
    it refuses, and per request column a mask of the kept rows whose request it refuses,
    each such request set to 0.0.

    Refused rows are dropped in place, a block at a time, so the events are views of the
    columns and add no copy of them to peak memory; a mask is made only once a row needs
    it. Columns that share memory must be one array. None is a column not read.
    """
    n = len(ts)
    requests = {name: values for name, values in (("cpu", cpu), ("mem", mem)) if values is not None}
    invalid: dict[str, np.ndarray] = {}
    kept = 0
    for b in _blocks(n):
        keep = _usable(ts[b])
        count = int(np.count_nonzero(keep))
        if kept < b.start or count < len(keep):
            for column in {id(c): c for c in (ts, *requests.values())}.values():  # each array moved once
                column[kept : kept + count] = column[b][keep]
        # Every mask before any request is set to 0.0: cpu and memory may share one column.
        bad = {name: ~_usable(values[kept : kept + count]) for name, values in requests.items()}
        for name, refused in bad.items():
            if refused.any():
                if name not in invalid:
                    invalid[name] = np.zeros(n, dtype=bool)
                invalid[name][kept : kept + count] = refused
                requests[name][kept : kept + count][refused] = 0.0
        kept += count
    ts, cpu, mem, cpu_invalid, mem_invalid = _in_time_order(
        ts[:kept], *(None if c is None else c[:kept] for c in (cpu, mem, invalid.get("cpu"), invalid.get("mem")))
    )
    return ParseResult(Events(ts, cpu, mem), rejected + n - kept, cpu_invalid, mem_invalid)


def _in_time_order(ts: np.ndarray, *columns: np.ndarray | None) -> tuple[np.ndarray | None, ...]:
    """``ts`` and the ``columns`` beside it (None stays None) sorted by ``ts``, stably;
    as they are if ``ts`` already is.

    Sortedness is checked a block at a time, each block with the first
    timestamp of the next, so the check adds no per-event array.
    """
    for b in _blocks(len(ts)):
        window = ts[b.start : b.stop + 1]
        if (window[1:] < window[:-1]).any():
            order = np.argsort(ts, kind="stable")
            return ts[order], *(None if c is None else c[order] for c in columns)
    return ts, *columns


def _parse_rows(lines: Iterable[str], mapping: ColumnMapping) -> ParseResult:
    """Read rows with ``csv``: reject those too short for the timestamp, or whose timestamp
    ``int`` refuses or is beyond int64; carry a request field that is absent or that ``float``
    refuses as NaN, invalid for its column alone; then leave the values to ``_usable``."""
    reader = csv.reader(lines, delimiter=mapping.delimiter)
    timestamps = array("q")
    requests = [None if col is None else array("d") for col in (mapping.cpu, mapping.mem)]
    rejected = 0

    def columns() -> ParseResult:
        return _usable_events(
            np.asarray(timestamps), *(None if r is None else np.asarray(r) for r in requests), rejected=rejected
        )

    try:
        header: list[str] | None = None
        if mapping.has_header:
            # The header is the first non-empty row: empty rows are skipped here as below.
            header = next((row for row in reader if row), None)
            if header is None:
                return columns()
        c_ts, *c_requests = _resolve(mapping, header)
        reads = [(c, values) for c, values in zip(c_requests, requests) if values is not None]
        for row in reader:
            if not row:
                continue
            try:
                timestamps.append(int(row[c_ts]))  # OverflowError beyond int64
            except (ValueError, IndexError, OverflowError):
                rejected += 1
                continue
            for c, values in reads:
                try:
                    values.append(float(row[c]))
                except (ValueError, IndexError):
                    values.append(math.nan)
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise csv.Error(f"line {reader.line_num}: {exc}") from exc
    return columns()


def _span_geometry(tp_minutes: int, sub_bin_seconds: int = 60, num_tps: int | None = None) -> tuple[int, int, int]:
    """A span's target period and sub-bin in microseconds, and its sub-bins per period.

    The one rule for a span's lengths. Raises ValueError unless the period
    is at least a minute, a whole number of ``sub_bin_seconds`` sub-bins
    and shorter than 2**63 us; given ``num_tps``, raises ``_SpanTooLarge``
    if that many periods hold more than ``_MAX_SPAN_SUB_BINS`` sub-bins.
    """
    if tp_minutes < 1:
        raise ValueError(f"target period must be at least one minute, got {tp_minutes}")
    if sub_bin_seconds < 1 or (tp_minutes * 60) % sub_bin_seconds != 0:
        raise ValueError(f"target period of {tp_minutes}min is not a whole number of {sub_bin_seconds}s sub-bins")
    period_us = tp_minutes * 60 * US_PER_SECOND
    if period_us >= _INT64_LIMIT:
        raise ValueError(f"target period of {tp_minutes}min is {period_us}us, not below 2**63us")
    sub_bins = tp_minutes * 60 // sub_bin_seconds
    if num_tps is not None and num_tps * sub_bins > _MAX_SPAN_SUB_BINS:
        raise _SpanTooLarge(
            f"{num_tps} periods of {sub_bins} sub-bins are {num_tps * sub_bins} sub-bins, "
            f"more than the {_MAX_SPAN_SUB_BINS} a span may hold"
        )
    return period_us, sub_bin_seconds * US_PER_SECOND, sub_bins


def aggregate_span(
    events: Events,
    start_us: int,
    num_tps: int,
    tp_minutes: int,
    pp_tps: int,
    metric: MetricKind,
    sub_bin_seconds: int = 60,
    scale: float = 100.0,
) -> Observations:
    """Aggregate events into consecutive target periods of fixed sub-bins, in one set of units.

    Period i (0-based) covers [start_us + i*TP, start_us + (i+1)*TP) and is
    stamped with pattern position ``i % pp_tps + 1`` and cycle
    ``i // pp_tps + 1``. Events outside the span are ignored; the events
    need not be sorted. The lengths come from ``_span_geometry``, which
    refuses a bad period or a span of more than ``_MAX_SPAN_SUB_BINS``
    sub-bins, and ``scale`` must be a finite positive number for every
    metric. For CPU/memory the events must carry that request column, and
    the per-sub-bin request sums, added in event order, are multiplied by
    ``scale`` and rounded to the nearest integer, which must be below
    2**63. ``start_us`` and every event's offset from it must fit int64.
    Every refusal is a ValueError, raised before anything the size of the
    span is made.

    Events are binned a block of ``_EVENT_BLOCK`` at a time, so the
    temporaries are a block's offsets and bin indices, whatever the event
    count; ``np.add.at`` adds each block to its bins in event order, the
    order in which one weighted ``bincount`` over all events adds them, so
    the sums are the same floats however the events are blocked.
    """
    if num_tps < 1 or pp_tps < 1:
        raise ValueError(f"need at least one target period and pattern period, got {num_tps}, {pp_tps}")
    _, sub_bin_us, sub_bins = _span_geometry(tp_minutes, sub_bin_seconds, num_tps)
    scale = _check_scale(scale)
    if not -_INT64_LIMIT <= start_us < _INT64_LIMIT:
        raise ValueError(f"start {start_us}us is outside int64")
    timestamps = events.timestamp
    if len(timestamps):
        _check_offset(int(timestamps.min()), start_us)
        _check_offset(int(timestamps.max()), start_us)
    n_bins = num_tps * sub_bins
    arrivals = metric is MetricKind.ARRIVALS
    values = None if arrivals else getattr(events, _REQUESTS[metric])
    if not arrivals and values is None:
        raise ValueError(f"the events carry no {metric.value} requests")
    # Bin n_bins collects the events outside the span and is dropped.
    totals = np.zeros(n_bins + 1, dtype=np.int64 if arrivals else np.float64)
    for block in _blocks(len(timestamps)):
        idx = timestamps[block] - start_us
        before = idx < 0
        idx //= sub_bin_us
        np.minimum(idx, n_bins, out=idx)
        idx[before] = n_bins
        np.add.at(totals, idx, 1 if arrivals else values[block])
    if arrivals:
        samples = totals[:n_bins]
    else:
        # Round half up rather than half even so output is predictable from the text.
        with np.errstate(over="ignore"):  # an overflow is refused below
            rounded = np.floor(scale * totals[:n_bins] + 0.5)
        big = np.flatnonzero(~(rounded < _INT64_LIMIT))  # NaN included
        if len(big):
            raise _CountTooLarge(
                f"scaled {metric.value} sum {float(rounded[big[0]])!r} of period {big[0] // sub_bins + 1} "
                f"is not a count below 2**63"
            )
        samples = rounded.astype(np.int64)
    periods = np.arange(num_tps)
    stamps = (periods % pp_tps + 1, periods // pp_tps + 1)
    return Observations(*stamps, samples.reshape(num_tps, sub_bins), metric, sub_bin_seconds, scale)


def span_tps(events: Events, start_us: int, tp_minutes: int) -> int:
    """Number of target periods needed to cover every event at/after start.

    Raises ValueError if ``_span_geometry`` refuses the period, or if the
    latest event's offset from ``start_us`` does not fit int64, as
    ``aggregate_span`` would refuse either.
    """
    period_us = _span_geometry(tp_minutes)[0]
    if not len(events):
        return 0
    # The latest event at or after the start, if there is one, is the latest event.
    last = int(events.timestamp.max())
    if last < start_us:
        return 0
    _check_offset(last, start_us)
    return (last - start_us) // period_us + 1


class _SpanTooLarge(ValueError):
    """A span of more sub-bins than ``_MAX_SPAN_SUB_BINS``."""


class _CountTooLarge(ValueError):
    """A scaled cpu or memory sum of 2**63 or more: the data, not a setting, is at fault."""


def _check_offset(timestamp: int, start_us: int) -> None:
    """Raise ValueError unless ``timestamp - start_us`` fits int64."""
    if not -_INT64_LIMIT <= timestamp - start_us < _INT64_LIMIT:
        raise ValueError(
            f"event at {timestamp}us lies {timestamp - start_us}us from the start {start_us}us, "
            "an offset outside int64"
        )


@functools.cache
def _digit_words() -> np.ndarray:
    """The 4-byte words of 0..9999 zero-padded, then null-padded, then one empty word.

    Entry ``c`` is ``f"{c:04d}"``, entry ``10_000 + c`` the same digits with
    the leading zeros as null bytes (``"0"`` for 0), and entry 20_000 is
    four null bytes. Built on first use, so a process that writes no file
    never pays for it.
    """
    n = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + ord("0")
    null_padded = np.where(n[:, None] >= np.array([1000, 100, 10, 0], dtype=np.uint16), digits, np.uint8(0))
    words = np.concatenate([t.view(np.uint32).ravel() for t in (digits, null_padded)] + [np.zeros(1, np.uint32)])
    words.flags.writeable = False
    return words


_MINUS = np.frombuffer(b"-\0\0\0", np.uint32)[0]
_CHUNK = np.uint64(10_000)


def _words(texts: Sequence[str]) -> np.ndarray:
    """ASCII ``texts`` as rows of 4-byte words, each null-padded to the longest."""
    width = -(-max(map(len, texts)) // 4) * 4
    joined = "".join(text.ljust(width, "\0") for text in texts)
    return np.frombuffer(joined.encode("ascii"), np.uint32).reshape(len(texts), width // 4)


def _decimal(values: np.ndarray, after: np.ndarray) -> bytes:
    """The decimal text of each int64 in ``values``, followed by its row of ``after``.

    ``after`` holds words as ``_words`` makes them: one row for every value,
    or one row per value. The result is ``str(v)`` plus the text of the
    row, for each value in turn, built without a Python object per value:
    every value becomes a row of words, a ``-`` word (when any value is
    negative), then its magnitude's digits 4 at a time from ``_digit_words``
    (null-padded for its leading chunk, zero-padded below it, empty above
    it), then ``after``; one ``translate`` deletes the null bytes.
    """
    n = len(values)
    neg = values < 0
    signed = bool(neg.any())
    mag = values.view(np.uint64)
    if signed:
        mag = np.where(neg, -mag, mag)  # modulo 2**64, so -(2**63) gives 2**63
    chunks = (len(str(int(mag.max()))) + 3) // 4 if n else 1
    # 10_000 where a value has digits in chunk j or above; every value has some in chunk 0.
    reach = [10_000, *((mag >= np.uint64(10 ** (4 * j))) * 10_000 for j in range(1, chunks)), 0]
    out = np.empty((n, signed + chunks + after.shape[-1]), np.uint32)
    if signed:
        out[:, 0] = np.where(neg, _MINUS, 0)
    out[:, signed + chunks :] = after
    digit_words = _digit_words()
    rest = mag
    for j in range(chunks):  # chunk j holds digits 4j to 4j + 3, counted from the last
        if j < chunks - 1:
            high = rest // _CHUNK
            chunk, rest = rest - high * _CHUNK, high
        else:
            chunk = rest
        # Table offset 0 (zero-padded) below the leading chunk, 10_000 (null-padded) at it, 20_000 above.
        table = 20_000 - reach[j] - reach[j + 1]
        out[:, signed + chunks - 1 - j] = digit_words[table + chunk.astype(np.intp)]
    return out.tobytes().translate(None, b"\0")


def _check_scale(value: str | float) -> float:
    """``value`` as a float; ValueError unless it reads as a finite positive one."""
    try:
        scale = float(value)
    except (TypeError, ValueError):
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a finite positive number, got {value!r}")
    return scale


def write_observations(path: str | Path, observations: Observations) -> None:
    """Write one record per target period as delimited text.

    Every record carries the stream's units: its metric, sub-bin width and
    the scale used for CPU/memory rounding, so a fitted rate stays
    interpretable in original units. The scale is written as its ``repr``,
    which reads back as the same float.

    Every sample is formatted by one ``_decimal`` call, each followed by a
    space or, after a period's last, a newline; each period's indices go in
    front of its line, followed by the units' text, formatted once.
    """
    metric, width, _, scale = observations._units  # None only for a stream with no periods
    units = "" if metric is None else f",{metric.value},{width},{scale!r},"
    samples = observations.samples
    space, newline = _words([" ", "\n"])
    # Each sample's separator: a space, and a newline after a period's last sample.
    ends = np.where(np.arange(samples.shape[1])[:, None] < samples.shape[1] - 1, space, newline)
    lines = _decimal(samples.ravel(), np.tile(ends, (len(samples), 1))).splitlines(keepends=True)
    fields = [
        f"{tp},{cycle}{units}".encode("ascii")
        for tp, cycle in zip(observations.tp_index.tolist(), observations.cycle_index.tolist())
    ]
    with open(path, "wb") as fh:
        fh.write(b"tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n")
        fh.write(b"".join(chain.from_iterable(zip(fields, lines))))


def read_observations(path: str | Path) -> Observations:
    """Read records produced by ``write_observations``, as one stream.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``; blank lines are skipped,
    and fields are split at commas and samples at whitespace, each record
    stripped of surrounding whitespace. Every error names the file and
    line: besides what ``PeriodObservation`` refuses, a sub-bin under 1
    second, a scale that is not a finite positive number, an index or
    sample of 2**63 or more, and a record whose metric, sub-bin width,
    number of samples or scale differs from the first record's. A file
    with no records gives a stream with no units.

    The columns are parsed in bulk when every integer field is plain ASCII
    digits (see ``_plain_ints``), the metric, width and scale texts and the
    number of samples are the same on every line, and those units are
    valid; any other file is read a line at a time, every token with
    ``int``. Both give the same periods, and errors come from the line
    reader only.
    """
    with open(path, "r", encoding="utf-8") as fh:  # universal newlines: \r\n and \r read as \n
        if not fh.readline().startswith("tp_index,"):
            raise ValueError(f"{path}: not an observations file")
        lines = fh.read().split("\n")
    obs = _read_columns([text for line in lines if (text := line.strip())])
    return obs if obs is not None else _read_records(path, lines)


def _plain_ints(texts: Sequence[str]) -> np.ndarray | None:
    """The integers in ``texts``, read as one space-separated text by numpy.

    None unless that text is 1 to 18 ASCII digits per token and one space
    between tokens: then ``int`` reads each token as the same value, and
    none reaches 2**63. Anything else (signs, underscores, other digits or
    spaces, empty or longer tokens) is left to ``int``.
    """
    joined = " ".join(texts)
    if not joined.isascii():
        return None
    raw = joined.encode("ascii")
    if raw.translate(None, b"0123456789 "):
        return None
    # No empty token, and no run of digits longer than _PLAIN_DIGITS.
    if not raw or raw[:1] == b" " or raw[-1:] == b" " or b"  " in raw:
        return None
    if b"0" * (_PLAIN_DIGITS + 1) in raw.translate(_DIGITS_TO_ZERO):
        return None
    return np.fromstring(raw, dtype=np.int64, sep=" ")


def _read_columns(texts: list[str]) -> Observations | None:
    """The records ``texts`` as columns, or None to leave them to ``_read_records``."""
    if not texts:
        return Observations.of([])
    if any(text.count(",") != 5 for text in texts):
        return None
    # One flat list of fields rather than a list per record: fewer objects to allocate.
    fields = ",".join(texts).split(",")
    columns = [fields[i::6] for i in range(6)]
    # One text per unit column; a file of several is left to the line reader.
    if any(len(set(columns[i])) != 1 for i in (2, 3, 4)):
        return None
    tp, cycle, width, samples = ints = [_plain_ints(columns[i]) for i in (0, 1, 3, 5)]
    if any(v is None for v in ints) or not len(tp) == len(cycle) == len(width) == len(texts):
        return None
    # Plain sample text has one space between samples: a line of n samples has n - 1 spaces.
    n = columns[5][0].count(" ") + 1
    if any(text.count(" ") != n - 1 for text in columns[5]):
        return None
    try:
        return Observations(tp, cycle, samples.reshape(-1, n), MetricKind(columns[2][0]), width[0], columns[4][0])
    except ValueError:
        return None


def _read_records(path: str | Path, lines: list[str]) -> Observations:
    """The records of ``lines`` (the file's from line 2 on), one line and one
    token at a time; raises at the first bad line."""
    periods = []
    first = None  # the first record's units
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, got {len(parts)}")
            period = PeriodObservation(
                tp_index=int(parts[0]),
                cycle_index=int(parts[1]),
                metric=MetricKind(parts[2]),
                samples=[int(s) for s in parts[5].split()],
                sub_bin_seconds=int(parts[3]),
            )
            if period.sub_bin_seconds < 1:
                raise ValueError(f"a sub-bin is at least 1 second wide, got {period.sub_bin_seconds}")
            units = (period.metric, period.sub_bin_seconds, len(period.samples), _check_scale(parts[4]))
            largest = max(period.tp_index, period.cycle_index, period.sub_bin_seconds, max(period.samples))
            if largest >= _INT64_LIMIT:
                raise ValueError(f"{largest} is not below 2**63")
            first = first or units
            if units != first:
                raise ValueError(f"{_units_text(*units)}, but the file began with {_units_text(*first)}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        periods.append(period)
    return Observations.of(periods, scale=first and first[3])


def write_trace(path: str | Path, events: Events, tp_minutes: int) -> None:
    """Write events in the packaged trace layout (with header row).

    The job and task ids are both ``j<n>``, the 1-based target period of
    ``tp_minutes`` that holds the event; ValueError if ``_span_geometry``
    refuses that period.

    Consecutive rows with the same period, cpu and memory form a run, and a
    run's shared tail ``,j<n>,j<n>,<cpu>,<mem>`` is formatted once in Python;
    each row is then its timestamp, from one ``_decimal`` call per block of
    rows, followed by its run's tail. Runs are split where the bits of cpu
    or memory change, not where the floats are unequal:
    ``0.0 == -0.0`` although they print differently, so only bit equality
    guarantees that the rows of a run print the same text (every NaN prints
    ``nan``, whatever its bits). ValueError if the events carry no cpu or
    no memory column.
    """
    tp_us = _span_geometry(tp_minutes)[0]
    if events.cpu is None or events.mem is None:
        raise ValueError("a trace row needs cpu and memory requests")
    with open(path, "wb") as fh:
        fh.write(b"timestamp,job_id,task_id,cpu_request,mem_request\n")
        for lo in range(0, len(events), _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            stamps = events.timestamp[block]
            tps = stamps // tp_us + 1
            cpu, mem = events.cpu[block], events.mem[block]
            cpu_bits, mem_bits = cpu.view(np.int64), mem.view(np.int64)
            new_run = np.ones(len(stamps), dtype=bool)
            new_run[1:] = (
                (tps[1:] != tps[:-1]) | (cpu_bits[1:] != cpu_bits[:-1]) | (mem_bits[1:] != mem_bits[:-1])
            )
            starts = np.flatnonzero(new_run)
            # Plain Python values: repr of a numpy float is not its text form.
            tails = _words([
                f",j{tp},j{tp},{c!r},{m!r}\n"
                for tp, c, m in zip(tps[starts].tolist(), cpu[starts].tolist(), mem[starts].tolist())
            ])
            fh.write(_decimal(stamps, np.repeat(tails, np.diff(starts, append=len(stamps)), axis=0)))
