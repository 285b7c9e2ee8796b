"""Trace ingestion: delimited-text task records to per-period count vectors.

A trace row carries an arrival timestamp (integer microseconds) plus the
task's CPU and memory requests. Rows that fail to parse are tallied and
skipped, never fatal: real traces contain noise and the reject count keeps a
run auditable.

A trace file is read in bulk by numpy's C reader when that provably gives
what the per-row ``csv`` reader gives; otherwise, and for streams and line
iterables, the per-row reader runs. ``_parse_bulk`` holds the conditions.

A trace is written a run at a time: consecutive rows that share their
period, cpu and memory bits share one formatted tail, so a row costs one
integer to text. Bit equality, not float equality, decides a run, so the
output is the same bytes as formatting every row on its own.

Aggregation slices a time window into fixed sub-bins and produces one
integer sample per sub-bin: event counts for the arrivals metric, scaled
rounded request sums for CPU/memory (rate fitting needs count data, so
continuous requests are multiplied by a recorded scale and rounded).
"""

from __future__ import annotations

import csv
import enum
import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

__all__ = [
    "MetricKind",
    "Events",
    "PeriodObservation",
    "ColumnMapping",
    "ParseResult",
    "parse_trace",
    "aggregate_span",
    "build_histogram",
    "write_observations",
    "read_observations",
    "write_trace",
]

US_PER_SECOND = 1_000_000
_WRITE_BLOCK = 8192  # events per block that write_trace converts to Python values
_SCAN_BLOCK = 1 << 20  # bytes per read of the bulk reader's pre-scan
_UTF8_BOM = b"\xef\xbb\xbf"
# Bytes of a plain trace file: printable ASCII but the double quote, tab, newline.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


class MetricKind(enum.Enum):
    ARRIVALS = "arrivals"
    CPU = "cpu"
    MEMORY = "memory"


@dataclass(frozen=True, eq=False)
class Events:
    """Task records as three equal-length columns; ``len`` is the event count.

    ``timestamp`` holds arrival times in integer microseconds (int64),
    ``cpu`` and ``mem`` the tasks' resource requests (float64). Inputs are
    converted to those dtypes on construction.
    """

    timestamp: np.ndarray
    cpu: np.ndarray
    mem: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamp", np.asarray(self.timestamp, dtype=np.int64))
        object.__setattr__(self, "cpu", np.asarray(self.cpu, dtype=np.float64))
        object.__setattr__(self, "mem", np.asarray(self.mem, dtype=np.float64))
        if not len(self.timestamp) == len(self.cpu) == len(self.mem):
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


@dataclass(frozen=True)
class ColumnMapping:
    """Where the trace columns live; indices 0-based, or header names.

    The defaults match the packaged trace layout
    (timestamp, job_id, task_id, cpu_request, mem_request); the id columns
    are not read. ``cpu``/``mem`` may be None for arrival-only traces.
    """

    timestamp: int | str = 0
    cpu: int | str | None = 3
    mem: int | str | None = 4
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        # csv.reader needs one character, and a quote or line end could not split fields.
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValueError(
                "delimiter must be one character other than a double quote, "
                f"carriage return or newline, got {self.delimiter!r}"
            )


@dataclass
class ParseResult:
    events: Events
    rejected: int


def _resolve(col: int | str | None, header: list[str] | None, what: str) -> int | None:
    if col is None or isinstance(col, int):
        return col
    if header is None:
        raise ValueError(f"column {col!r} for {what} needs a header row to resolve")
    try:
        return header.index(col)
    except ValueError:
        raise ValueError(f"column {col!r} for {what} not found in header {header}") from None


def _nonneg_float(field: str) -> float:
    v = float(field)
    if not math.isfinite(v) or v < 0:
        raise ValueError(field)
    return v


def parse_trace(
    source: str | Path | IO[str] | Iterable[str], mapping: ColumnMapping | None = None
) -> ParseResult:
    """Parse a delimited trace into timestamp-ordered events.

    ``source`` may be a path, an open text stream, or an iterable of lines.
    A path is read as UTF-8, after a byte order mark if there is one.
    Malformed rows (short rows, unparseable or negative fields, timestamps
    beyond int64) are counted in ``rejected`` and skipped. Events come back
    sorted by timestamp even when the input is not; equal timestamps keep
    their input order.

    A path is first offered to a bulk reader (numpy's C text reader). It
    takes the file only when its rows and values are provably the per-row
    reader's, and the result is then equal column for column, ``rejected``
    included. Every other file, stream or line iterable is read row by row
    with the ``csv`` module.

    Raises
    ------
    OSError
        If a path cannot be opened.
    UnicodeDecodeError
        If a path is not UTF-8 text.
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


def _plain_line_count(path: str | Path) -> int | None:
    """Count the lines of a plain file, or return None if the file is not plain.

    Plain means printable ASCII other than the double quote, tabs and
    newlines, with no empty line; a leading UTF-8 byte order mark is not part
    of the first line. The file is read in blocks, so memory stays bounded
    whatever its size.
    """
    lines = 0
    at_line_start = True
    with open(path, "rb") as fh:
        block = fh.read(_SCAN_BLOCK).removeprefix(_UTF8_BOM)
        while block:
            if (
                block.translate(None, _PLAIN_BYTES)
                or b"\n\n" in block
                or (at_line_start and block.startswith(b"\n"))
            ):
                return None
            lines += block.count(b"\n")
            at_line_start = block.endswith(b"\n")
            block = fh.read(_SCAN_BLOCK)
    return lines + (not at_line_start)


def _parse_bulk(path: str | Path, mapping: ColumnMapping) -> ParseResult | None:
    """Parse a trace file with ``np.loadtxt``, or return None to leave it to ``_parse_rows``.

    The result equals ``_parse_rows``'s whenever it is returned, because:

    * The file is plain (see ``_plain_line_count``). Without a double quote
      or a carriage return, csv splits every line exactly at the delimiter,
      as the C reader and ``str.split`` of the header do; both readers strip
      spaces and tabs around a field alike. Other characters are refused
      because the readers differ on them: the C reader strips ``\\x1f`` and
      turns some non-ASCII characters within an integer into digits
      (``"7\\u24271"`` reads as 92771), where ``int`` raises. An empty line
      is skipped by both, but one before a header would shift it.
    * The file holds at least one data row (numpy warns on none), and the
      timestamp column is not also the cpu or memory column: it is read
      once, and ``int`` and ``float`` read "-0" as 0 and -0.0. A negative
      column index counts from the end of each row in both readers.
    * Every mapped field parses as int64 or float64, or loadtxt raises (or
      warns, which is raised) and the file is refused. The C reader refuses
      what only ``int``/``float`` accept (``_`` between digits, a float where
      an integer belongs, a timestamp beyond int64) and a row too short for
      a mapped column. A float both accept rounds to the same double.
    * loadtxt returned one row per line, so it neither split nor skipped one.

    The per-row rules then apply as one mask: a timestamp below 0, or a cpu
    or memory request that is negative or not finite, rejects the row.
    """
    import warnings

    lines = _plain_line_count(path)
    if lines is None or lines <= mapping.has_header:
        return None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            header = None
            if mapping.has_header:
                header = fh.readline().removesuffix("\n").split(mapping.delimiter)
            c_ts = _resolve(mapping.timestamp, header, "timestamp")
            c_cpu = _resolve(mapping.cpu, header, "cpu")
            c_mem = _resolve(mapping.mem, header, "mem")
            mapped = {c_ts, c_cpu, c_mem} - {None}
            if c_ts is None or c_ts in (c_cpu, c_mem):
                return None
            usecols = sorted(mapped)
            dtype = np.dtype([(f"c{c}", np.int64 if c == c_ts else np.float64) for c in usecols])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, dtype=dtype, comments=None, delimiter=mapping.delimiter, usecols=usecols, ndmin=1
                )
        except (ValueError, Warning):  # _parse_rows raises or rejects as it always did
            return None
    rows = lines - mapping.has_header
    if len(table) != rows:
        return None
    ts = table[f"c{c_ts}"]
    cpu, mem = (table[f"c{c}"] if c is not None else np.zeros(rows) for c in (c_cpu, c_mem))
    keep = (ts >= 0) & np.isfinite(cpu) & (cpu >= 0) & np.isfinite(mem) & (mem >= 0)
    if not keep.all():
        ts, cpu, mem = ts[keep], cpu[keep], mem[keep]
    # Without rejects the columns stay views into the table: copying them
    # would double what a parse adds to peak memory.
    events = Events(ts, cpu, mem)
    if np.any(events.timestamp[1:] < events.timestamp[:-1]):
        order = np.argsort(events.timestamp, kind="stable")
        events = Events(events.timestamp[order], events.cpu[order], events.mem[order])
    return ParseResult(events=events, rejected=rows - len(events))


def _parse_rows(lines: Iterable[str], mapping: ColumnMapping) -> ParseResult:
    reader = csv.reader(lines, delimiter=mapping.delimiter)
    header: list[str] | None = None
    if mapping.has_header:
        # The header is the first non-empty row: empty rows are skipped here as below.
        header = next((row for row in reader if row), None)
        if header is None:
            return ParseResult(events=Events([], [], []), rejected=0)
    c_ts = _resolve(mapping.timestamp, header, "timestamp")
    c_cpu = _resolve(mapping.cpu, header, "cpu")
    c_mem = _resolve(mapping.mem, header, "mem")
    assert c_ts is not None

    timestamps = array("q")
    cpus = array("d")
    mems = array("d")
    rejected = 0
    for row in reader:
        if not row:
            continue
        try:
            ts = int(row[c_ts])
            if not 0 <= ts < 2**63:  # stored as int64
                raise ValueError(row[c_ts])
            cpu = _nonneg_float(row[c_cpu]) if c_cpu is not None else 0.0
            mem = _nonneg_float(row[c_mem]) if c_mem is not None else 0.0
        except (ValueError, IndexError):
            rejected += 1
            continue
        timestamps.append(ts)
        cpus.append(cpu)
        mems.append(mem)
    events = Events(timestamps, cpus, mems)
    if np.any(events.timestamp[1:] < events.timestamp[:-1]):
        order = np.argsort(events.timestamp, kind="stable")
        events = Events(events.timestamp[order], events.cpu[order], events.mem[order])
    return ParseResult(events=events, rejected=rejected)


def aggregate_span(
    events: Events,
    start_us: int,
    num_tps: int,
    tp_minutes: int,
    pp_tps: int,
    metric: MetricKind,
    sub_bin_seconds: int = 60,
    scale: float = 100.0,
) -> list[PeriodObservation]:
    """Aggregate events into consecutive target periods of fixed sub-bins.

    Period i (0-based) covers [start_us + i*TP, start_us + (i+1)*TP) and is
    stamped with pattern position ``i % pp_tps + 1`` and cycle
    ``i // pp_tps + 1``. Events outside the span are ignored; the events
    need not be sorted. The period must divide evenly into sub-bins. For
    CPU/memory the per-sub-bin request sums, added in event order, are
    multiplied by ``scale`` and rounded to the nearest integer.
    """
    if num_tps < 1 or pp_tps < 1:
        raise ValueError(f"need at least one target period and pattern period, got {num_tps}, {pp_tps}")
    if tp_minutes < 1:
        raise ValueError(f"target period must be at least one minute, got {tp_minutes}")
    if sub_bin_seconds < 1 or (tp_minutes * 60) % sub_bin_seconds != 0:
        raise ValueError(
            f"target period of {tp_minutes}min is not a whole number of {sub_bin_seconds}s sub-bins"
        )
    if metric is not MetricKind.ARRIVALS and scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    sub_bin_us = sub_bin_seconds * US_PER_SECOND
    sub_bins = tp_minutes * 60 // sub_bin_seconds
    n_bins = num_tps * sub_bins
    offset = events.timestamp - start_us
    inside = (offset >= 0) & (offset < n_bins * sub_bin_us)
    idx = offset[inside] // sub_bin_us
    if metric is MetricKind.ARRIVALS:
        rows = np.bincount(idx, minlength=n_bins).reshape(num_tps, sub_bins).tolist()
    else:
        values = (events.cpu if metric is MetricKind.CPU else events.mem)[inside]
        sums = np.bincount(idx, weights=values, minlength=n_bins).reshape(num_tps, sub_bins)
        # Round half up rather than half even so output is predictable from the text.
        rows = [[int(v) for v in row] for row in np.floor(scale * sums + 0.5).tolist()]
    return [
        PeriodObservation(
            tp_index=i % pp_tps + 1,
            cycle_index=i // pp_tps + 1,
            metric=metric,
            samples=samples,
            sub_bin_seconds=sub_bin_seconds,
        )
        for i, samples in enumerate(rows)
    ]


def span_tps(events: Events, start_us: int, tp_minutes: int) -> int:
    """Number of target periods needed to cover every event at/after start."""
    if tp_minutes < 1:
        raise ValueError(f"target period must be at least one minute, got {tp_minutes}")
    after = events.timestamp[events.timestamp >= start_us]
    if not len(after):
        return 0
    return int(after.max() - start_us) // (tp_minutes * 60 * US_PER_SECOND) + 1


def build_histogram(samples: Sequence[int], bin_width: int = 1) -> list[tuple[int, int]]:
    """Frequency histogram of count samples, for distribution inspection.

    Bin edges are multiples of ``bin_width``; returned bins run contiguously
    from the bin containing min(samples) to the one containing max(samples),
    so interior zero-frequency bins are present and frequencies sum to
    len(samples).
    """
    if not samples:
        raise ValueError("cannot build a histogram of zero samples")
    if bin_width < 1:
        raise ValueError(f"bin width must be a positive integer, got {bin_width}")
    lo = min(samples) // bin_width
    hi = max(samples) // bin_width
    freq = [0] * (hi - lo + 1)
    for s in samples:
        freq[s // bin_width - lo] += 1
    return [((lo + i) * bin_width, f) for i, f in enumerate(freq)]


def write_observations(
    path: str | Path, observations: Sequence[PeriodObservation], scale: float
) -> None:
    """Write one record per target period as delimited text.

    The scale used for CPU/memory rounding rides along in every record so a
    fitted rate stays interpretable in original units.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n")
        for obs in observations:
            samples = " ".join(map(str, obs.samples))
            fh.write(
                f"{obs.tp_index},{obs.cycle_index},{obs.metric.value},"
                f"{obs.sub_bin_seconds},{scale!r},{samples}\n"
            )


def read_observations(path: str | Path) -> list[PeriodObservation]:
    """Read records produced by ``write_observations``."""
    observations = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if not header.startswith("tp_index,"):
            raise ValueError(f"{path}: not an observations file")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 6:
                    raise ValueError(f"expected 6 fields, got {len(parts)}")
                observations.append(
                    PeriodObservation(
                        tp_index=int(parts[0]),
                        cycle_index=int(parts[1]),
                        metric=MetricKind(parts[2]),
                        samples=[int(s) for s in parts[5].split()],
                        sub_bin_seconds=int(parts[3]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return observations


def write_trace(path: str | Path, events: Events, tp_minutes: int) -> None:
    """Write events in the packaged trace layout (with header row).

    The job and task ids are both ``j<n>``, the 1-based target period of
    ``tp_minutes`` that holds the event.

    Consecutive rows with the same period, cpu and memory form a run, and a
    run's shared tail ``,j<n>,j<n>,<cpu>,<mem>`` is formatted once; each row
    is then its timestamp followed by its run's tail. Runs are split where the
    bits of cpu or memory change, not where the floats compare unequal:
    ``0.0 == -0.0`` although they print differently, so only bit equality
    guarantees that the rows of a run print the same text (every NaN prints
    ``nan``, whatever its bits).
    """
    tp_us = tp_minutes * 60 * US_PER_SECOND
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,job_id,task_id,cpu_request,mem_request\n")
        # Plain Python values: repr of a numpy float is not its text form.
        # Converted a block at a time, so the lists stay small.
        for lo in range(0, len(events), _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            stamps = events.timestamp[block]
            tps = stamps // tp_us + 1
            cpu, mem = events.cpu[block], events.mem[block]
            keys = np.stack((tps, cpu.view(np.int64), mem.view(np.int64)))
            new_run = np.ones(len(stamps), dtype=bool)
            new_run[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
            starts = np.flatnonzero(new_run)
            tails = [
                f",j{tp},j{tp},{c!r},{m!r}\n"
                for tp, c, m in zip(tps[starts].tolist(), cpu[starts].tolist(), mem[starts].tolist())
            ]
            # Row i is pieces 2i and 2i+1: its timestamp, then its run's tail.
            pieces = [""] * (2 * len(stamps))
            pieces[0::2] = map(str, stamps.tolist())
            pieces[1::2] = chain.from_iterable(map(repeat, tails, np.diff(starts, append=len(stamps)).tolist()))
            fh.write("".join(pieces))
