"""Trace ingestion: delimited-text task records to per-period count vectors.

A trace row carries an arrival timestamp (integer microseconds) plus the
task's CPU and memory requests. Rows that fail to parse are tallied and
skipped, never fatal: real traces contain noise and the reject count keeps a
run auditable.

Aggregation slices a time window into fixed sub-bins and produces one
integer sample per sub-bin: event counts for the arrivals metric, scaled
rounded request sums for CPU/memory (rate fitting needs count data, so
continuous requests are multiplied by a recorded scale and rounded).
"""

from __future__ import annotations

import csv
import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MetricKind",
    "TraceEvent",
    "PeriodObservation",
    "ColumnMapping",
    "ParseResult",
    "parse_trace",
    "aggregate_period",
    "aggregate_span",
    "build_histogram",
    "write_observations",
    "read_observations",
    "write_trace",
]

US_PER_SECOND = 1_000_000


class MetricKind(enum.Enum):
    ARRIVALS = "arrivals"
    CPU = "cpu"
    MEMORY = "memory"


class TraceEvent(NamedTuple):
    """One task record: arrival time plus resource requests."""

    timestamp: int
    job_id: str = ""
    task_id: str = ""
    cpu_request: float = 0.0
    mem_request: float = 0.0


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
    (timestamp, job_id, task_id, cpu_request, mem_request). ``cpu``/``mem``
    may be None for arrival-only traces.
    """

    timestamp: int | str = 0
    job: int | str | None = 1
    task: int | str | None = 2
    cpu: int | str | None = 3
    mem: int | str | None = 4
    delimiter: str = ","
    has_header: bool = False


@dataclass
class ParseResult:
    events: list[TraceEvent]
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
    Malformed rows (short rows, unparseable or negative fields) are counted
    in ``rejected`` and skipped. Events come back sorted by timestamp even
    when the input is not.

    Raises
    ------
    OSError
        If a path cannot be opened.
    ValueError
        If a header-name column mapping cannot be resolved.
    """
    mapping = mapping or ColumnMapping()
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_rows(fh, mapping)
    return _parse_rows(source, mapping)


def _parse_rows(lines: Iterable[str], mapping: ColumnMapping) -> ParseResult:
    reader = csv.reader(lines, delimiter=mapping.delimiter)
    header: list[str] | None = None
    if mapping.has_header:
        header = next(reader, None)
        if header is None:
            return ParseResult(events=[], rejected=0)
    c_ts = _resolve(mapping.timestamp, header, "timestamp")
    c_job = _resolve(mapping.job, header, "job")
    c_task = _resolve(mapping.task, header, "task")
    c_cpu = _resolve(mapping.cpu, header, "cpu")
    c_mem = _resolve(mapping.mem, header, "mem")
    assert c_ts is not None

    events: list[TraceEvent] = []
    rejected = 0
    sorted_so_far = True
    last_ts = -1
    for row in reader:
        if not row:
            continue
        try:
            ts = int(row[c_ts])
            if ts < 0:
                raise ValueError(row[c_ts])
            cpu = _nonneg_float(row[c_cpu]) if c_cpu is not None else 0.0
            mem = _nonneg_float(row[c_mem]) if c_mem is not None else 0.0
            job = row[c_job] if c_job is not None and c_job < len(row) else ""
            task = row[c_task] if c_task is not None and c_task < len(row) else ""
        except (ValueError, IndexError):
            rejected += 1
            continue
        if ts < last_ts:
            sorted_so_far = False
        last_ts = ts
        events.append(TraceEvent(ts, job, task, cpu, mem))
    if not sorted_so_far:
        events.sort(key=lambda e: e.timestamp)
    return ParseResult(events=events, rejected=rejected)


def _bin_samples(
    events: Sequence[TraceEvent],
    t_start: int,
    n_bins: int,
    sub_bin_us: int,
    metric: MetricKind,
    scale: float,
) -> list[int]:
    idx = np.fromiter(
        ((e.timestamp - t_start) // sub_bin_us for e in events), dtype=np.int64, count=len(events)
    )
    if metric is MetricKind.ARRIVALS:
        counts = np.bincount(idx, minlength=n_bins) if len(idx) else np.zeros(n_bins, dtype=np.int64)
        return [int(c) for c in counts]
    values = np.fromiter(
        (e.cpu_request if metric is MetricKind.CPU else e.mem_request for e in events),
        dtype=np.float64,
        count=len(events),
    )
    sums = (
        np.bincount(idx, weights=values, minlength=n_bins) if len(idx) else np.zeros(n_bins)
    )
    # Round half up rather than half even so output is predictable from the text.
    return [int(math.floor(scale * s + 0.5)) for s in sums]


def aggregate_period(
    events: Sequence[TraceEvent],
    window: tuple[int, int],
    metric: MetricKind,
    sub_bin_seconds: int,
    scale: float = 100.0,
    tp_index: int = 1,
    cycle_index: int = 1,
) -> PeriodObservation:
    """Aggregate the events of one window [t_start, t_end) into samples.

    Events outside the window are ignored; the window length must divide
    evenly into sub-bins. For CPU/memory the per-sub-bin request sums are
    multiplied by ``scale`` and rounded to the nearest integer.
    """
    t_start, t_end = window
    if t_end <= t_start:
        raise ValueError(f"window end {t_end} must exceed start {t_start}")
    sub_bin_us = sub_bin_seconds * US_PER_SECOND
    if sub_bin_seconds < 1 or (t_end - t_start) % sub_bin_us != 0:
        raise ValueError(
            f"window length {t_end - t_start}us is not a whole number of {sub_bin_seconds}s sub-bins"
        )
    if metric is not MetricKind.ARRIVALS and scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    n_bins = (t_end - t_start) // sub_bin_us
    inside = [e for e in events if t_start <= e.timestamp < t_end]
    samples = _bin_samples(inside, t_start, n_bins, sub_bin_us, metric, scale)
    return PeriodObservation(
        tp_index=tp_index,
        cycle_index=cycle_index,
        metric=metric,
        samples=samples,
        sub_bin_seconds=sub_bin_seconds,
    )


def aggregate_span(
    events: Sequence[TraceEvent],
    start_us: int,
    num_tps: int,
    tp_minutes: int,
    pp_tps: int,
    metric: MetricKind,
    sub_bin_seconds: int = 60,
    scale: float = 100.0,
) -> list[PeriodObservation]:
    """Aggregate a sorted event sequence into consecutive target periods.

    Period i (0-based) covers [start_us + i*TP, start_us + (i+1)*TP) and is
    stamped with pattern position ``i % pp_tps + 1`` and cycle
    ``i // pp_tps + 1``.
    """
    if num_tps < 1:
        raise ValueError(f"need at least one target period, got {num_tps}")
    tp_us = tp_minutes * 60 * US_PER_SECOND
    timestamps = [e.timestamp for e in events]
    observations = []
    for i in range(num_tps):
        lo = start_us + i * tp_us
        hi = lo + tp_us
        a = bisect_left(timestamps, lo)
        b = bisect_left(timestamps, hi)
        observations.append(
            aggregate_period(
                events[a:b],
                (lo, hi),
                metric,
                sub_bin_seconds,
                scale,
                tp_index=i % pp_tps + 1,
                cycle_index=i // pp_tps + 1,
            )
        )
    return observations


def span_tps(events: Sequence[TraceEvent], start_us: int, tp_minutes: int) -> int:
    """Number of target periods needed to cover every event at/after start."""
    tp_us = tp_minutes * 60 * US_PER_SECOND
    last = max((e.timestamp for e in events if e.timestamp >= start_us), default=None)
    if last is None:
        return 0
    return (last - start_us) // tp_us + 1


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
            samples = " ".join(str(s) for s in obs.samples)
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


def write_trace(path: str | Path, events: Iterable[TraceEvent]) -> None:
    """Write events in the packaged trace layout (with header row)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,job_id,task_id,cpu_request,mem_request\n")
        for e in events:
            fh.write(f"{e.timestamp},{e.job_id},{e.task_id},{e.cpu_request!r},{e.mem_request!r}\n")
