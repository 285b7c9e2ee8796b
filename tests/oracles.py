"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas, in
arbitrary precision (mpmath) where arithmetic is involved, sharing no code
with the package internals it verifies. Where the package must match to the
bit (trace aggregation, synthetic event placement, the LLR solve, window
reads and the forecasting loop), the reference keeps the plain one-pass,
per-period, per-cell or per-step loop with the same float operations; the
LLR and loop references take only the observe step from the package. The
trace reader reference is the per-row ``csv`` reader, kept verbatim with its
two helpers. The
bulk reader's pre-scan is restated with bytes methods (``plain_file``); the trace and
observation writer references format one row and one sample at a time, also
kept verbatim, and so are the per-period aggregation (``aggregate_span``,
one list of Python ints per period) and the line-at-a-time observations
reader (``read_observations``, every sample through ``int``) that the
columnar forms replaced. So are the step-by-step forecasting run (one
``predict_step``/``observe_step`` pair per observation), the two baseline
predictors (``baseline_naive`` and ``baseline_poisson_window``, one history
at a time) with the per-step baseline loop built on them, the per-record
scoring loop of ``evaluate_records`` (``evaluate_records_per_record``, whose
baselines come from that per-step loop and whose report comes from
``_report``, the report builder the scorer used before it folded it in,
kept verbatim), and the sweep that runs and scores
the whole stream once per configuration. ``fsum_rows`` is the per-row
``math.fsum`` loop that the LLR's batch sum used before it was vectorised,
kept verbatim. So is the scalar LLR planner that the shape planner
replaced: ``kernel_weight``, ``effective_bandwidth``, ``_line_plan``,
``_mean_plan`` and ``llr_plan``, one point and one widening at a time, and
the one-shape plan it returns (``LLRPlan``, the support as point indices)
with its apply (``llr_apply``, whose batch sums are ``fsum_rows``), with
the forecaster's per-shape plan lookup (``window_plan``) and its per-shape
loop (``predict_per_shape``: one plan and one batch of sums per run of
steps that share a window shape). ``write_record_rows`` and
``read_records_rows`` are the records writer and reader that formatted
and parsed a row at a time, also verbatim, but for the reader's refusal of
a ``tp_index`` of 2**63 or more, a rule of the records file that the
verbatim copy lacked. The one-pass LLR reference
scales its weights by the same power of two as the plan does, which is
exact, so both round alike when a product underflows. ``PredictionRecord``, one object per step, is the form
``run`` returned before its ``Records`` columns, and ``write_records`` the
writer of that form, both kept verbatim; ``prediction_records`` turns
``Records`` into that list, so the step-loop references above compare
against ``run`` unchanged. Also kept verbatim, as functions, are readers
and accessors that the package no longer exports: ``read_truth``,
``read_report_rows``, ``log_likelihood``, ``mape`` (the list-based MAPE,
which scores every pair with a positive target and knows no warm-up) and
the store's ``get`` and ``populated`` (``store_get`` and
``store_populated``). So are the Poisson CDF and quantile walk that
called ``poisson_pmf`` (and through it ``poisson_log_pmf``) once per term
(``cdf_sum`` and ``quantile_walk``, with those two as ``_pmf`` and
``_log_pmf``), before the package wrote the term inline.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np

from cyclecast.evaluation import (
    EvaluationReport,
    _bandwidth_value,
    _poisson_window_weights,
    config_id,
    relative_improvement,
)
from cyclecast.forecaster import _CHUNK, Records, observe_step, predict_step, run
from cyclecast.llr import Fallback, KernelFamily, KernelSpec
from cyclecast.store import EmptyWindowError
from cyclecast.trace import (
    US_PER_SECOND,
    ColumnMapping,
    Events,
    MetricKind,
    Observations,
    ParseResult,
    PeriodObservation,
)

_WRITE_BLOCK = 8192
_SCAN_BLOCK = 1 << 20
_NEWLINE_STRETCH = 1 << 15
_UTF8_BOM = b"\xef\xbb\xbf"
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"
_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PredictionRecord:
    """One step's outcome: predicted rate (None during warm-up) and actual."""

    t: int
    tp_index: int
    predicted: float | None
    actual: float
    fallback: Fallback = Fallback.NONE


def write_records(path: str | Path, records: Sequence[PredictionRecord]) -> None:
    """Write prediction records as delimited text; warm-ups print NA."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n")
        for r in records:
            predicted = "NA" if r.predicted is None else repr(r.predicted)
            fh.write(f"{r.t},{r.tp_index},{predicted},{r.actual!r},{r.fallback.value}\n")


def prediction_records(records: Records) -> list[PredictionRecord]:
    """``records`` as one ``PredictionRecord`` per step, t = 1..N, warm-up steps predicting None."""
    columns = (
        records.tp_index.tolist(), records.predicted.tolist(), records.warm.tolist(),
        records.actual.tolist(), records.fallback.tolist(),
    )
    return [
        PredictionRecord(t, tp_index, None if warm else predicted, actual, fallback)
        for t, (tp_index, predicted, warm, actual, fallback) in enumerate(zip(*columns), start=1)
    ]


def store_populated(ds) -> int:
    """Number of cells holding a rate: min(t - 1, m * l)."""
    return min(ds.t - 1, ds.m * ds.l)


def store_get(ds, position: int, cycle: int) -> float | None:
    """Rate stored at (position, cycle), or None if that cell is empty."""
    if not (1 <= position <= ds.m and 1 <= cycle <= ds.l):
        raise ValueError(
            f"cell ({position}, {cycle}) lies outside [1, {ds.m}] x [1, {ds.l}]"
        )
    v = ds.cells[position - 1, cycle - 1]
    return None if np.isnan(v) else float(v)


def read_truth(path: str | Path) -> list[float]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if not header.startswith("tp,"):
            raise ValueError(f"{path}: not a truth file")
        return [float(line.split(",")[1]) for line in fh if line.strip()]


def read_report_rows(path: str | Path) -> list[dict[str, str]]:
    """Report rows as dicts of raw strings (for tooling and tests)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def log_likelihood(samples: Sequence[float], lam: float) -> float:
    """Poisson log-likelihood of a sample vector at rate ``lam``."""
    n = len(samples)
    if n == 0:
        raise ValueError("log-likelihood of an empty sample vector is undefined")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    s = math.fsum(samples)
    if lam == 0.0:
        return 0.0 if s == 0 else -math.inf
    log_fact = math.fsum(math.lgamma(x + 1.0) for x in samples)
    return s * math.log(lam) - n * lam - log_fact


def cyclic_store_walk(m: int, l: int, rates: Sequence[float]):
    """Replay the store's write order with explicit cursors.

    Starts at p = w = t = 1; each write lands on (p, w), then p advances and
    wraps past m, moving w on by one (wrapping past l). Returns the final
    (p, w, t) and a dict of the cells that hold a rate.
    """
    p, w, t = 1, 1, 1
    cells: dict[tuple[int, int], float] = {}
    for rate in rates:
        cells[(p, w)] = rate
        t += 1
        if p < m:
            p += 1
        else:
            p = 1
            w = w + 1 if w < l else 1
    return p, w, t, cells


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


def parse_rows(lines: Iterable[str], mapping: ColumnMapping) -> ParseResult:
    """The per-row trace reader: one ``csv`` row at a time, per-field ``int``/``float``."""
    reader = csv.reader(lines, delimiter=mapping.delimiter)
    header: list[str] | None = None
    if mapping.has_header:
        header = next(reader, None)
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


def plain_file(path: str | Path) -> bool:
    """The bulk trace reader's pre-scan with bytes methods, on the whole file at once.

    After a leading byte order mark, every byte must be plain, and each
    block of ``_SCAN_BLOCK`` bytes must hold a newline in every whole slice
    of ``_NEWLINE_STRETCH`` bytes from its start.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(_UTF8_BOM)
    if data.translate(None, _PLAIN_BYTES):
        return False
    blocks = [data[i : i + _SCAN_BLOCK] for i in range(0, len(data), _SCAN_BLOCK)]
    stretches = [block[i : i + _NEWLINE_STRETCH] for block in blocks for i in range(0, len(block), _NEWLINE_STRETCH)]
    return all(b"\n" in stretch for stretch in stretches if len(stretch) == _NEWLINE_STRETCH)


def write_trace_rows(path: str | Path, events: Events, tp_minutes: int) -> None:
    """The trace writer that formats every row on its own, one ``fh.write`` per row."""
    tp_us = tp_minutes * 60 * US_PER_SECOND
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,job_id,task_id,cpu_request,mem_request\n")
        # Plain Python values: repr of a numpy float is not its text form.
        # Converted a block at a time, so the lists stay small.
        for lo in range(0, len(events), _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            stamps = events.timestamp[block]
            columns = (stamps.tolist(), (stamps // tp_us + 1).tolist(),
                       events.cpu[block].tolist(), events.mem[block].tolist())
            for ts, tp, cpu, mem in zip(*columns):
                fh.write(f"{ts},j{tp},j{tp},{cpu!r},{mem!r}\n")


def write_observations_per_sample(
    path: str | Path, observations: Sequence[PeriodObservation], scale: float
) -> None:
    """The observations writer that formats a period's samples through a generator."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n")
        for obs in observations:
            samples = " ".join(str(s) for s in obs.samples)
            fh.write(
                f"{obs.tp_index},{obs.cycle_index},{obs.metric.value},"
                f"{obs.sub_bin_seconds},{scale!r},{samples}\n"
            )


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
        with np.errstate(over="ignore"):  # huge scales overflow to inf, which int() refuses
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


def aggregate_per_period(
    timestamps: Sequence[int],
    values: Sequence[float] | None,
    start_us: int,
    num_tps: int,
    tp_us: int,
    sub_bin_us: int,
    scale: float,
) -> list[list[int]]:
    """Per-period samples by filtering the events of one period at a time.

    Period i covers [start_us + i*tp_us, start_us + (i+1)*tp_us). Its
    events, kept in input order, are binned with ``np.bincount``: counted
    when ``values`` is None, else their values summed per sub-bin, times
    ``scale``, rounded half up.
    """
    n_bins = tp_us // sub_bin_us
    periods = []
    for i in range(num_tps):
        lo = start_us + i * tp_us
        inside = [j for j, ts in enumerate(timestamps) if lo <= ts < lo + tp_us]
        idx = np.array([(timestamps[j] - lo) // sub_bin_us for j in inside], dtype=np.int64)
        if values is None:
            periods.append([int(c) for c in np.bincount(idx, minlength=n_bins)])
            continue
        weights = np.array([values[j] for j in inside], dtype=np.float64)
        sums = np.bincount(idx, weights=weights, minlength=n_bins)
        periods.append([int(math.floor(scale * s + 0.5)) for s in sums])
    return periods


def place_events(counts: Sequence[int], sub_bin_us: int) -> list[int]:
    """Synthetic event timestamps, one sub-bin at a time.

    Sub-bin b starts at b*sub_bin_us; its ``count`` events sit at evenly
    spaced offsets int((i + 0.5) * (sub_bin_us / count)).
    """
    timestamps = []
    for b, count in enumerate(counts):
        for i in range(count):
            timestamps.append(b * sub_bin_us + int((i + 0.5) * (sub_bin_us / count)))
    return timestamps


def exact_mean(samples: Sequence[int]) -> float:
    """Arithmetic mean via exact rational arithmetic."""
    return float(Fraction(sum(int(s) for s in samples), len(samples)))


def pmf_highprec(lam: float, k: int, dps: int = 60) -> float:
    """Poisson PMF lam^k e^-lam / k! evaluated at high precision."""
    with mp.workdps(dps):
        if lam == 0:
            return 1.0 if k == 0 else 0.0
        lam_mp = mp.mpf(lam)
        return float(lam_mp**k * mp.e ** (-lam_mp) / mp.factorial(k))


def quantile_bruteforce(lam: float, p: float, dps: int = 60) -> int:
    """Smallest k with the cumulative PMF sum reaching p, summed term by term."""
    with mp.workdps(dps):
        if lam == 0:
            return 0
        lam_mp = mp.mpf(lam)
        term = mp.e ** (-lam_mp)  # PMF(0)
        total = term
        k = 0
        while total < p:
            k += 1
            term = term * lam_mp / k
            total += term
        return k


def _log_pmf(lam: float, k: int) -> float:
    """Natural log of P(X = k) for X ~ Poisson(lam); -inf where the mass is 0."""
    if k < 0:
        raise ValueError(f"count must be nonnegative, got {k}")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 0.0 if k == 0 else -math.inf
    # lgamma keeps k up to ~1e6 stable where a naive factorial overflows.
    return k * math.log(lam) - lam - math.lgamma(k + 1.0)


def _pmf(lam: float, k: int) -> float:
    """P(X = k) for X ~ Poisson(lam), evaluated in log space."""
    logp = _log_pmf(lam, k)
    if logp == -math.inf:
        return 0.0
    return math.exp(logp)


def cdf_sum(lam: float, k: int) -> float:
    """P(X <= k) by cumulative PMF summation, capped at 1.0."""
    if k < 0:
        raise ValueError(f"count must be nonnegative, got {k}")
    total = math.fsum(_pmf(lam, i) for i in range(k + 1))
    return min(total, 1.0)


def quantile_walk(lam: float, p: float) -> int:
    """Smallest integer k with CDF(k) >= p.

    Raises
    ------
    ValueError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 0
    # Walk the CDF upward; the hard cap is far beyond any p < 1 of interest
    # and only guards against float round-off near 1.
    cap = int(lam + 40.0 * math.sqrt(lam + 1.0) + 1000.0)
    total = 0.0
    for k in range(cap + 1):
        total += _pmf(lam, k)
        if total >= p:
            return k
    return cap


def _kernel_highprec(family: str, u: mp.mpf) -> mp.mpf:
    if family == "epanechnikov":
        return mp.mpf("0.75") * (1 - u * u) if u < 1 else mp.mpf(0)
    if family == "biweight":
        return mp.mpf(15) / 16 * (1 - u * u) ** 2 if u < 1 else mp.mpf(0)
    if family == "gaussian":
        return mp.e ** (-u * u / 2) / mp.sqrt(2 * mp.pi)
    raise ValueError(family)


def knearest_bandwidth(x_u: float, xs: Sequence[float], k: int) -> float:
    """k-th nearest distance; independent of the package implementation."""
    return sorted(abs(x - x_u) for x in xs)[k - 1]


def llr_normal_equations(
    points: Sequence[tuple[float, float]],
    x_u: float,
    family: str,
    h: float,
    dps: int = 50,
) -> float:
    """Weighted least-squares line at x_u by uncentered normal equations.

    Solves the 2x2 system in ``dps``-digit arithmetic straight from the
    definition (design matrix of ones and x, diagonal kernel weights).
    """
    with mp.workdps(dps):
        xu = mp.mpf(x_u)
        hh = mp.mpf(h)
        s0 = sx = sxx = sy = sxy = mp.mpf(0)
        for x, y in points:
            xm, ym = mp.mpf(x), mp.mpf(y)
            w = _kernel_highprec(family, abs(xm - xu) / hh)
            s0 += w
            sx += w * xm
            sxx += w * xm * xm
            sy += w * ym
            sxy += w * xm * ym
        det = s0 * sxx - sx * sx
        alpha = (sxx * sy - sx * sxy) / det
        beta = (s0 * sxy - sx * sy) / det
        return float(alpha + beta * xu)


def weighted_window_mean(history: Sequence[float], window: int) -> float:
    """Reference for the Poisson-weighted moving-window baseline."""
    take = min(window, len(history))
    weights = [pmf_highprec(float(window), i) for i in range(take)]
    values = [history[-1 - i] for i in range(take)]
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)


def window_entries(ds, n: int) -> list[tuple[int, float]]:
    """Populated (offset, rate) cells of the trailing n-position window.

    Walks offsets 1..n (offset n is the cursor's position) and, within an
    offset, the cycle rows in order, reading each cell through ``store_get``.
    """
    entries = []
    for offset in range(1, n + 1):
        position = (ds.p - n + offset - 1) % ds.m + 1
        for cycle in range(1, ds.l + 1):
            v = store_get(ds, position, cycle)
            if v is not None:
                entries.append((offset, v))
    return entries


def fsum_rows(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, one row at a time."""
    return np.array([math.fsum(row) for row in terms.tolist()])


@dataclass(frozen=True, eq=False)
class LLRPlan:
    """Everything of a fit that depends on the xs alone.

    The fitted value is ``(s2 * sy - s1 * sxy) / det + beta * du`` with
    ``sy = fsum(w * y)`` and ``sxy = fsum(wdx * y)`` over the ``support``
    points, ``beta = (s0 * sxy - s1 * sy) / det`` and ``du = x_u - xbar``;
    a mean (``wdx`` is None) is ``sy / s0``.
    """

    fallback: Fallback
    support: np.ndarray
    w: np.ndarray
    wdx: np.ndarray | None
    s0: float
    s1: float = 0.0
    s2: float = 0.0
    det: float = 0.0
    du: float = 0.0

    def __post_init__(self) -> None:
        # Callers cache and share plans, so their arrays must not change.
        for a in (self.support, self.w, self.wdx):
            if a is not None:
                a.flags.writeable = False


def _fsum(terms: np.ndarray) -> float | np.ndarray:
    """Correctly rounded sum of a 1-D array, or of each row of a 2-D one."""
    return math.fsum(terms.tolist()) if terms.ndim == 1 else fsum_rows(terms)


def llr_apply(plan: LLRPlan, ys: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """The planned fit's value for ``ys``, given in the order of the plan's xs.

    A 2-D ``ys`` holds one such sequence per row and gives an array with one
    value per row, each the same float a 1-D call on that row returns: the
    sums are per row, and the rest is the same IEEE operations elementwise.
    """
    y = np.asarray(ys, dtype=np.float64)[..., plan.support]
    sy = _fsum(plan.w * y)
    sxy = None if plan.wdx is None else _fsum(plan.wdx * y)
    # A 1-D call's sums are Python floats, whose arithmetic overflows to inf
    # or gives nan without a word; a batch's rows must do the same.
    with np.errstate(over="ignore", invalid="ignore"):
        if sxy is None:
            return sy / plan.s0
        alpha = (plan.s2 * sy - plan.s1 * sxy) / plan.det
        beta = (plan.s0 * sxy - plan.s1 * sy) / plan.det
        return alpha + beta * plan.du


def kernel_weight(spec: KernelSpec, x_u: float, x_i: float, h: float) -> float:
    """Weight of observation ``x_i`` for a fit at ``x_u`` with bandwidth ``h``.

    Nonincreasing in ``|x_i - x_u|`` for every family; the compact-support
    families are exactly zero at and beyond one bandwidth.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    u = abs(x_i - x_u) / h
    if spec.family is KernelFamily.EPANECHNIKOV:
        return 0.75 * (1.0 - u * u) if u < 1.0 else 0.0
    if spec.family is KernelFamily.BIWEIGHT:
        return (15.0 / 16.0) * (1.0 - u * u) ** 2 if u < 1.0 else 0.0
    return _GAUSS_NORM * math.exp(-0.5 * u * u)


def effective_bandwidth(spec: KernelSpec, x_u: float, xs: Sequence[float]) -> float:
    """Resolve the spec's bandwidth mode to a numeric bandwidth at ``x_u``.

    Fixed-radius mode returns ``h`` unchanged. k-nearest mode returns the
    distance from ``x_u`` to its k-th nearest x. A zero k-th distance (cycle
    replicates stacked at the query x) is promoted to the smallest positive
    spacing between distinct xs; if every x coincides there is no usable
    bandwidth and 0.0 is returned so callers can fall back to a local mean.

    Raises
    ------
    ValueError
        If ``xs`` is empty, or k exceeds the number of observations.
    """
    if not xs:
        raise ValueError("no observations to derive a bandwidth from")
    if spec.h is not None:
        return spec.h
    k = spec.k
    assert k is not None
    if k > len(xs):
        raise ValueError(f"k={k} exceeds the {len(xs)} available observations")
    dists = sorted(abs(x - x_u) for x in xs)
    h = dists[k - 1]
    if h > 0:
        return h
    uniq = sorted(set(xs))
    gaps = [b - a for a, b in zip(uniq, uniq[1:])]
    return min(gaps) if gaps else 0.0


def _line_plan(
    xs: Sequence[float], weights: Sequence[float], x_u: float, fallback: Fallback
) -> LLRPlan | None:
    """Weighted least-squares line at x_u, or None if the system is singular.

    Solves the 2x2 normal equations in coordinates centered on the weighted
    mean of x, which keeps the system conditioned at large period indices.
    The weights are first scaled by the power of two that brings the largest
    into [1, 2): far-tail Gaussian weights can be so small that their
    products underflow. The scaling is exact, so the fitted value is the
    same wherever nothing underflowed; it only changes the plan's weights.
    """
    support = [i for i, w in enumerate(weights) if w > 0]
    if len({xs[i] for i in support}) < 2:
        return None
    sx = [xs[i] for i in support]
    shift = 2.0 ** (1 - math.frexp(max(weights[i] for i in support))[1])
    sw = [weights[i] * shift for i in support]
    s0 = math.fsum(sw)
    xbar = math.fsum(w * x for x, w in zip(sx, sw)) / s0
    wdx = [w * (x - xbar) for x, w in zip(sx, sw)]
    s1 = math.fsum(wdx)
    s2 = math.fsum(w * (x - xbar) ** 2 for x, w in zip(sx, sw))
    det = s0 * s2 - s1 * s1
    if det <= 0:
        return None
    return LLRPlan(fallback, np.array(support), np.array(sw), np.array(wdx), s0, s1, s2, det, x_u - xbar)


def _mean_plan(weights: Sequence[float], s0: float, fallback: Fallback) -> LLRPlan:
    return LLRPlan(fallback, np.arange(len(weights)), np.array(weights, dtype=np.float64), None, s0)


def llr_plan(xs: Sequence[float], x_u: float, spec: KernelSpec) -> LLRPlan:
    """Plan the local linear fit at ``x_u`` over observations at ``xs``.

    Resolves the bandwidth and walks the fallback chain (widen up to 3
    doublings, kernel-weighted mean, global line, plain mean); none of it
    looks at the ys.

    Raises
    ------
    ValueError
        If ``xs`` is empty, or a k-nearest spec asks for more neighbors
        than there are observations.
    """
    if not xs:
        raise ValueError("cannot fit with zero points")
    h0 = effective_bandwidth(spec, x_u, xs)

    weights: list[float] = [0.0] * len(xs)
    if h0 > 0:
        for widen in range(4):
            h = h0 * (2.0**widen)
            weights = [kernel_weight(spec, x_u, x, h) for x in xs]
            plan = _line_plan(xs, weights, x_u, Fallback.NONE if widen == 0 else Fallback.WIDENED_H)
            if plan is not None:
                return plan

    wsum = math.fsum(weights)
    if wsum > 0:
        return _mean_plan(weights, wsum, Fallback.WEIGHTED_MEAN)
    ones = [1.0] * len(xs)
    if h0 == 0:
        # Every observation sits at one x: the local constant fit is the mean.
        return _mean_plan(ones, float(len(xs)), Fallback.WEIGHTED_MEAN)
    plan = _line_plan(xs, ones, x_u, Fallback.GLOBAL_LINE)
    return plan if plan is not None else _mean_plan(ones, float(len(xs)), Fallback.GLOBAL_LINE)


@functools.lru_cache(maxsize=16)
def window_plan(empty: bytes, n: int, l: int, kernel: KernelSpec) -> LLRPlan:
    """LLR plan for a window whose empty cells are the n x l mask ``empty``.

    The xs are the offsets of the populated cells, in ``window_cells`` order;
    a k-nearest count is clamped to their number (see ``predict_step``).
    """
    populated = ~np.frombuffer(empty, dtype=bool).reshape(n, l)
    xs = (np.nonzero(populated)[0] + 1).astype(np.float64).tolist()
    if kernel.k is not None and kernel.k > len(xs):
        kernel = replace(kernel, k=len(xs))
    return llr_plan(xs, float(n), kernel)


def predict_per_shape(
    history: np.ndarray, cfg: ForecastConfig, w0: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictions for steps ``lo..hi-1`` of a run that starts after write ``w0``.

    ``history`` is ``_history`` of the store before the run and the run's
    fitted rates. Returns each step's clamped prediction (0.0 at a warm-up
    step), the warm-up mask and each step's fallback: the values of
    ``predict_step`` at those steps, bit for bit.

    The windows are read from ``history`` a chunk of steps at a time, and
    each run of steps that share a window shape is solved with one plan.
    """
    m, l, n = cfg.pp_tps, cfg.cycles, cfg.up_tps

    def rows(us: np.ndarray) -> np.ndarray:
        # Column c of the row that write u wrote last holds write u - ((u // m - c) mod l) * m.
        return history[us[:, None] - (us[:, None] // m - np.arange(l)) % l * m + (m * l - w0)]

    predicted = np.zeros(hi - lo)
    warm = np.ones(hi - lo, dtype=bool)
    fallbacks = np.full(hi - lo, Fallback.NONE, dtype=object)
    for c in range(lo, hi, _CHUNK):
        writes = w0 + np.arange(c, min(c + _CHUNK, hi))
        size = len(writes)
        # After W writes, window offset j < n is the row of write
        # u = W - n + j, which no later write has reached yet: its cells
        # hold what they held after write u, one row of ``earlier`` that
        # n - 1 consecutive steps share. Offset n is the cursor's row,
        # last written by write W - m.
        earlier = rows(np.arange(writes[0] + 1 - n, writes[-1]))
        cursor = rows(writes - m)
        block = np.concatenate(
            [earlier[np.arange(size)[:, None] + np.arange(n - 1)], cursor[:, None]], axis=1
        ).reshape(size, n * l)
        empty = np.isnan(block)
        # Runs of consecutive steps whose windows share one empty mask.
        starts = np.flatnonzero((empty[1:] != empty[:-1]).any(axis=1)) + 1
        bounds = [0, *starts.tolist(), size]
        for a, b in zip(bounds, bounds[1:]):
            mask = empty[a]
            if mask.all():
                continue  # warm-up: the window holds no rate yet
            plan = window_plan(mask.tobytes(), n, l, cfg.kernel)
            try:
                values = llr_apply(plan, block[a:b, ~mask])
            except (ValueError, OverflowError):
                # A batch sums every row's sy before any row's sxy, so it can fail at a
                # later step than the step loop; one row at a time, the first step fails.
                values = np.array([llr_apply(plan, ys) for ys in block[a:b, ~mask]])
            steps = slice(c - lo + a, c - lo + b)
            # max(v, 0.0) per value: -0.0 and NaN pass through as they are.
            predicted[steps] = np.where(values < 0, 0.0, values)
            warm[steps] = False
            fallbacks[steps] = plan.fallback
    return predicted, warm, fallbacks


def write_record_rows(path: str | Path, records: Records) -> None:
    """Write records as delimited text, one step per row; warm-ups print NA.

    Each rate is written as the ``repr`` of its Python float, which reads
    back to the same bits.
    """
    columns = (
        records.tp_index.tolist(), records.predicted.tolist(), records.warm.tolist(),
        records.actual.tolist(), records.fallback.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n")
        fh.writelines(
            f"{t},{tp},{'NA' if warm else repr(p)},{a!r},{f.value}\n"
            for t, (tp, p, warm, a, f) in enumerate(zip(*columns), start=1)
        )


def _rate(text: str) -> float:
    v = float(text)
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"rate must be finite and nonnegative, got {text!r}")
    return v


def read_records_rows(path: str | Path) -> Records:
    """Read records produced by ``write_records``.

    Refuses what ``run`` cannot write: rates must be finite and
    nonnegative, the steps must run t = 1, 2, 3, ... in row order, each
    ``tp_index`` must be at least 1, below 2**63 (an int64) and follow the
    one before it or wrap to 1, and ``NA`` (a warm-up step) may only lead
    the file. The wraps must agree on one pattern length P: every wrap
    comes from ``tp_index`` P, and no ``tp_index`` after the first wrap
    exceeds P. Every row error names the file and line.
    """
    tp_index: list[int] = []
    predicted: list[float] = []
    warm: list[bool] = []
    actual: list[float] = []
    fallback: list[Fallback] = []
    period = None  # the pattern length, from the first wrap on
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if not header.startswith("t,tp_index,"):
            raise ValueError(f"{path}: not a prediction records file")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 5:
                    raise ValueError(f"expected 5 fields, got {len(parts)}")
                t = int(parts[0])
                if t != len(tp_index) + 1:
                    raise ValueError(f"step t={t} out of order: expected t={len(tp_index) + 1}")
                tp = int(parts[1])
                if tp < 1:
                    raise ValueError(f"tp_index={tp} is below 1")
                if tp >= 2**63:
                    raise ValueError(f"tp_index={tp} is not below 2**63")
                if tp_index and tp not in (tp_index[-1] + 1, 1):
                    raise ValueError(
                        f"tp_index={tp} follows tp_index={tp_index[-1]}: "
                        f"expected {tp_index[-1] + 1} or a wrap to 1"
                    )
                if tp_index and tp == 1:
                    if period is None:
                        period = tp_index[-1]
                    elif tp_index[-1] != period:
                        raise ValueError(
                            f"wrap to 1 after tp_index={tp_index[-1]}: "
                            f"the first wrap set the pattern length to {period}"
                        )
                if period is not None and tp > period:
                    raise ValueError(f"tp_index={tp} exceeds the pattern length {period} set by the first wrap")
                p = None if parts[2] == "NA" else _rate(parts[2])
                if p is None and warm and not warm[-1]:
                    raise ValueError("NA prediction after a numeric one: warm-up steps only lead a run")
                a = _rate(parts[3])
                f = Fallback(parts[4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            tp_index.append(tp)
            predicted.append(0.0 if p is None else p)
            warm.append(p is None)
            actual.append(a)
            fallback.append(f)
    return Records(tp_index, predicted, warm, actual, fallback)


def _one_pass_line(points, weights, x_u):
    support = [(x, y, w) for (x, y), w in zip(points, weights) if w > 0]
    if len({x for x, _, _ in support}) < 2:
        return None
    # Weights scaled by the power of two that brings the largest into [1, 2),
    # as the plan scales them: exact, and it keeps far-tail products and
    # subnormal ys from rounding differently.
    shift = 2.0 ** (1 - math.frexp(max(w for _, _, w in support))[1])
    support = [(x, y, w * shift) for x, y, w in support]
    s0 = math.fsum(w for _, _, w in support)
    xbar = math.fsum(w * x for x, _, w in support) / s0
    s1 = math.fsum(w * (x - xbar) for x, _, w in support)
    s2 = math.fsum(w * (x - xbar) ** 2 for x, _, w in support)
    sy = math.fsum(w * y for _, y, w in support)
    sxy = math.fsum(w * (x - xbar) * y for x, y, w in support)
    det = s0 * s2 - s1 * s1
    if det <= 0:
        return None
    alpha = (s2 * sy - s1 * sxy) / det
    beta = (s0 * sxy - s1 * sy) / det
    return alpha + beta * (x_u - xbar)


def llr_one_pass(points, x_u, spec):
    """Local linear fit solved from the points in one pass: (value, fallback).

    Per widening round, weighs every point, keeps the positive-weight
    support and solves the centered 2x2 normal equations; then the
    kernel-weighted mean, the plain mean (all xs equal), the global line
    and the plain mean again, in that order.
    """
    xs = [x for x, _ in points]
    h0 = effective_bandwidth(spec, x_u, xs)
    weights = [0.0] * len(points)
    if h0 > 0:
        for widen in range(4):
            h = h0 * (2.0**widen)
            weights = [kernel_weight(spec, x_u, x, h) for x in xs]
            value = _one_pass_line(points, weights, x_u)
            if value is not None:
                return value, Fallback.NONE if widen == 0 else Fallback.WIDENED_H
    wsum = math.fsum(weights)
    if wsum > 0:
        return math.fsum(w * y for (_, y), w in zip(points, weights)) / wsum, Fallback.WEIGHTED_MEAN
    if h0 == 0:
        return math.fsum(y for _, y in points) / len(points), Fallback.WEIGHTED_MEAN
    value = _one_pass_line(points, [1.0] * len(points), x_u)
    if value is None:
        value = math.fsum(y for _, y in points) / len(points)
    return value, Fallback.GLOBAL_LINE


def forecast_loop(observations, cfg) -> list:
    """Predict-then-observe records, one window read and one solve per step.

    Each step reads the window with ``window_entries``, clamps a k-nearest
    bandwidth to the window's population, solves with ``llr_one_pass`` and
    clamps a negative value to zero; an empty window is a warm-up record.
    """
    ds = cfg.new_store()
    records = []
    for t, obs in enumerate(observations, start=1):
        tp_index = ds.p
        entries = window_entries(ds, cfg.up_tps)
        if entries:
            points = [(float(x), y) for x, y in entries]
            kernel = cfg.kernel
            if kernel.k is not None and kernel.k > len(points):
                kernel = type(kernel)(family=kernel.family, k=len(points))
            value, fallback = llr_one_pass(points, float(cfg.up_tps), kernel)
            predicted = max(value, 0.0)
        else:
            predicted, fallback = None, Fallback.NONE
        actual = observe_step(ds, obs)
        records.append(PredictionRecord(t, tp_index, predicted, actual, fallback))
    return records


def run_per_step(observations, cfg, ds=None) -> list:
    """Predict-then-observe records, one ``predict_step``/``observe_step`` pair per observation.

    Advances ``ds`` (a fresh store if None) one observation at a time.
    """
    if ds is None:
        ds = cfg.new_store()
    records = []
    for t, obs in enumerate(observations, start=1):
        tp_index = ds.p
        try:
            predicted, fallback = predict_step(ds, cfg)
        except EmptyWindowError:
            predicted, fallback = None, Fallback.NONE
        actual = observe_step(ds, obs)
        records.append(PredictionRecord(t, tp_index, predicted, actual, fallback))
    return records


def baseline_naive(history: Sequence[float]) -> float:
    """Persistence forecast: the newest historical rate."""
    if not history:
        raise ValueError("naive baseline needs at least one historical value")
    return history[-1]


def baseline_poisson_window(history: Sequence[float], window: int) -> float:
    """Moving-window forecast with Poisson-PMF weights.

    Averages the last ``window`` values (oldest-to-newest input), weighting
    the value ``i`` steps back from the newest by the Poisson(window) mass
    at i. With fewer than ``window`` values, uses what there is.
    """
    if not history:
        raise ValueError("windowed baseline needs at least one historical value")
    num = 0.0
    den = 0.0
    for w, v in zip(_poisson_window_weights(window, min(window, len(history))), reversed(history)):
        num += w * v
        den += w
    return num / den


def baseline_errors_per_step(actuals, retained_idx, baseline_window):
    """Naive and Poisson-window baseline errors, one history slice per retained step."""
    naive_err = []
    window_err = []
    for i in retained_idx:
        # Both baselines read at most the last baseline_window actuals.
        history = actuals[max(0, i - baseline_window):i]
        if not history:
            continue
        target = actuals[i]
        naive_err.append(abs(baseline_naive(history) - target) / target)
        window_err.append(abs(baseline_poisson_window(history, baseline_window) - target) / target)
    return naive_err, window_err


def _baseline_mapes(actuals: np.ndarray, steps: np.ndarray, window: int) -> tuple[float, float] | None:
    """The naive and Poisson-window baselines' MAPE over ``steps`` (indices
    into ``actuals``, the actual rates of the whole stream), or None if no
    step has history. The errors come from ``baseline_errors_per_step``."""
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    naive_err, window_err = baseline_errors_per_step(actuals.tolist(), steps.tolist(), window)
    if not naive_err:
        return None
    return math.fsum(naive_err) / len(naive_err), math.fsum(window_err) / len(window_err)


def mape(predicted: Sequence[float], target: Sequence[float]) -> float:
    """Mean of |P - T| / T over pairs with T > 0.

    Raises
    ------
    ValueError
        On length mismatch, or when every target is zero.
    """
    if len(predicted) != len(target):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs {len(target)} targets")
    errors = [abs(p - t) / t for p, t in zip(predicted, target) if t > 0]
    if not errors:
        raise ValueError("no nonzero targets to measure against")
    return math.fsum(errors) / len(errors)


def _report(
    cid: str,
    up_tps: int,
    bandwidth: float,
    errors: list[float],
    skipped_zero: int,
    warmup: int,
    baselines: tuple[float, float] | None,
) -> EvaluationReport:
    """The report of a scored span: its errors, counts and the deltas
    against ``baselines``, the naive and Poisson-window MAPE if measured."""
    value = math.fsum(errors) / len(errors) if errors else math.nan
    deltas: dict[str, float] = {}
    if baselines is not None:
        naive_mape, window_mape = baselines
        # A baseline error of exactly zero admits no percentage improvement;
        # leave that delta out rather than divide by it.
        if naive_mape > 0:
            deltas["naive"] = relative_improvement(value, naive_mape)
        if window_mape > 0:
            deltas["poisson_window"] = relative_improvement(value, window_mape)
    return EvaluationReport(
        config_id=cid,
        up_tps=up_tps,
        bandwidth=bandwidth,
        mape=value,
        errors=errors,
        skipped_zero_targets=skipped_zero,
        warmup_steps=warmup,
        baseline_deltas=deltas,
    )


def evaluate_records_per_record(
    records: Sequence[PredictionRecord],
    test_from_t: int = 1,
    cid: str = "run",
    up_tps: int = 0,
    bandwidth: float = 0.0,
    with_baselines: bool = False,
    baseline_window: int = 50,
) -> EvaluationReport:
    """Score the test portion of a prediction-record sequence.

    A record enters the error list only if it has a numeric prediction and a
    nonzero actual; warm-up steps and zero targets are counted separately.
    Baseline predictors see the actual-rate history up to each scored step
    and are measured on exactly the same retained steps, so their deltas are
    like-for-like.
    """
    actuals = [r.actual for r in records]
    errors: list[float] = []
    skipped_zero = 0
    warmup = 0
    retained_idx: list[int] = []
    for i, r in enumerate(records):
        if r.t < test_from_t:
            continue
        if r.predicted is None:
            warmup += 1
            continue
        if r.actual <= 0:
            skipped_zero += 1
            continue
        errors.append(abs(r.predicted - r.actual) / r.actual)
        retained_idx.append(i)
    baselines = None
    if with_baselines and retained_idx:
        baselines = _baseline_mapes(np.asarray(actuals), np.asarray(retained_idx), baseline_window)
    return _report(cid, up_tps, bandwidth, errors, skipped_zero, warmup, baselines)


def sweep_per_config(configs, train, test, with_baselines=False):
    """Every configuration's report, from ``run`` plus ``evaluate_records_per_record`` over train+test."""
    stream = Observations.of([*train, *test])
    reports = []
    for cfg in configs:
        records = prediction_records(run(stream, cfg))
        reports.append(
            evaluate_records_per_record(
                records,
                test_from_t=len(train) + 1,
                cid=config_id(cfg),
                up_tps=cfg.up_tps,
                bandwidth=_bandwidth_value(cfg),
                with_baselines=with_baselines,
                baseline_window=cfg.up_tps,
            )
        )
    reports.sort(key=lambda r: (r.up_tps, r.bandwidth))
    return reports
