"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas, in
arbitrary precision (mpmath) where arithmetic is involved, sharing no code
with the package internals it verifies. Where the package must match to the
bit (trace aggregation, synthetic event placement, the LLR solve, window
reads and the forecasting loop), the reference keeps the plain one-pass,
per-period, per-cell or per-step loop with the same float operations; the
LLR and loop references take only the kernel weight, the bandwidth rule and
the observe step from the package. The trace reader reference is the
per-row ``csv`` reader, kept verbatim with its two helpers, and so is the
bulk reader's pre-scan with bytes methods (``plain_line_count``); the trace and
observation writer references format one row and one sample at a time, also
kept verbatim, and so are the per-period aggregation (``aggregate_span``,
one list of Python ints per period) and the line-at-a-time observations
reader (``read_observations``, every sample through ``int``) that the
columnar forms replaced. So are the step-by-step forecasting run (one
``predict_step``/``observe_step`` pair per observation), the two baseline
predictors (``baseline_naive`` and ``baseline_poisson_window``, one history
at a time) with the per-step baseline loop built on them, the per-record
scoring loop of ``evaluate_records`` (``evaluate_records_per_record``, whose
baselines come from that per-step loop), and the sweep that runs and scores
the whole stream once per configuration. ``fsum_rows`` is the per-row
``math.fsum`` loop that the LLR's batch sum used before it was vectorised,
kept verbatim.
"""

from __future__ import annotations

import csv
import math
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np

from cyclecast.evaluation import (
    EvaluationReport,
    _bandwidth_value,
    _poisson_window_weights,
    _report,
    config_id,
)
from cyclecast.forecaster import PredictionRecord, observe_step, predict_step, run
from cyclecast.llr import Fallback, effective_bandwidth, kernel_weight
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
_UTF8_BOM = b"\xef\xbb\xbf"
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


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


def plain_line_count(path: str | Path) -> int | None:
    """The bulk trace reader's pre-scan with bytes methods, a block of ``_SCAN_BLOCK`` bytes at a time."""
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
    offset, the cycle rows in order, reading each cell through ``get``.
    """
    entries = []
    for offset in range(1, n + 1):
        position = (ds.p - n + offset - 1) % ds.m + 1
        for cycle in range(1, ds.l + 1):
            v = ds.get(position, cycle)
            if v is not None:
                entries.append((offset, v))
    return entries


def fsum_rows(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, one row at a time."""
    return np.array([math.fsum(row) for row in terms.tolist()])


def _one_pass_line(points, weights, x_u):
    support = [(x, y, w) for (x, y), w in zip(points, weights) if w > 0]
    if len({x for x, _, _ in support}) < 2:
        return None
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
        records = run(stream, cfg)
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
