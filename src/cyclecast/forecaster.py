"""Forecasting over the cyclic store, online and offline.

Each step first predicts the upcoming target period's rate by local linear
regression over the trailing utilization window (query point = the window's
own trailing offset, i.e. extrapolation at the edge), then fits the period
actually observed and writes that rate into the store, advancing the
cursors. Until the window holds any history the step emits a warm-up marker
instead of a number.

``predict_step`` and ``observe_step`` are that step, for a caller that sees
one period at a time. ``run`` is the offline form over a whole stream: the
store's contents are a function of the rate stream alone, so it fits every
period first, reads each step's window straight from the rates, and solves
each group of steps that share a window shape with one plan. Its records
and final store are the ones the step-by-step loop produces, bit for bit.
Its two phases, ``_fit`` and ``_predict``, are also what the evaluation
sweep runs: one fit for all configurations, and predictions for only the
steps it scores.

Also hosts two reference predictors used for accuracy comparisons: a naive
last-value forecaster and a moving-window scheme that weights recent history
with a Poisson PMF keyed to the window size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .llr import Fallback, KernelSpec, LLRPlan, llr_apply, llr_plan
from .poisson import poisson_mle, poisson_mle_rows, poisson_pmf
from .store import CyclicDataset, EmptyWindowError, _check_rate
from .trace import Observations, PeriodObservation

__all__ = [
    "ForecastConfig",
    "PredictionRecord",
    "predict_step",
    "observe_step",
    "run",
    "baseline_naive",
    "baseline_poisson_window",
    "write_records",
    "read_records",
]


@dataclass(frozen=True)
class ForecastConfig:
    """Window and kernel settings for one forecasting run.

    Unit-free: every length counts target periods, and the forecaster never
    needs to know how long a period is or which metric it measures.
    Defaults: a pattern period of 336 target periods (one week of 30-minute
    periods), a utilization window of 50, 4 stored cycles, and an
    Epanechnikov kernel over the 20 nearest points.
    """

    pp_tps: int = 336
    up_tps: int = 50
    cycles: int = 4
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec(k=20))

    def __post_init__(self) -> None:
        if self.pp_tps < 1 or self.cycles < 1:
            raise ValueError("pp_tps and cycles must be positive")
        if not 1 <= self.up_tps <= self.pp_tps:
            raise ValueError(
                f"utilization window of {self.up_tps} periods must lie in [1, pp_tps={self.pp_tps}]"
            )

    def new_store(self) -> CyclicDataset:
        return CyclicDataset(self.pp_tps, self.cycles)


@dataclass(frozen=True)
class PredictionRecord:
    """One step's outcome: predicted rate (None during warm-up) and actual."""

    t: int
    tp_index: int
    predicted: float | None
    actual: float
    fallback: Fallback = Fallback.NONE


@functools.lru_cache(maxsize=16)
def _window_plan(empty: bytes, n: int, l: int, kernel: KernelSpec) -> LLRPlan:
    """LLR plan for a window whose empty cells are the n x l mask ``empty``.

    The xs are the offsets of the populated cells, in ``window_cells`` order;
    a k-nearest count is clamped to their number (see ``predict_step``).
    """
    populated = ~np.frombuffer(empty, dtype=bool).reshape(n, l)
    xs = (np.nonzero(populated)[0] + 1).astype(np.float64).tolist()
    if kernel.k is not None and kernel.k > len(xs):
        kernel = replace(kernel, k=len(xs))
    return llr_plan(xs, float(n), kernel)


def _check_shape(ds: CyclicDataset, cfg: ForecastConfig) -> None:
    if ds.m != cfg.pp_tps or ds.l != cfg.cycles:
        raise ValueError(
            f"store of {ds.m} positions x {ds.l} cycles does not fit a configuration of "
            f"pp_tps={cfg.pp_tps}, cycles={cfg.cycles}"
        )


def _misplaced(tp_index: int, cursor: int) -> ValueError:
    return ValueError(f"observation for position {tp_index} arrived while the store cursor is at {cursor}")


def predict_step(ds: CyclicDataset, cfg: ForecastConfig) -> tuple[float, Fallback]:
    """Predict the rate of the period at the store cursor.

    Regresses over the utilization window's (offset, rate) entries and
    evaluates at the trailing offset. A k-nearest bandwidth larger than the
    window's population is clamped so a thin window still predicts. Negative
    extrapolations clamp to zero (rates cannot be negative).

    The regression's plan depends only on which window cells are populated,
    so it is cached per population pattern: once the store is full every
    step reuses one plan and costs a gather and two sums.

    Raises
    ------
    ValueError
        If the store's shape is not the configuration's (``pp_tps`` x ``cycles``).
    EmptyWindowError
        If the window holds no history at all yet.
    """
    _check_shape(ds, cfg)
    block, empty = ds.window_cells(cfg.up_tps)
    plan = _window_plan(empty.tobytes(), cfg.up_tps, ds.l, cfg.kernel)
    return max(llr_apply(plan, block[~empty]), 0.0), plan.fallback


def observe_step(ds: CyclicDataset, obs: PeriodObservation) -> float:
    """Fit the observed period and write the rate at the cursor.

    The observation must be stamped with the cursor's pattern position;
    anything else means the stream is out of order.
    """
    if obs.tp_index != ds.p:
        raise _misplaced(obs.tp_index, ds.p)
    actual = poisson_mle(obs.samples)
    ds.update(actual)
    return actual


# Steps per batch in ``_predict``: bounds its index and value blocks to a few
# hundred windows whatever the stream length.
_CHUNK = 256


def _sources(writes: int | np.ndarray, rows: np.ndarray, m: int, l: int, w0: int) -> np.ndarray:
    """Where cell (row, cycle) of an m x l store reads from after ``writes`` writes.

    Write i lands on row i mod m, cycle column (i // m) mod l, so the cell
    (r, c) holds write q*m + r, with q the newest cycle index congruent to c
    (mod l) that row r had reached. Returns, per ``rows`` entry and cycle
    column, an index into ``[store cells before the run (raveled), rates of
    writes w0, w0 + 1, ...]``: a write from before the run (i < w0, which
    includes never-written cells) is read from the store as it stood.
    ``writes`` broadcasts against ``rows``.
    """
    cycles = np.arange(l)
    qmax = ((writes - rows - 1) // m)[..., None]
    i = (qmax - (qmax - cycles) % l) * m + rows[..., None]
    return np.where(i < w0, rows[..., None] * l + cycles, m * l + i - w0)


def _fit(observations: Observations | Iterable[PeriodObservation], m: int, w0: int) -> np.ndarray:
    """The fitted rate of each period of a stream that follows write ``w0``.

    Checks each period's position against the cursor of an m-position
    store, as ``observe_step`` does: a bad stream raises the step loop's
    ``ValueError`` for its first misplaced period. The rates are
    ``poisson_mle``'s, bit for bit, and always storable: a mean of int64
    counts is finite and nonnegative. Touches no store.

    ``PeriodObservation``s are converted to ``Observations`` first. If they
    do not convert (say, a sample that is not an integer below 2**63), the
    error is the step loop's for the first observation it rejects, if it
    rejects one, else the conversion's.
    """
    if not isinstance(observations, Observations):
        periods = list(observations)
        try:
            observations = Observations.of(periods)
        except ValueError:
            for s, obs in enumerate(periods):
                cursor = (w0 + s) % m + 1
                if obs.tp_index != cursor:
                    raise _misplaced(obs.tp_index, cursor) from None
                _check_rate(poisson_mle(obs.samples))
            raise
    cursor = (w0 + np.arange(len(observations))) % m + 1
    bad = np.flatnonzero(observations.tp_index != cursor)
    if len(bad):
        raise _misplaced(int(observations.tp_index[bad[0]]), int(cursor[bad[0]]))
    return poisson_mle_rows(observations.samples, observations.counts)


def _predict(
    rates: np.ndarray, cfg: ForecastConfig, w0: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, list[Fallback]]:
    """Predictions for steps ``lo..hi-1`` of a run that starts after write ``w0``.

    ``rates`` is ``[the store's cells before the run (raveled), the run's
    fitted rates]``. Returns each step's clamped prediction (0.0 at a
    warm-up step), the warm-up mask and each step's fallback: the values of
    ``predict_step`` at those steps, bit for bit.

    The windows are read from ``rates`` a chunk of steps at a time, and each
    run of steps that share a window shape is solved with one plan.
    """
    m, l, n = cfg.pp_tps, cfg.cycles, cfg.up_tps
    predicted = np.zeros(hi - lo)
    warm = np.ones(hi - lo, dtype=bool)
    fallbacks = [Fallback.NONE] * (hi - lo)
    plans: dict[bytes, LLRPlan] = {}
    for c in range(lo, hi, _CHUNK):
        writes = w0 + np.arange(c, min(c + _CHUNK, hi))
        size = len(writes)
        # After W writes, window offset j < n is the row of write
        # u = W - n + j, which no later write has reached yet: its cells
        # hold what they held after write u, one row of ``earlier`` that
        # n - 1 consecutive steps share. Offset n is the cursor's row.
        us = np.arange(writes[0] + 1 - n, writes[-1])
        earlier = rates[_sources(us + 1, us % m, m, l, w0)]
        cursor = rates[_sources(writes, writes % m, m, l, w0)]
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
            key = mask.tobytes()
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _window_plan(key, n, l, cfg.kernel)
            values = llr_apply(plan, block[a:b, ~mask])
            steps = slice(c - lo + a, c - lo + b)
            # max(v, 0.0) per value: -0.0 and NaN pass through as they are.
            predicted[steps] = np.where(values < 0, 0.0, values)
            warm[steps] = False
            fallbacks[steps] = [plan.fallback] * (b - a)
    return predicted, warm, fallbacks


def run(
    observations: Observations | Iterable[PeriodObservation],
    cfg: ForecastConfig,
    ds: CyclicDataset | None = None,
) -> list[PredictionRecord]:
    """Predict-then-observe over an ordered observation stream, as one batch.

    Emits exactly one record per observation, and leaves ``ds`` (a fresh
    store if None) as ``observe_step`` over the stream would: the records
    are those of ``predict_step``/``observe_step`` per observation, bit for
    bit, for every stream that ``Observations`` can hold. Warm-up steps
    (empty window) carry ``predicted=None``.

    ``PeriodObservation``s are converted to ``Observations`` on the way
    (see ``_fit``), so their samples must be integers below 2**63 and their
    sub-bins at least 1 second wide. ``observe_step`` takes a period outside
    that domain (a float sample, a sample of 2**63 or more, a 0 s sub-bin);
    ``run`` raises ``ValueError`` for it.

    A store whose shape is not the configuration's raises ``ValueError``.
    Every period is checked for stream order before ``ds`` changes, so a
    bad stream raises the step loop's ``ValueError`` for the first bad
    observation and leaves ``ds`` as it was. The predictions are then read
    from the fitted rates.
    """
    if ds is None:
        ds = cfg.new_store()
    _check_shape(ds, cfg)
    m, l, w0 = ds.m, ds.l, ds.t - 1
    fitted = _fit(observations, m, w0)
    rates = np.concatenate([ds.cells.ravel(), fitted])
    predicted, warm, fallbacks = _predict(rates, cfg, w0, 0, len(fitted))
    values: list[float | None] = predicted.tolist()
    for i in np.flatnonzero(warm).tolist():
        values[i] = None
    actuals = fitted.tolist()
    positions = ((w0 + np.arange(len(actuals))) % m + 1).tolist()
    records = list(
        map(PredictionRecord, range(1, len(actuals) + 1), positions, values, actuals, fallbacks)
    )
    if actuals:
        ds.cells[...] = rates[_sources(w0 + len(actuals), np.arange(m), m, l, w0)]
        ds.t += len(actuals)
    return records


def baseline_naive(history: Sequence[float]) -> float:
    """Persistence forecast: the newest historical rate."""
    if not history:
        raise ValueError("naive baseline needs at least one historical value")
    return history[-1]


@functools.lru_cache(maxsize=8)
def _poisson_window_weights(window: int, take: int) -> tuple[float, ...]:
    """Poisson(window) masses at 0..take-1, newest value first."""
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    return tuple(poisson_pmf(float(window), i) for i in range(take))


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


def write_records(path: str | Path, records: Sequence[PredictionRecord]) -> None:
    """Write prediction records as delimited text; warm-ups print NA."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n")
        for r in records:
            predicted = "NA" if r.predicted is None else repr(r.predicted)
            fh.write(f"{r.t},{r.tp_index},{predicted},{r.actual!r},{r.fallback.value}\n")


def _rate(text: str) -> float:
    v = float(text)
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"rate must be finite and nonnegative, got {text!r}")
    return v


def read_records(path: str | Path) -> list[PredictionRecord]:
    """Read records produced by ``write_records``.

    Refuses what ``run`` cannot write: rates must be finite and
    nonnegative, the steps must run t = 1, 2, 3, ... in row order, each
    ``tp_index`` must be at least 1 and follow the one before it or wrap
    to 1, and ``NA`` (a warm-up step) may only lead the file. The wraps
    must agree on one pattern length P: every wrap comes from ``tp_index``
    P, and no ``tp_index`` after the first wrap exceeds P. Every row error
    names the file and line.
    """
    records = []
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
                if t != len(records) + 1:
                    raise ValueError(f"step t={t} out of order: expected t={len(records) + 1}")
                tp_index = int(parts[1])
                if tp_index < 1:
                    raise ValueError(f"tp_index={tp_index} is below 1")
                if records and tp_index not in (records[-1].tp_index + 1, 1):
                    raise ValueError(
                        f"tp_index={tp_index} follows tp_index={records[-1].tp_index}: "
                        f"expected {records[-1].tp_index + 1} or a wrap to 1"
                    )
                if records and tp_index == 1:
                    if period is None:
                        period = records[-1].tp_index
                    elif records[-1].tp_index != period:
                        raise ValueError(
                            f"wrap to 1 after tp_index={records[-1].tp_index}: "
                            f"the first wrap set the pattern length to {period}"
                        )
                if period is not None and tp_index > period:
                    raise ValueError(f"tp_index={tp_index} exceeds the pattern length {period} set by the first wrap")
                predicted = None if parts[2] == "NA" else _rate(parts[2])
                if predicted is None and records and records[-1].predicted is not None:
                    raise ValueError("NA prediction after a numeric one: warm-up steps only lead a run")
                records.append(
                    PredictionRecord(
                        t=t,
                        tp_index=tp_index,
                        predicted=predicted,
                        actual=_rate(parts[3]),
                        fallback=Fallback(parts[4]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records
