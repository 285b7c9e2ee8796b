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
period first and reads each step's window from the write-ordered rates.
It takes the steps a chunk of 256 at a time, in one pass per chunk: one
call plans every window shape the chunk holds into one ``LLRPlan``, and one
``llr_apply`` call, a batch of certified row sums, applies every step with
its window's shape (see ``cyclecast.llr``). It returns the steps
as ``Records``, five columns with one entry per step, which
``write_records`` and ``read_records`` move to and from text, one row per
step, in a single pass over the file. Its records and final store are
the ones the step-by-step loop produces, bit for bit. Its two phases,
``_fit`` and ``_predict``, are also what the evaluation sweep runs: one
fit for all configurations, and predictions for only the steps it scores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .llr import Fallback, KernelSpec, LLRPlan, _plan_shapes, llr_apply
from .poisson import poisson_mle, poisson_mle_rows
from .store import CyclicDataset, EmptyWindowError
from .trace import _INT64_LIMIT, Observations, PeriodObservation

__all__ = [
    "ForecastConfig",
    "Records",
    "predict_step",
    "observe_step",
    "run",
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


@dataclass(frozen=True, eq=False)
class Records:
    """A run's steps as five equal-length columns; ``len`` is the step count.

    Entry i is step ``t = i + 1``: ``tp_index`` (int64) its pattern
    position, ``predicted`` (float64) its clamped prediction, 0.0 at a
    warm-up step, ``warm`` (bool) whether the step was warm-up (its window
    held no rate yet), ``actual`` (float64) the rate fitted to the period
    and ``fallback`` (``Fallback`` members, an object array) the step of
    the fallback chain that made the prediction. Inputs are converted to
    those dtypes on construction. It has no ``==`` and no indexing.
    """

    tp_index: np.ndarray
    predicted: np.ndarray
    warm: np.ndarray
    actual: np.ndarray
    fallback: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "tp_index", np.asarray(self.tp_index, dtype=np.int64))
        object.__setattr__(self, "predicted", np.asarray(self.predicted, dtype=np.float64))
        object.__setattr__(self, "warm", np.asarray(self.warm, dtype=bool))
        object.__setattr__(self, "actual", np.asarray(self.actual, dtype=np.float64))
        object.__setattr__(self, "fallback", np.asarray(self.fallback, dtype=object))
        n = len(self.tp_index)
        if not len(self.predicted) == len(self.warm) == len(self.actual) == len(self.fallback) == n:
            raise ValueError("record columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.tp_index)


@functools.lru_cache(maxsize=16)
def _window_plan(empty: bytes, n: int, l: int, kernel: KernelSpec) -> LLRPlan:
    """The LLR plan of the windows whose empty cells are the n x l masks in ``empty``.

    ``empty`` holds one mask after another, n * l bytes each, and shape i
    is mask i's. The xs are the offsets of all n x l cells, in
    ``window_cells`` order; a k-nearest count is clamped to each window's
    population (see ``predict_step``).
    """
    populated = ~np.frombuffer(empty, dtype=bool).reshape(-1, n * l)
    return _plan_shapes(np.repeat(np.arange(1.0, n + 1), l), float(n), kernel, populated)


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
    return max(llr_apply(plan, block.ravel()), 0.0), plan.fallback[0]


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


def _history(ds: CyclicDataset, fitted: np.ndarray) -> np.ndarray:
    """The rate of every write from write ``ds.t - 1 - m*l`` on, then ``fitted``.

    Write i sits in cell (i mod m, (i // m) mod l), position i mod m*l of
    ``ds.cells.T`` raveled: the store is a ring of its last m*l writes. A
    write i < 0 was never made; its cell reads NaN.
    """
    return np.concatenate([np.roll(ds.cells.T.ravel(), 1 - ds.t), fitted])


def _fit(observations: Observations, m: int, w0: int) -> np.ndarray:
    """The fitted rate of each period of a stream that follows write ``w0``.

    Checks each period's position against the cursor of an m-position
    store, as ``observe_step`` does: a bad stream raises the step loop's
    ``ValueError`` for its first misplaced period. The rates are
    ``poisson_mle``'s, bit for bit, and always storable: a mean of int64
    counts is finite and nonnegative. Touches no store.
    """
    cursor = (w0 + np.arange(len(observations))) % m + 1
    bad = np.flatnonzero(observations.tp_index != cursor)
    if len(bad):
        raise _misplaced(int(observations.tp_index[bad[0]]), int(cursor[bad[0]]))
    return poisson_mle_rows(observations.samples, observations.counts)


def _predict(
    history: np.ndarray, cfg: ForecastConfig, w0: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictions for steps ``lo..hi-1`` of a run that starts after write ``w0``.

    ``history`` is ``_history`` of the store before the run and the run's
    fitted rates. Returns each step's clamped prediction (0.0 at a warm-up
    step), the warm-up mask and each step's fallback: the values of
    ``predict_step`` at those steps, bit for bit.

    The windows are read from ``history`` a chunk of ``_CHUNK`` steps at a
    time, as a cells x steps block. The chunk's distinct window shapes (which
    cells hold a rate) are planned by one call, cached per set of shapes,
    and every step is applied in one batch: each step's sy and, for a line,
    its sxy are summed together. Once every cell has been written, a chunk
    holds one shape, the full window, and its plan is the one
    ``predict_step`` uses.
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
        # hold what they held after write u, a row that n - 1 consecutive
        # steps share, read once and slid. Offset n is the cursor's row,
        # last written by write W - m. One column per step, one row per cell.
        block = np.empty((n, l, size))
        if n > 1:
            block[:-1] = sliding_window_view(rows(np.arange(writes[0] + 1 - n, writes[-1])), size, axis=0)
        block[-1] = rows(writes - m).T
        block = block.reshape(n * l, size)
        if writes[0] >= l * m:
            # Every window reads writes from writes[0] - l*m on: all written, one shape.
            shapes = {bytes(n * l): 0}
            which = np.zeros(size, dtype=np.intp)
        else:
            # Runs of consecutive steps whose windows share one empty mask; each
            # distinct mask is a shape, and a window with no rate is warm-up.
            empty = np.isnan(block)
            starts = [0, *(np.flatnonzero((empty[:, 1:] != empty[:, :-1]).any(axis=0)) + 1).tolist()]
            shapes = {}
            run_shape = [
                -1 if empty[:, a].all() else shapes.setdefault(empty[:, a].tobytes(), len(shapes)) for a in starts
            ]
            which = np.repeat(run_shape, np.diff([*starts, size]))
        live = np.flatnonzero(which >= 0)
        if not len(live):
            continue
        plan = _window_plan(b"".join(shapes), n, l, cfg.kernel)
        # Warm-up steps lead a run, so the live steps are most often a slice.
        ys = block[:, live[0] :] if len(live) == size - live[0] else block[:, live]
        values = llr_apply(plan, ys.T, which[live])
        steps = c - lo + live
        # max(v, 0.0) per value: -0.0 and NaN pass through as they are.
        predicted[steps] = np.where(values < 0, 0.0, values)
        warm[steps] = False
        fallbacks[steps] = plan.fallback[which[live]]
    return predicted, warm, fallbacks


def run(
    observations: Observations,
    cfg: ForecastConfig,
    ds: CyclicDataset | None = None,
) -> Records:
    """Predict-then-observe over an ordered observation stream, as one batch.

    Returns one step per observation, and leaves ``ds`` (a fresh store if
    None) as ``observe_step`` over the stream would: the steps are those of
    ``predict_step``/``observe_step`` per observation, bit for bit. A
    warm-up step (empty window) is marked in ``warm`` and predicts 0.0.

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
    history = _history(ds, fitted)
    predicted, warm, fallback = _predict(history, cfg, w0, 0, len(fitted))
    ds.t += len(fitted)
    ds.cells[...] = np.roll(history[len(fitted):], ds.t - 1).reshape(l, m).T
    return Records((w0 + np.arange(len(fitted))) % m + 1, predicted, warm, fitted, fallback)


_RECORDS_HEADER = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
_FALLBACKS = {f.value: f for f in Fallback}


def write_records(path: str | Path, records: Records) -> None:
    """Write records as delimited text, one step per row; warm-ups print NA.

    Each rate is written as the ``repr`` of its Python float, which reads
    back to the same bits.
    """
    columns = (
        records.tp_index.tolist(), records.predicted.tolist(), records.warm.tolist(),
        records.actual.tolist(), records.fallback.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_RECORDS_HEADER)
        fh.writelines(
            f"{t},{tp},{'NA' if warm else repr(p)},{a!r},{f.value}\n"
            for t, (tp, p, warm, a, f) in enumerate(zip(*columns), start=1)
        )


def _rate(text: str) -> float:
    v = float(text)
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"rate must be finite and nonnegative, got {text!r}")
    return v


def read_records(path: str | Path) -> Records:
    """Read records produced by ``write_records``.

    Refuses what ``run`` cannot write: rates must be finite and
    nonnegative, the steps must run t = 1, 2, 3, ... in row order, each
    ``tp_index`` must be at least 1, below 2**63 (an int64) and follow the
    one before it or wrap to 1, and ``NA`` (a warm-up step) may only lead
    the file. The wraps must agree on one pattern length P: every wrap
    comes from ``tp_index`` P, and no ``tp_index`` after the first wrap
    exceeds P.

    The file is read once, a row at a time, and blank lines are skipped.
    The first row that breaks a rule raises ``ValueError`` naming the file
    and line.
    """
    tp_index: list[int] = []
    predicted: list[float] = []
    actual: list[float] = []
    fallback: list[Fallback] = []
    n = warmup = 0
    prev = period = None  # the tp_index before; the pattern length, from the first wrap on
    with open(path, "r", encoding="utf-8") as fh:
        if not fh.readline().startswith("t,tp_index,"):
            raise ValueError(f"{path}: not a prediction records file")
        for lineno, line in enumerate(fh, start=2):
            if not (line := line.strip()):
                continue
            parts = line.split(",")
            try:
                if len(parts) != 5:
                    raise ValueError(f"expected 5 fields, got {len(parts)}")
                t = int(parts[0])
                if t != n + 1:
                    raise ValueError(f"step t={t} out of order: expected t={n + 1}")
                tp = int(parts[1])
                if tp < 1:
                    raise ValueError(f"tp_index={tp} is below 1")
                if tp >= _INT64_LIMIT:
                    raise ValueError(f"tp_index={tp} is not below 2**63")
                if prev is not None and tp != prev + 1:
                    if tp != 1:
                        raise ValueError(f"tp_index={tp} follows tp_index={prev}: expected {prev + 1} or a wrap to 1")
                    if period is None:
                        period = prev
                    elif prev != period:
                        raise ValueError(
                            f"wrap to 1 after tp_index={prev}: the first wrap set the pattern length to {period}"
                        )
                if period is not None and tp > period:
                    raise ValueError(f"tp_index={tp} exceeds the pattern length {period} set by the first wrap")
                if parts[2] == "NA":
                    if warmup < n:
                        raise ValueError("NA prediction after a numeric one: warm-up steps only lead a run")
                    warmup += 1
                    p = 0.0
                else:
                    p = _rate(parts[2])
                a = _rate(parts[3])
                # A name that is no Fallback's raises the enum's own message.
                f = _FALLBACKS.get(parts[4]) or Fallback(parts[4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            n += 1
            prev = tp
            tp_index.append(tp)
            predicted.append(p)
            actual.append(a)
            fallback.append(f)
    return Records(tp_index, predicted, np.arange(n) < warmup, actual, fallback)
