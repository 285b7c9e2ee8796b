"""Online forecasting loop over the cyclic store.

Each step first predicts the upcoming target period's rate by local linear
regression over the trailing utilization window (query point = the window's
own trailing offset, i.e. extrapolation at the edge), then fits the period
actually observed and writes that rate into the store, advancing the
cursors. Until the window holds any history the step emits a warm-up marker
instead of a number.

Also hosts two reference predictors used for accuracy comparisons: a naive
last-value forecaster and a moving-window scheme that weights recent history
with a Poisson PMF keyed to the window size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from .llr import Fallback, KernelSpec, llr_fit
from .poisson import poisson_mle, poisson_pmf
from .store import CyclicDataset, EmptyWindowError
from .trace import PeriodObservation

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


def predict_step(ds: CyclicDataset, cfg: ForecastConfig) -> tuple[float, Fallback]:
    """Predict the rate of the period at the store cursor.

    Regresses over the utilization window's (offset, rate) entries and
    evaluates at the trailing offset. A k-nearest bandwidth larger than the
    window's population is clamped so a thin window still predicts. Negative
    extrapolations clamp to zero (rates cannot be negative).

    Raises
    ------
    EmptyWindowError
        If the window holds no history at all yet.
    """
    window = ds.extract_window(cfg.up_tps)
    points = [(float(x), y) for x, y in window.entries]
    kernel = cfg.kernel
    if kernel.k is not None and kernel.k > len(points):
        kernel = replace(kernel, k=len(points))
    fit = llr_fit(points, float(window.n), kernel)
    return max(fit.value, 0.0), fit.fallback


def observe_step(ds: CyclicDataset, obs: PeriodObservation) -> float:
    """Fit the observed period and write the rate at the cursor.

    The observation must be stamped with the cursor's pattern position;
    anything else means the stream is out of order.
    """
    if obs.tp_index != ds.p:
        raise ValueError(
            f"observation for position {obs.tp_index} arrived while the store cursor is at {ds.p}"
        )
    actual = poisson_mle(obs.samples)
    ds.update(actual)
    return actual


def run(
    observations: Iterable[PeriodObservation],
    cfg: ForecastConfig,
    ds: CyclicDataset | None = None,
) -> list[PredictionRecord]:
    """Predict-then-observe over an ordered observation stream.

    Emits exactly one record per observation. Warm-up steps (empty window)
    carry ``predicted=None``. Deterministic: replaying the same stream
    yields identical records.
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
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    take = min(window, len(history))
    num = 0.0
    den = 0.0
    for i in range(take):
        w = poisson_pmf(float(window), i)
        num += w * history[-1 - i]
        den += w
    return num / den


def write_records(path: str | Path, records: Sequence[PredictionRecord]) -> None:
    """Write prediction records as delimited text; warm-ups print NA."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n")
        for r in records:
            predicted = "NA" if r.predicted is None else repr(r.predicted)
            fh.write(f"{r.t},{r.tp_index},{predicted},{r.actual!r},{r.fallback.value}\n")


def read_records(path: str | Path) -> list[PredictionRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if not header.startswith("t,tp_index,"):
            raise ValueError(f"{path}: not a prediction records file")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            records.append(
                PredictionRecord(
                    t=int(parts[0]),
                    tp_index=int(parts[1]),
                    predicted=None if parts[2] == "NA" else float(parts[2]),
                    actual=float(parts[3]),
                    fallback=Fallback(parts[4]),
                )
            )
    return records
