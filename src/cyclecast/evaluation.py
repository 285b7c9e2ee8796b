"""Accuracy measurement and sweep orchestration.

The accuracy metric is mean absolute percentage error between predicted and
target rates. Targets of exactly zero cannot be divided by; those pairs are
excluded and counted rather than patched with an epsilon, which would let an
arbitrary constant dominate the metric. Targets here are the fitted rates of
the test span, not raw counts.

``sweep`` fits the train+test observation stream once, predicts only the
test span under each configuration, and reports each configuration's error
next to two reference predictors, so the effect of window length and
bandwidth can be tabulated for plotting. Its reports are the ones that
``run`` plus ``evaluate_records`` give per configuration, field for field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .forecaster import (
    ForecastConfig,
    PredictionRecord,
    _fit,
    _poisson_window_weights,
    _predict,
)
from .trace import Observations, PeriodObservation

__all__ = [
    "EvaluationReport",
    "mape",
    "relative_improvement",
    "evaluate_records",
    "sweep",
    "config_id",
    "write_reports",
    "read_report_rows",
    "write_plot_data",
]


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


def relative_improvement(mape_a: float, mape_b: float) -> float:
    """Signed improvement of a over b, as a percentage of b's error."""
    if mape_b == 0:
        raise ValueError("reference error is zero; improvement is undefined")
    return 100.0 * (mape_b - mape_a) / mape_b


@dataclass
class EvaluationReport:
    """Accuracy of one configuration on one test span."""

    config_id: str
    up_tps: int
    bandwidth: float
    mape: float
    errors: list[float]
    skipped_zero_targets: int
    warmup_steps: int
    baseline_deltas: dict[str, float] = field(default_factory=dict)

    @property
    def warmup_only(self) -> bool:
        return not self.errors

    @property
    def retained(self) -> int:
        return len(self.errors)


def config_id(cfg: ForecastConfig) -> str:
    return f"up{cfg.up_tps}-{cfg.kernel.family.value}-{cfg.kernel.bandwidth_label}"


def _bandwidth_value(cfg: ForecastConfig) -> float:
    return float(cfg.kernel.k) if cfg.kernel.k is not None else float(cfg.kernel.h)


def _baseline_errors(
    actuals: np.ndarray, steps: np.ndarray, window: int
) -> tuple[list[float], list[float]]:
    """Naive and Poisson-window baseline errors at the given steps.

    Step i's history is the actuals before it, at most ``window`` of them;
    steps without history are left out. The windowed forecast adds one lag
    at a time, newest first, over the steps whose history reaches that lag:
    the same operations in the same order as ``baseline_poisson_window``
    (and ``baseline_naive``) on each step's history, so the same floats.
    """
    steps = steps[steps > 0]
    if not len(steps):
        return [], []
    target = actuals[steps]
    depth = np.minimum(steps, window)
    num = np.zeros(len(steps))
    den = np.zeros(len(steps))
    for lag, w in enumerate(_poisson_window_weights(window, int(depth.max()))):
        reach = depth > lag
        num[reach] += w * actuals[steps[reach] - 1 - lag]
        den[reach] += w
    naive = np.abs(actuals[steps - 1] - target) / target
    windowed = np.abs(num / den - target) / target
    return naive.tolist(), windowed.tolist()


def evaluate_records(
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


def _baseline_mapes(actuals: np.ndarray, steps: np.ndarray, window: int) -> tuple[float, float] | None:
    """The naive and Poisson-window baselines' MAPE over ``steps`` (indices
    into ``actuals``, the actual rates of the whole stream), or None if no
    step has history."""
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    naive_err, window_err = _baseline_errors(actuals, steps, window)
    if not naive_err:
        return None
    return math.fsum(naive_err) / len(naive_err), math.fsum(window_err) / len(window_err)


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


def sweep(
    configs: Sequence[ForecastConfig],
    train: Observations | Sequence[PeriodObservation],
    test: Observations | Sequence[PeriodObservation],
    with_baselines: bool = False,
) -> list[EvaluationReport]:
    """Run every configuration over train+test online and score the test span.

    The forecaster keeps learning through the test span (each period is
    predicted before it is observed). Reports come back sorted by
    (window length, bandwidth). Baseline windows match each configuration's
    utilization window.

    The stream is fitted once per store size, with ``run``'s order checks,
    so a bad stream raises what ``run`` raises for the first configuration
    it fails. Each configuration then predicts only
    the test steps, from a fresh store, and they are scored as columns:
    every field equals that of ``evaluate_records`` on ``run``'s records.
    The baselines are scored once per store size, window and set of
    retained steps, which is all they depend on.
    """
    if isinstance(train, Observations) and isinstance(test, Observations):
        stream: Observations | list[PeriodObservation] = Observations.concat([train, test])
    else:
        stream = [*train, *test]  # converted by ``_fit``, with its errors
    lo = len(train)
    reports = []
    fits: dict[int, np.ndarray] = {}  # fitted rates per store size
    # Baseline MAPEs per (store size, window, retained steps): they depend on nothing else.
    baselines: dict[tuple[int, int, bytes], tuple[float, float] | None] = {}
    for cfg in configs:
        m = cfg.pp_tps
        if m not in fits:
            fits[m] = _fit(stream, m, 0)
        actuals = fits[m]
        rates = np.concatenate([cfg.new_store().cells.ravel(), actuals])
        predicted, warm, _ = _predict(rates, cfg, 0, lo, len(stream))
        target = actuals[lo:]
        zero = target <= 0
        keep = ~warm & ~zero
        errors = (np.abs(predicted[keep] - target[keep]) / target[keep]).tolist()
        retained = np.flatnonzero(keep) + lo
        scores = None
        if with_baselines and len(retained):
            key = (m, cfg.up_tps, retained.tobytes())
            if key not in baselines:
                baselines[key] = _baseline_mapes(actuals, retained, cfg.up_tps)
            scores = baselines[key]
        reports.append(
            _report(
                config_id(cfg), cfg.up_tps, _bandwidth_value(cfg), errors,
                int(np.count_nonzero(~warm & zero)), int(np.count_nonzero(warm)), scores,
            )
        )
    reports.sort(key=lambda r: (r.up_tps, r.bandwidth))
    return reports


def write_reports(path: str | Path, reports: Sequence[EvaluationReport]) -> None:
    """Write one delimited row per report; absent deltas print empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "config_id,up_tps,bandwidth,mape,retained,skipped_zero_targets,"
            "warmup_steps,warmup_only,improvement_vs_naive_pct,improvement_vs_poisson_window_pct\n"
        )
        for r in reports:
            naive = r.baseline_deltas.get("naive")
            window = r.baseline_deltas.get("poisson_window")
            fh.write(
                f"{r.config_id},{r.up_tps},{r.bandwidth!r},{r.mape!r},{r.retained},"
                f"{r.skipped_zero_targets},{r.warmup_steps},{int(r.warmup_only)},"
                f"{'' if naive is None else repr(naive)},"
                f"{'' if window is None else repr(window)}\n"
            )


def read_report_rows(path: str | Path) -> list[dict[str, str]]:
    """Report rows as dicts of raw strings (for tooling and tests)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def write_plot_data(path: str | Path, reports: Sequence[EvaluationReport]) -> None:
    """Plot-ready triples: window length, bandwidth, error."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("up_tps,bandwidth,mape\n")
        for r in reports:
            fh.write(f"{r.up_tps},{r.bandwidth!r},{r.mape!r}\n")
