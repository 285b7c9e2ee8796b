"""Accuracy measurement and sweep orchestration.

The accuracy metric is mean absolute percentage error between predicted and
target rates. Targets of exactly zero cannot be divided by; those pairs are
excluded and counted rather than patched with an epsilon, which would let an
arbitrary constant dominate the metric. Targets here are the fitted rates of
the test span, not raw counts.

One scorer, ``_score``, holds that rule as array operations, and scores two
reference predictors on the same retained steps: a naive last-value
forecast and a moving window that weights recent history with a Poisson PMF
keyed to the window size. ``evaluate_records`` scores the ``Records`` of a
run with it, straight from their columns.
``sweep`` fits the train+test observation stream once, predicts only the
test span under each configuration and scores it with the same function,
so the effect of window length and bandwidth can be tabulated for plotting.
Its scores are the ones that ``run`` plus ``evaluate_records`` give per
configuration, field for field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .forecaster import ForecastConfig, Records, _fit, _history, _predict
from .poisson import poisson_pmf
from .trace import Observations

__all__ = [
    "EvaluationReport",
    "relative_improvement",
    "evaluate_records",
    "sweep",
    "config_id",
    "write_reports",
    "write_plot_data",
]


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


def _poisson_window_weights(window: int, take: int) -> tuple[float, ...]:
    """Poisson(window) masses at 0..take-1, newest value first."""
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    return tuple(poisson_pmf(float(window), i) for i in range(take))


def _baseline_errors(
    actuals: np.ndarray, steps: np.ndarray, window: int
) -> tuple[list[float], list[float]]:
    """Naive and Poisson-window baseline errors at the given steps.

    Step i's history is the actuals before it, at most ``window`` of them;
    steps without history are left out. The naive forecast is the newest
    value of the history. The windowed forecast weights the value ``lag``
    steps back by the Poisson(window) mass at ``lag`` and divides by the
    weights' sum, adding one lag at a time, newest first, over the steps
    whose history reaches that lag: the same operations in the same order
    as a loop over each step's history, so the same floats, and no warning
    where that loop's float arithmetic overflows silently.

    Raises ValueError if the Poisson(window) mass underflows to zero at
    every lag that some step's history reaches: that step's windowed
    forecast is undefined (0/0), and its MAPE would be NaN.
    """
    steps = steps[steps > 0]
    if not len(steps):
        return [], []
    target = actuals[steps]
    depth = np.minimum(steps, window)
    num = np.zeros(len(steps))
    den = np.zeros(len(steps))
    with np.errstate(over="ignore", invalid="ignore"):
        for lag, w in enumerate(_poisson_window_weights(window, int(depth.max()))):
            reach = depth > lag
            num[reach] += w * actuals[steps[reach] - 1 - lag]
            den[reach] += w
        undefined = np.flatnonzero(den == 0)
        if len(undefined):
            step = int(steps[undefined[0]])
            raise ValueError(
                f"baseline window {window}: the Poisson({window}) mass of every lag in the "
                f"{min(step, window)}-step history of step {step + 1} underflows to zero, "
                "so its windowed forecast is undefined; use a smaller window"
            )
        naive = np.abs(actuals[steps - 1] - target) / target
        windowed = np.abs(num / den - target) / target
    return naive.tolist(), windowed.tolist()


def _score(
    cid: str,
    up_tps: int,
    bandwidth: float,
    actuals: np.ndarray,
    steps: np.ndarray,
    predicted: np.ndarray,
    warm: np.ndarray,
    baseline_window: int | None,
    baselines: dict[tuple[int, bytes], tuple[float, float] | None],
) -> EvaluationReport:
    """The report of the scored ``steps``, positions in ``actuals``, the
    actual rates of the whole stream; ``predicted`` and the warm-up mask
    ``warm`` hold each scored step's prediction.

    A warm-up step and a step whose target is zero (or below) are counted;
    every other step's error is |p - a| / a. With a ``baseline_window``,
    the naive and Poisson-window baselines are scored on the retained
    steps, with the history of the whole stream; their MAPEs are kept in
    ``baselines`` per window and retained steps, which is all they depend
    on for one stream.
    """
    if baseline_window is not None and baseline_window < 1:
        raise ValueError(f"window must be a positive integer, got {baseline_window}")
    target = actuals[steps]
    zero = target <= 0
    keep = ~warm & ~zero
    with np.errstate(over="ignore", invalid="ignore"):
        errors = (np.abs(predicted[keep] - target[keep]) / target[keep]).tolist()
    retained = steps[keep]
    scores = None
    if baseline_window is not None and len(retained):
        key = (baseline_window, retained.tobytes())
        if key not in baselines:
            naive_err, window_err = _baseline_errors(actuals, retained, baseline_window)
            baselines[key] = (
                (math.fsum(naive_err) / len(naive_err), math.fsum(window_err) / len(window_err))
                if naive_err else None
            )
        scores = baselines[key]
    value = math.fsum(errors) / len(errors) if errors else math.nan
    deltas: dict[str, float] = {}
    if scores is not None:
        naive_mape, window_mape = scores
        # A baseline error of exactly zero admits no percentage improvement;
        # leave that delta out rather than divide by it.
        if naive_mape > 0:
            deltas["naive"] = relative_improvement(value, naive_mape)
        if window_mape > 0:
            deltas["poisson_window"] = relative_improvement(value, window_mape)
    return EvaluationReport(
        cid, up_tps, bandwidth, value, errors,
        int(np.count_nonzero(~warm & zero)), int(np.count_nonzero(warm)), deltas,
    )


def evaluate_records(
    records: Records,
    test_from_t: int = 1,
    cid: str = "run",
    baseline_window: int | None = None,
) -> EvaluationReport:
    """Score the steps ``t`` of ``records`` from ``test_from_t`` on.

    A step enters the error list only if it is not warm-up and its actual
    rate is nonzero; warm-up steps and zero targets are counted separately.
    With a ``baseline_window`` (None scores no baselines), the baseline
    predictors see at most that many actual rates before each scored step
    and are measured on exactly the same retained steps, so their deltas
    are like-for-like. A baseline window below 1 raises ``ValueError``
    whether or not any step is retained. Records do not name their
    configuration, so the report's ``up_tps`` and ``bandwidth`` are 0.
    """
    steps = np.arange(max(test_from_t - 1, 0), len(records))
    return _score(
        cid, 0, 0.0, records.actual, steps, records.predicted[steps], records.warm[steps], baseline_window, {}
    )


def sweep(
    configs: Sequence[ForecastConfig],
    train: Observations,
    test: Observations,
    with_baselines: bool = False,
) -> list[EvaluationReport]:
    """Run every configuration over train+test online and score the test span.

    The forecaster keeps learning through the test span (each period is
    predicted before it is observed). Reports come back sorted by
    (window length, bandwidth). Baseline windows match each configuration's
    utilization window.

    The stream is fitted once per store size, with ``run``'s order checks,
    so a bad stream raises what ``run`` raises for the first configuration
    it fails. Each configuration then predicts only the test steps, from a
    fresh store, and they are scored as ``evaluate_records`` scores
    ``run``'s records, field for field. The baselines are scored once per
    store size, window and set of retained steps.
    """
    stream = Observations.concat([train, test])
    steps = np.arange(len(train), len(stream))
    reports = []
    # Per store size: the fitted rates, and the baseline MAPEs scored on them.
    fits: dict[int, tuple[np.ndarray, dict]] = {}
    for cfg in configs:
        m = cfg.pp_tps
        if m not in fits:
            fits[m] = (_fit(stream, m, 0), {})
        actuals, baselines = fits[m]
        predicted, warm, _ = _predict(_history(cfg.new_store(), actuals), cfg, 0, len(train), len(stream))
        reports.append(
            _score(
                config_id(cfg), cfg.up_tps, _bandwidth_value(cfg), actuals, steps, predicted, warm,
                cfg.up_tps if with_baselines else None, baselines,
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


def write_plot_data(path: str | Path, reports: Sequence[EvaluationReport]) -> None:
    """Plot-ready triples: window length, bandwidth, error."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("up_tps,bandwidth,mape\n")
        for r in reports:
            fh.write(f"{r.up_tps},{r.bandwidth!r},{r.mape!r}\n")
