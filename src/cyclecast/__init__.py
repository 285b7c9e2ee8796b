"""Cyclic-window workload forecasting toolkit.

Predicts the Poisson rate of cloud request activity for upcoming target
periods: per-period maximum-likelihood fitting feeds a cyclic history store,
and kernel-weighted local linear regression over the trailing utilization
window extrapolates the next period's rate. Includes trace ingestion, a
synthetic trace generator with known ground truth, and a MAPE-based
evaluation harness with baseline comparators.
"""

__version__ = "0.1.0"

from .evaluation import EvaluationReport, evaluate_records, sweep
from .forecaster import (
    ForecastConfig,
    Records,
    observe_step,
    predict_step,
    run,
)
from .llr import (
    Fallback,
    KernelFamily,
    KernelSpec,
)
from .poisson import (
    poisson_cdf,
    poisson_mle,
    poisson_pmf,
    poisson_quantile,
)
from .store import CyclicDataset, EmptyWindowError, new_dataset
from .synthetic import SyntheticSpec, generate, true_rate
from .trace import (
    ColumnMapping,
    Events,
    MetricKind,
    Observations,
    PeriodObservation,
    aggregate_span,
    parse_trace,
)

__all__ = [
    "__version__",
    "EvaluationReport",
    "evaluate_records",
    "sweep",
    "ForecastConfig",
    "Records",
    "observe_step",
    "predict_step",
    "run",
    "Fallback",
    "KernelFamily",
    "KernelSpec",
    "poisson_cdf",
    "poisson_mle",
    "poisson_pmf",
    "poisson_quantile",
    "CyclicDataset",
    "EmptyWindowError",
    "new_dataset",
    "SyntheticSpec",
    "generate",
    "true_rate",
    "ColumnMapping",
    "Events",
    "MetricKind",
    "Observations",
    "PeriodObservation",
    "aggregate_span",
    "parse_trace",
]
