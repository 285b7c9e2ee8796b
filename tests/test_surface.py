import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import cyclecast
from cyclecast.trace import Observations, write_observations

MODULES = ["cyclecast"] + [f"cyclecast.{info.name}" for info in pkgutil.iter_modules(cyclecast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(exports) == len(set(exports)), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_readme_library_usage_runs(capsys):
    # The "Library usage" block of README.md, run as it is, so it cannot go stale.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("1008 ")


# Every module's public names, as its __all__ lists them (None: it has no
# __all__). Adding or removing a public name takes an edit here.
ALL = {
    "cyclecast": [
        "__version__", "EvaluationReport", "evaluate_records", "sweep", "ForecastConfig", "Records",
        "observe_step", "predict_step", "run", "Fallback", "KernelFamily", "KernelSpec",
        "poisson_cdf", "poisson_mle", "poisson_pmf",
        "poisson_quantile", "CyclicDataset", "EmptyWindowError", "new_dataset", "SyntheticSpec",
        "generate", "true_rate", "ColumnMapping", "Events", "MetricKind", "Observations",
        "PeriodObservation", "aggregate_span", "parse_trace",
    ],
    "cyclecast.cli": None,
    "cyclecast.evaluation": [
        "EvaluationReport", "relative_improvement", "evaluate_records", "sweep", "config_id",
        "write_reports", "write_plot_data",
    ],
    "cyclecast.forecaster": [
        "ForecastConfig", "Records", "predict_step", "observe_step", "run", "write_records", "read_records",
    ],
    "cyclecast.llr": [
        "KernelFamily", "KernelSpec", "Fallback", "LLRPlan", "llr_plan", "llr_apply",
    ],
    "cyclecast.poisson": [
        "poisson_mle", "poisson_mle_rows", "poisson_log_pmf", "poisson_pmf", "poisson_cdf", "poisson_quantile",
    ],
    "cyclecast.store": ["CyclicDataset", "EmptyWindowError", "new_dataset"],
    "cyclecast.synthetic": ["SyntheticSpec", "generate", "true_rate", "write_truth", "RNG_NAME"],
    "cyclecast.trace": [
        "MetricKind", "Events", "PeriodObservation", "Observations", "ColumnMapping", "ParseResult",
        "parse_trace", "aggregate_span", "write_observations", "read_observations", "write_trace",
    ],
}


def test_public_names_are_pinned():
    assert sorted(MODULES) == sorted(ALL)
    for name in MODULES:
        exports = getattr(importlib.import_module(name), "__all__", None)
        assert (None if exports is None else list(exports)) == ALL[name], name
    assert len(ALL["cyclecast"]) == 29


def test_persisted_observations_are_pinned():
    # The observations file holds these fields; changing them takes an edit here.
    assert [f.name for f in dataclasses.fields(Observations)] == [
        "tp_index", "cycle_index", "samples", "metric", "sub_bin_seconds", "scale",
    ]
    assert list(inspect.signature(write_observations).parameters) == ["path", "observations"]
