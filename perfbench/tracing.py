"""Per-layer spans for the traced benchmark run.

Wraps cyclecast's public, per-call functions (never per-point helpers such
as ``kernel_weight`` or ``poisson_pmf``) and accumulates, per span name, the
call count, inclusive busy time and self time (busy time minus the time of
wrapped calls nested inside it), plus work counters taken from arguments and
results.

A function is replaced under every name a cyclecast module holds it by
(``cyclecast.forecaster.llr_fit``, ``cyclecast.evaluation.run``,
``cyclecast.cli.parse_trace``, ...), because callers look it up there at call
time. A name that no longer exists is skipped and its metrics read 0, so a
refactor that removes or bypasses a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter


def _len_first_result(counts, args, kwargs, result, key):
    counts[key] += len(result[0])


def _file_bytes(counts, args, kwargs, result, key):
    counts[key] += os.path.getsize(args[0] if args else kwargs["path"])


def _parse_counts(counts, args, kwargs, result, key):
    counts["trace.parse_trace.rows"] += len(result.events)
    counts["trace.parse_trace.rejected"] += result.rejected


def _len_result(counts, args, kwargs, result, key):
    counts[key] += len(result)


def _window_entries(counts, args, kwargs, result, key):
    counts[key] += len(result.entries)


def _llr_counts(counts, args, kwargs, result, key):
    counts["llr.llr_fit.points"] += len(args[0] if args else kwargs["points"])
    counts["llr.llr_fit.fallbacks"] += result.fallback.value != "none"


def _run_counts(counts, args, kwargs, result, key):
    counts["forecaster.run.steps"] += len(result)
    counts["forecaster.run.warmup_steps"] += sum(r.predicted is None for r in result)


def _len_first_arg(counts, args, kwargs, result, key):
    counts[key] += len(args[0] if args else kwargs["configs"])


# (span name, module, attribute or Class.method, counter, counter key)
SPANS = [
    ("cli", "cyclecast.cli", "main", None, None),
    ("synthetic.generate", "cyclecast.synthetic", "generate",
     _len_first_result, "synthetic.generate.events"),
    ("trace.write_trace", "cyclecast.trace", "write_trace",
     _file_bytes, "trace.write_trace.bytes"),
    ("trace.parse_trace", "cyclecast.trace", "parse_trace", _parse_counts, None),
    ("trace.span_tps", "cyclecast.trace", "span_tps", None, None),
    ("trace.aggregate_span", "cyclecast.trace", "aggregate_span",
     _len_result, "trace.aggregate_span.periods"),
    ("trace.observations_io", "cyclecast.trace", "write_observations", None, None),
    ("trace.observations_io", "cyclecast.trace", "read_observations", None, None),
    ("store.extract_window", "cyclecast.store", "CyclicDataset.extract_window",
     _window_entries, "store.extract_window.entries"),
    ("store.update", "cyclecast.store", "CyclicDataset.update", None, None),
    ("llr.llr_fit", "cyclecast.llr", "llr_fit", _llr_counts, None),
    ("forecaster.run", "cyclecast.forecaster", "run", _run_counts, None),
    ("forecaster.predict_step", "cyclecast.forecaster", "predict_step", None, None),
    ("forecaster.records_io", "cyclecast.forecaster", "write_records", None, None),
    ("forecaster.records_io", "cyclecast.forecaster", "read_records", None, None),
    ("forecaster.baseline_poisson_window", "cyclecast.forecaster",
     "baseline_poisson_window", None, None),
    ("poisson.poisson_quantile", "cyclecast.poisson", "poisson_quantile", None, None),
    ("poisson.poisson_mle", "cyclecast.poisson", "poisson_mle", None, None),
    ("evaluation.sweep", "cyclecast.evaluation", "sweep",
     _len_first_arg, "evaluation.sweep.configs"),
    ("evaluation.evaluate_records", "cyclecast.evaluation", "evaluate_records", None, None),
]

# The per-layer metrics a traced iteration reports; see ``Tracer.metrics``.
SPAN_METRICS = {
    "cli": ["self_s"],
    "synthetic.generate": ["busy_s"],
    "trace.write_trace": ["busy_s"],
    "trace.parse_trace": ["busy_s"],
    "trace.span_tps": ["busy_s"],
    "trace.aggregate_span": ["busy_s"],
    "trace.observations_io": ["busy_s"],
    "store.extract_window": ["calls", "busy_s"],
    "store.update": ["busy_s"],
    "llr.llr_fit": ["calls", "busy_s"],
    "forecaster.run": ["busy_s", "self_s"],
    "forecaster.predict_step": ["self_s"],
    "forecaster.records_io": ["busy_s"],
    "forecaster.baseline_poisson_window": ["calls", "busy_s"],
    "poisson.poisson_quantile": ["calls", "busy_s"],
    "poisson.poisson_mle": ["calls", "busy_s"],
    "evaluation.sweep": ["busy_s"],
    "evaluation.evaluate_records": ["busy_s", "self_s"],
}

COUNTERS = [
    "synthetic.generate.events",
    "trace.write_trace.bytes",
    "trace.parse_trace.rows",
    "trace.parse_trace.rejected",
    "trace.aggregate_span.periods",
    "store.extract_window.entries",
    "llr.llr_fit.points",
    "forecaster.run.steps",
    "forecaster.run.warmup_steps",
    "evaluation.sweep.configs",
]


class Tracer:
    """Span and counter accumulator; ``install`` patches cyclecast in place."""

    def __init__(self) -> None:
        # name -> [calls, busy seconds, self seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def reset(self) -> None:
        # Cleared in place: installed wrappers hold these containers.
        self.spans.clear()
        self.counts.clear()
        self._child_time.clear()

    def wrap(self, name, fn, counter=None, key=None):
        spans, child_time, counts = self.spans, self._child_time, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = child_time.pop()
                s = spans[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - nested
                if child_time:
                    child_time[-1] += dt
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result, key)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    # The result's shape changed; the counter reads 0, the run goes on.
                    pass
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every resolvable span target; returns the span targets missing."""
        import cyclecast

        for info in pkgutil.iter_modules(cyclecast.__path__):
            importlib.import_module(f"cyclecast.{info.name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "cyclecast" or n.startswith("cyclecast.")]
        missing = []
        for name, module_name, attr, counter, key in SPANS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, original, counter, key)
            if cls_name:
                setattr(owner, method, wrapped)
                continue
            for module in modules:
                for var, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, var, wrapped)
        return missing

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last ``reset``."""
        out: dict[str, float] = {}
        for name, fields in SPAN_METRICS.items():
            calls, busy, self_s = self.spans.get(name, (0, 0.0, 0.0))
            values = {"calls": calls, "busy_s": busy, "self_s": self_s}
            for f in fields:
                out[f"{name}.{f}"] = values[f]
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        fits = self.spans.get("llr.llr_fit", (0,))[0]
        out["llr.llr_fit.fallback_ratio"] = self.counts.get("llr.llr_fit.fallbacks", 0) / fits if fits else 0.0
        return out
