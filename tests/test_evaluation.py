import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import evaluation
from cyclecast.evaluation import (
    EvaluationReport,
    config_id,
    evaluate_records,
    mape,
    read_report_rows,
    relative_improvement,
    sweep,
    write_plot_data,
    write_reports,
)
from cyclecast.forecaster import ForecastConfig, PredictionRecord
from cyclecast.llr import Fallback, KernelFamily, KernelSpec
from cyclecast.trace import MetricKind, Observations, PeriodObservation

import oracles


def _obs(tp_index, samples, cycle=1):
    return PeriodObservation(tp_index, cycle, MetricKind.ARRIVALS, samples, 60)


def _periodic_stream(m, n_steps, pattern):
    return [
        _obs(i % m + 1, [pattern[i % m]] * 6, cycle=i // m + 1) for i in range(n_steps)
    ]


class TestMape:
    def test_basic(self):
        assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(0.1, rel=1e-14)

    def test_perfect_fit(self):
        assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_zero_targets_excluded(self):
        assert mape([110.0, 50.0], [100.0, 0.0]) == pytest.approx(0.1, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0, 2.0])

    def test_all_zero_targets(self):
        with pytest.raises(ValueError):
            mape([1.0, 2.0], [0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        predicted = list(rng.uniform(1, 50, size=40))
        target = list(rng.uniform(1, 50, size=40))
        for c in (0.25, 3.0, 1000.0):
            scaled = mape([c * p for p in predicted], [c * t for t in target])
            assert scaled == pytest.approx(mape(predicted, target), rel=1e-12)

    def test_zero_iff_equal(self):
        assert mape([2.0, 5.0], [2.0, 5.0]) == 0.0
        assert mape([2.0, 5.000001], [2.0, 5.0]) > 0.0


class TestCompare:
    def test_twenty_percent(self):
        assert relative_improvement(0.4, 0.5) == pytest.approx(20.0, rel=1e-12)

    def test_equal_reports(self):
        assert relative_improvement(0.37, 0.37) == 0.0

    def test_formula_identity(self):
        b = 0.45
        assert relative_improvement(0.864 * b, b) == pytest.approx(13.6, rel=1e-12)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_improvement(0.1, 0.0)


class TestEvaluateRecords:
    def _records(self):
        return [
            PredictionRecord(1, 1, None, 4.0),
            PredictionRecord(2, 2, 4.0, 5.0),
            PredictionRecord(3, 3, 3.0, 0.0),
            PredictionRecord(4, 4, 6.0, 4.0, Fallback.WEIGHTED_MEAN),
        ]

    def test_counts_reconcile(self):
        report = evaluate_records(self._records(), test_from_t=1)
        assert report.warmup_steps == 1
        assert report.skipped_zero_targets == 1
        assert report.retained == 2
        assert report.retained + report.skipped_zero_targets + report.warmup_steps == 4
        assert report.mape == pytest.approx((0.2 + 0.5) / 2, rel=1e-12)

    def test_test_window_restriction(self):
        report = evaluate_records(self._records(), test_from_t=4)
        assert report.retained == 1
        assert report.mape == pytest.approx(0.5, rel=1e-12)

    def test_warmup_only_flagged(self):
        records = [PredictionRecord(1, 1, None, 4.0)]
        report = evaluate_records(records)
        assert report.warmup_only
        assert math.isnan(report.mape)

    def test_baseline_deltas_same_retained_set(self):
        records = [
            PredictionRecord(1, 1, None, 4.0),
            PredictionRecord(2, 2, 4.0, 4.0),
            PredictionRecord(3, 3, 4.0, 8.0),
        ]
        report = evaluate_records(records, with_baselines=True, baseline_window=2)
        # cyclic errors: 0 and 0.5; naive predicts 4 then 4: same errors
        assert report.mape == pytest.approx(0.25, rel=1e-12)
        assert report.baseline_deltas["naive"] == pytest.approx(0.0, abs=1e-12)
        assert "poisson_window" in report.baseline_deltas

    @pytest.mark.parametrize("window", [0, -3])
    @pytest.mark.parametrize("records", [[], [PredictionRecord(1, 1, None, 4.0)]], ids=["empty", "warm-up-only"])
    def test_bad_baseline_window_refused_without_retained_steps(self, records, window):
        with pytest.raises(ValueError, match=f"window must be a positive integer, got {window}"):
            evaluate_records(records, with_baselines=True, baseline_window=window)
        # Without baselines the window is not read.
        assert evaluate_records(records, baseline_window=window).retained == 0

    def test_subnormal_target_scores_without_a_warning(self):
        # |1 - a| / a overflows to inf for the naive baseline; the per-record loop is silent.
        records = [PredictionRecord(1, 1, None, 1.0), PredictionRecord(2, 2, 1.0, 2.2250738585e-313)]
        got = evaluate_records(records, with_baselines=True, baseline_window=2)
        expected = oracles.evaluate_records_per_record(records, with_baselines=True, baseline_window=2)
        assert _hexed(got) == _hexed(expected)
        assert got.errors == [math.inf]


_RATES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585e-313, 1e308, math.inf, -math.inf, math.nan]),
)


def _scored(evaluate, records, **kwargs):
    """``evaluate``'s report with every float as its bit pattern, or the error it raises."""
    try:
        return _hexed(evaluate(records, **kwargs))
    except (ValueError, OverflowError) as exc:  # math.fsum refuses inf - inf and overflowing sums
        return type(exc), str(exc)


class TestEvaluateRecordsMatchesPerRecordLoop:
    """``evaluate_records`` (arrays, one scorer) against its per-record loop, field for field."""

    @settings(max_examples=400, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                PredictionRecord,
                t=st.integers(-5, 50),
                tp_index=st.integers(1, 6),
                predicted=st.one_of(st.none(), _RATES),
                actual=_RATES,
            ),
            max_size=40,
        ),
        test_from_t=st.integers(-2, 45),
        with_baselines=st.booleans(),
        baseline_window=st.integers(1, 60),
    )
    def test_every_field_equal(self, records, test_from_t, with_baselines, baseline_window):
        kwargs = dict(
            test_from_t=test_from_t, cid="c", up_tps=3, bandwidth=2.5,
            with_baselines=with_baselines, baseline_window=baseline_window,
        )
        assert _scored(evaluate_records, records, **kwargs) == _scored(
            oracles.evaluate_records_per_record, records, **kwargs
        )


class TestBaselineErrors:
    @given(
        actuals=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e4)), max_size=90),
        window=st.integers(1, 60),
        data=st.data(),
    )
    def test_match_per_step_loop(self, actuals, window, data):
        # Windows up to 60 over up to 90 steps: most histories are shorter
        # than the window, and step 0 has none.
        keep = data.draw(st.lists(st.booleans(), min_size=len(actuals), max_size=len(actuals)))
        retained = [i for i, (a, k) in enumerate(zip(actuals, keep)) if a > 0 and k]
        expected = oracles.baseline_errors_per_step(actuals, retained, window)
        got = evaluation._baseline_errors(np.array(actuals), np.array(retained, dtype=np.int64), window)
        assert [[v.hex() for v in e] for e in got] == [[v.hex() for v in e] for e in expected]

    def test_subnormal_target_matches_per_step_loop(self):
        # The naive error |1 - a| / a overflows to inf, with no warning.
        actuals = [1.0, 2.2250738585e-313]
        expected = oracles.baseline_errors_per_step(actuals, [1], 2)
        got = evaluation._baseline_errors(np.array(actuals), np.array([1]), 2)
        assert [[v.hex() for v in e] for e in got] == [[v.hex() for v in e] for e in expected]
        assert got[0] == [math.inf]


    def test_window_whose_weights_underflow_is_refused(self):
        # e**-800 and e**-5000 underflow: Poisson(800) has nonzero masses
        # only from lag 11 on, Poisson(5000) none within 672 lags.
        actuals = np.arange(700) % 7 + 2.0
        with pytest.raises(ValueError, match="baseline window 5000: .* 672-step history of step 673 "):
            evaluation._baseline_errors(actuals, np.arange(672, 700), 5000)
        with pytest.raises(ValueError, match="baseline window 800: .* 5-step history of step 6 "):
            evaluation._baseline_errors(actuals, np.arange(5, 700), 800)
        got = evaluation._baseline_errors(actuals, np.arange(672, 700), 800)
        expected = oracles.baseline_errors_per_step(actuals.tolist(), list(range(672, 700)), 800)
        assert [[v.hex() for v in e] for e in got] == [[v.hex() for v in e] for e in expected]
        assert all(math.isfinite(v) for v in got[1])


def _poisson_stream(m, n_steps, seed):
    """Periodic Poisson counts with idle periods, so some rates are zero."""
    rng = np.random.default_rng(seed)
    pattern = rng.uniform(0.0, 12.0, size=m) * (rng.uniform(size=m) > 0.3)
    return [
        _obs(i % m + 1, [int(v) for v in rng.poisson(pattern[i % m], size=3)], cycle=i // m + 1)
        for i in range(n_steps)
    ]


def _hexed(report):
    """Every field of a report, floats by their bit pattern."""
    return (
        report.config_id, report.up_tps, report.bandwidth.hex(), report.mape.hex(),
        [e.hex() for e in report.errors], report.skipped_zero_targets, report.warmup_steps,
        {k: v.hex() for k, v in report.baseline_deltas.items()},
    )


def _fields(report):
    """Every field of a report, floats by ``repr``."""
    return (
        report.config_id, report.up_tps, repr(report.bandwidth), repr(report.mape),
        [repr(e) for e in report.errors], report.skipped_zero_targets, report.warmup_steps,
        {k: repr(v) for k, v in report.baseline_deltas.items()},
    )


_KERNELS = st.one_of(
    st.builds(KernelSpec, family=st.sampled_from(list(KernelFamily)), k=st.integers(1, 12)),
    st.builds(
        lambda family, h: KernelSpec(family=family, h=h),
        st.sampled_from(list(KernelFamily)),
        st.one_of(st.sampled_from([0.1, 0.5, 1.0]), st.floats(0.05, 10.0)),
    ),
)


class TestSweepMatchesPerConfigSweep:
    """``sweep`` (one fit, test steps only, columns) against ``run`` + ``evaluate_records`` per configuration."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 8),
        cycles=st.integers(1, 3),
        data=st.data(),
        # Train spans from none, through shorter than m * cycles (test steps
        # in warm-up), to past a 256-step chunk.
        train_len=st.one_of(st.integers(0, 30), st.sampled_from([255, 256, 300])),
        test_len=st.one_of(st.integers(0, 30), st.sampled_from([256, 270])),
        with_baselines=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_field_equal(self, m, cycles, data, train_len, test_len, with_baselines, seed):
        configs = data.draw(
            st.lists(
                st.builds(
                    lambda up, kernel: ForecastConfig(pp_tps=m, up_tps=up, cycles=cycles, kernel=kernel),
                    st.integers(1, m),
                    _KERNELS,
                ),
                min_size=1,
                max_size=4,
            )
        )
        stream = _poisson_stream(m, train_len + test_len, seed)
        train, test = stream[:train_len], stream[train_len:]
        got = sweep(configs, Observations.of(train), Observations.of(test), with_baselines=with_baselines)
        expected = oracles.sweep_per_config(configs, train, test, with_baselines=with_baselines)
        assert [_fields(r) for r in got] == [_fields(r) for r in expected]

    @pytest.mark.parametrize(
        "pp_tps, bad",
        [
            # Out of order for every configuration.
            ((6, 6), lambda stream: stream[:7] + [stream[8], stream[7]] + stream[9:]),
            # In order for the first configuration only.
            ((6, 4), lambda stream: stream),
        ],
        ids=["swapped", "other-period"],
    )
    def test_bad_stream_same_error(self, pp_tps, bad):
        configs = [ForecastConfig(pp_tps=m, up_tps=3, cycles=2, kernel=KernelSpec(k=3)) for m in pp_tps]
        stream = bad(_poisson_stream(6, 30, seed=11))
        with pytest.raises(ValueError) as expected:
            oracles.sweep_per_config(configs, stream[:12], stream[12:])
        with pytest.raises(ValueError) as got:
            sweep(configs, Observations.of(stream[:12]), Observations.of(stream[12:]))
        assert str(got.value) == str(expected.value)


class TestSweep:
    def test_single_config_finite(self):
        pattern = [3, 6, 9, 6, 3, 2]
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _periodic_stream(6, 24, pattern)
        reports = sweep([cfg], Observations.of(stream[:12]), Observations.of(stream[12:]))
        assert len(reports) == 1
        assert math.isfinite(reports[0].mape)
        assert not reports[0].warmup_only

    def test_grid_count_and_order(self):
        pattern = [3, 6, 9, 6, 3, 2]
        stream = _periodic_stream(6, 24, pattern)
        configs = [
            ForecastConfig(pp_tps=6, up_tps=up, cycles=2, kernel=KernelSpec(k=k))
            for up in (4, 2, 3)
            for k in (3, 2, 4)
        ]
        reports = sweep(configs, Observations.of(stream[:12]), Observations.of(stream[12:]))
        assert len(reports) == 9
        keys = [(r.up_tps, r.bandwidth) for r in reports]
        assert keys == sorted(keys)

    def test_baselines_computed_once_per_window(self):
        # They depend on the window and the retained steps, not on the bandwidth.
        stream = _periodic_stream(6, 24, [3, 6, 9, 6, 3, 2])
        configs = [
            ForecastConfig(pp_tps=6, up_tps=up, cycles=2, kernel=KernelSpec(k=k))
            for up in (4, 2, 3)
            for k in (3, 2, 4)
        ]
        with mock.patch.object(evaluation, "_baseline_errors", wraps=evaluation._baseline_errors) as computed:
            reports = sweep(
                configs, Observations.of(stream[:12]), Observations.of(stream[12:]), with_baselines=True
            )
        assert sorted(call.args[2] for call in computed.call_args_list) == [2, 3, 4]
        expected = oracles.sweep_per_config(configs, stream[:12], stream[12:], with_baselines=True)
        assert [_fields(r) for r in reports] == [_fields(r) for r in expected]
        assert all(r.baseline_deltas for r in reports)

    def test_insufficient_train_flagged(self):
        # No training data at all: the single test step predicts from an
        # empty store, so the report is warm-up-only.
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=1, kernel=KernelSpec(k=2))
        stream = _periodic_stream(6, 1, [5, 5, 5, 5, 5, 5])
        reports = sweep([cfg], Observations.of([]), Observations.of(stream))
        assert reports[0].warmup_only
        assert reports[0].warmup_steps == 1
        assert math.isnan(reports[0].mape)

    def test_exact_periodic_signal_scores_zero(self):
        # Constant pattern: all predictions equal the constant rate.
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _periodic_stream(6, 24, [7, 7, 7, 7, 7, 7])
        reports = sweep([cfg], Observations.of(stream[:12]), Observations.of(stream[12:]))
        assert reports[0].mape == pytest.approx(0.0, abs=1e-9)

    def test_perfect_baselines_do_not_break_deltas(self):
        # On a constant stream the naive baseline is exact (zero error), so
        # no percentage improvement against it exists; the sweep must still
        # complete and simply omit that delta.
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _periodic_stream(6, 24, [7, 7, 7, 7, 7, 7])
        reports = sweep([cfg], Observations.of(stream[:12]), Observations.of(stream[12:]), with_baselines=True)
        assert "naive" not in reports[0].baseline_deltas


class TestReportFiles:
    def test_write_read_round_trip(self, tmp_path):
        reports = [
            EvaluationReport("up3-epanechnikov-k=2", 3, 2.0, 0.125, [0.1, 0.15], 1, 0, {"naive": 12.5}),
            EvaluationReport("up6-epanechnikov-k=2", 6, 2.0, 0.25, [0.25], 0, 2),
        ]
        path = tmp_path / "reports.csv"
        write_reports(path, reports)
        rows = read_report_rows(path)
        assert len(rows) == 2
        assert rows[0]["config_id"] == "up3-epanechnikov-k=2"
        assert float(rows[0]["mape"]) == 0.125
        assert rows[0]["improvement_vs_naive_pct"] == "12.5"
        assert rows[1]["improvement_vs_naive_pct"] == ""
        assert rows[1]["warmup_steps"] == "2"

    def test_plot_data(self, tmp_path):
        reports = [EvaluationReport("a", 3, 2.0, 0.5, [0.5], 0, 0)]
        path = tmp_path / "plot.csv"
        write_plot_data(path, reports)
        assert path.read_text().splitlines() == ["up_tps,bandwidth,mape", "3,2.0,0.5"]


class TestConfigId:
    def test_contains_window_and_kernel(self):
        cfg = ForecastConfig(pp_tps=12, up_tps=6, cycles=1, kernel=KernelSpec(k=4))
        cid = config_id(cfg)
        assert "up6" in cid and "epanechnikov" in cid and "k=4" in cid
