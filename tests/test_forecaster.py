import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import forecaster
from cyclecast.forecaster import (
    ForecastConfig,
    PredictionRecord,
    observe_step,
    predict_step,
    read_records,
    run,
    write_records,
)
from cyclecast.llr import Fallback, KernelFamily, KernelSpec, llr_apply, llr_plan
from cyclecast.poisson import poisson_mle
from cyclecast.store import CyclicDataset, EmptyWindowError
from cyclecast.trace import MetricKind, Observations, PeriodObservation

import oracles


def _obs(tp_index, samples, cycle=1):
    return PeriodObservation(tp_index, cycle, MetricKind.ARRIVALS, samples, 60)


def _window_fit(ds, n, kernel):
    """The LLR fit at offset n over the store's trailing window, read cell by cell."""
    entries = oracles.window_entries(ds, n)
    plan = llr_plan([float(x) for x, _ in entries], float(n), kernel)
    return llr_apply(plan, [y for _, y in entries]), plan.fallback


def _constant_stream(m, n_steps, value):
    """Noiseless stream whose every period fits to the same rate."""
    return [_obs(i % m + 1, [value] * 4, cycle=i // m + 1) for i in range(n_steps)]


class TestConfig:
    def test_defaults(self):
        cfg = ForecastConfig()
        assert cfg.pp_tps == 336 and cfg.up_tps == 50 and cfg.kernel.k == 20
        assert [f.name for f in dataclasses.fields(ForecastConfig)] == [
            "pp_tps", "up_tps", "cycles", "kernel",
        ]

    def test_window_must_fit_pattern(self):
        with pytest.raises(ValueError):
            ForecastConfig(pp_tps=48, up_tps=49)


class TestPredictStep:
    def test_constant_store(self):
        cfg = ForecastConfig(pp_tps=12, up_tps=6, cycles=2, kernel=KernelSpec(k=5))
        ds = cfg.new_store()
        for _ in range(24):
            ds.update(4.0)
        for kernel in (KernelSpec(k=5), KernelSpec(family=KernelFamily.GAUSSIAN, h=2.0)):
            cfg_k = ForecastConfig(pp_tps=12, up_tps=6, cycles=2, kernel=kernel)
            value, _ = predict_step(ds, cfg_k)
            assert value == pytest.approx(4.0, abs=1e-9)

    def test_linear_ramp_extrapolates_exactly(self):
        m, n = 10, 5
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=2, kernel=KernelSpec(k=4))
        ds = cfg.new_store()
        # Rates ramp with position; both cycles identical, so the window
        # offsets carry an exact affine signal.
        for _ in range(2):
            for pos in range(1, m + 1):
                ds.update(float(pos))
        # cursor back at p=1: window positions 7..10,1 hold 7,8,9,10,1 - not
        # affine across the wrap, so walk to p=6 where the window is 2..6.
        for pos in range(1, 6):
            ds.update(float(pos))
        value, _ = predict_step(ds, cfg)
        assert value == pytest.approx(6.0, abs=1e-9)

    def test_matches_window_plus_llr_composition(self):
        rng = np.random.default_rng(41)
        cfg = ForecastConfig(pp_tps=20, up_tps=8, cycles=3, kernel=KernelSpec(k=6))
        ds = cfg.new_store()
        for _ in range(60):
            ds.update(float(rng.uniform(0.5, 30)))
        expected, expected_fallback = _window_fit(ds, cfg.up_tps, cfg.kernel)
        value, fallback = predict_step(ds, cfg)
        assert value == max(expected, 0.0)
        assert fallback == expected_fallback

    def test_clamps_negative_extrapolation(self):
        cfg = ForecastConfig(pp_tps=8, up_tps=4, cycles=1, kernel=KernelSpec(k=3))
        ds = cfg.new_store()
        for rate in (9.0, 6.0, 3.0, 0.0):
            ds.update(rate)
        value, _ = predict_step(ds, cfg)
        assert value == 0.0

    def test_bandwidth_clamped_to_thin_window(self):
        cfg = ForecastConfig(pp_tps=10, up_tps=3, cycles=1, kernel=KernelSpec(k=20))
        ds = cfg.new_store()
        for rate in (2.0, 4.0, 6.0):
            ds.update(rate)
        # population is 3 entries; k=20 must not raise
        value, _ = predict_step(ds, cfg)
        assert value >= 0.0

    def test_empty_window_raises(self):
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=1)
        with pytest.raises(EmptyWindowError):
            predict_step(cfg.new_store(), cfg)

    @given(
        m=st.integers(1, 10),
        l=st.integers(1, 4),
        data=st.data(),
        family=st.sampled_from(list(KernelFamily)),
        k=st.integers(1, 130),
        h=st.floats(0.05, 12.0),
        fixed=st.booleans(),
    )
    def test_equals_fit_over_extracted_window(self, m, l, data, family, k, h, fixed):
        # Any store state: warm-up, partial cycles, full and wrapped stores;
        # k may exceed the window's population.
        n = data.draw(st.integers(1, m))
        rates = data.draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e3)),
                max_size=3 * m * l + 2,
            )
        )
        kernel = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        ds = cfg.new_store()
        for rate in rates:
            ds.update(rate)
        population = len(oracles.window_entries(ds, n))
        if not population:
            with pytest.raises(EmptyWindowError):
                predict_step(ds, cfg)
            return
        if kernel.k is not None and kernel.k > population:
            kernel = dataclasses.replace(kernel, k=population)
        expected, fallback = _window_fit(ds, n, kernel)
        assert predict_step(ds, cfg) == (max(expected, 0.0), fallback)


class TestObserveStep:
    def test_fits_and_stores(self):
        ds = CyclicDataset(4, 2)
        actual = observe_step(ds, _obs(1, [2, 3, 4]))
        assert actual == 3.0
        assert ds.get(1, 1) == 3.0
        assert ds.p == 2

    def test_zero_samples_store_zero(self):
        ds = CyclicDataset(4, 1)
        assert observe_step(ds, _obs(1, [0, 0, 0])) == 0.0
        assert ds.get(1, 1) == 0.0

    def test_consecutive_observations_fill_consecutive_positions(self):
        ds = CyclicDataset(4, 1)
        observe_step(ds, _obs(1, [1]))
        observe_step(ds, _obs(2, [2]))
        assert ds.get(1, 1) == 1.0
        assert ds.get(2, 1) == 2.0

    def test_out_of_order_rejected(self):
        ds = CyclicDataset(4, 1)
        with pytest.raises(ValueError):
            observe_step(ds, _obs(3, [1]))


class TestRun:
    def test_record_per_observation_with_warmup(self):
        m, l = 6, 2
        cfg = ForecastConfig(pp_tps=m, up_tps=3, cycles=l, kernel=KernelSpec(k=3))
        stream = _constant_stream(m, m * l, 5)
        records = run(Observations.of(stream), cfg)
        assert len(records) == m * l
        assert records[0].predicted is None
        assert all(r.predicted is not None for r in records[1:])
        assert [r.t for r in records] == list(range(1, m * l + 1))
        assert [r.tp_index for r in records] == [i % m + 1 for i in range(m * l)]

    def test_stream_equals_batch(self):
        cfg = ForecastConfig(pp_tps=5, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _constant_stream(5, 20, 7)
        assert run(Observations.of(iter(stream)), cfg) == run(Observations.of(stream), cfg)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(53)
        cfg = ForecastConfig(pp_tps=8, up_tps=4, cycles=2, kernel=KernelSpec(k=4))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 20, size=5)], cycle=i // 8 + 1)
            for i in range(32)
        ]
        assert run(Observations.of(stream), cfg) == run(Observations.of(stream), cfg)

    def test_predictions_nonnegative(self):
        rng = np.random.default_rng(59)
        cfg = ForecastConfig(pp_tps=8, up_tps=6, cycles=2, kernel=KernelSpec(k=5))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 12, size=5)], cycle=i // 8 + 1)
            for i in range(48)
        ]
        records = run(Observations.of(stream), cfg)
        assert all(r.predicted is None or r.predicted >= 0 for r in records)

    def test_periodic_affine_pattern_captured(self):
        # Rates ramp 1..m each cycle; away from the wrap the window signal is
        # exactly affine, so predictions reproduce the truth after one full
        # pattern period of warm-up.
        m, n = 12, 3
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=2, kernel=KernelSpec(family=KernelFamily.GAUSSIAN, h=1.5))
        pattern = [float(p) for p in range(1, m + 1)]
        stream = [
            _obs(i % m + 1, [int(pattern[i % m])] * 6, cycle=i // m + 1) for i in range(3 * m)
        ]
        records = run(Observations.of(stream), cfg)
        for r in records[m:]:
            if r.tp_index >= n:  # window does not cross the wrap
                assert r.predicted == pytest.approx(pattern[r.tp_index - 1], abs=1e-6)

    def test_out_of_order_stream_rejected(self):
        cfg = ForecastConfig(pp_tps=4, up_tps=2, cycles=1, kernel=KernelSpec(k=2))
        bad = [_obs(1, [1]), _obs(3, [1])]
        with pytest.raises(ValueError):
            run(Observations.of(bad), cfg)

    @pytest.mark.parametrize(
        "bad",
        [
            _obs(2, [1, 1.5]),
            _obs(2, [1, 2**63]),
            PeriodObservation(2, 1, MetricKind.ARRIVALS, [1, 2], 0),
        ],
    )
    def test_columns_refuse_periods_the_step_loop_takes(self, bad):
        # The step loop fits these; the int64 columns that run takes cannot hold them.
        cfg = ForecastConfig(pp_tps=4, up_tps=2, cycles=1, kernel=KernelSpec(k=2))
        stream = [_obs(1, [1, 3]), bad]
        records = oracles.run_per_step(stream, cfg)
        assert len(records) == 2 and records[1].actual == poisson_mle(bad.samples)
        with pytest.raises(ValueError):
            Observations.of(stream)

    def test_resumed_run_matches_uninterrupted_run(self):
        rng = np.random.default_rng(67)
        cfg = ForecastConfig(pp_tps=6, up_tps=4, cycles=2, kernel=KernelSpec(k=4))
        stream = [
            _obs(i % 6 + 1, [int(v) for v in rng.integers(0, 15, size=5)], cycle=i // 6 + 1)
            for i in range(24)
        ]
        full = run(Observations.of(stream), cfg)

        ds = cfg.new_store()
        run(Observations.of(stream[:12]), cfg, ds)
        resumed = run(Observations.of(stream[12:]), cfg, ds)
        assert [(r.predicted, r.actual, r.fallback) for r in resumed] == [
            (r.predicted, r.actual, r.fallback) for r in full[12:]
        ]


def _poisson_stream(m, n_steps, seed):
    """Periodic Poisson counts with idle periods, so some rates are zero."""
    rng = np.random.default_rng(seed)
    pattern = rng.uniform(0.0, 12.0, size=m) * (rng.uniform(size=m) > 0.2)
    return [
        _obs(i % m + 1, [int(v) for v in rng.poisson(pattern[i % m], size=4)], cycle=i // m + 1)
        for i in range(n_steps)
    ]


class TestRunMatchesReferenceLoop:
    @pytest.mark.parametrize(
        "m, n, l, kernel, forced",
        [
            (12, 5, 3, KernelSpec(family=KernelFamily.GAUSSIAN, h=2.5), set()),
            (12, 12, 2, KernelSpec(family=KernelFamily.GAUSSIAN, k=7), set()),
            # k=3 lands on the three replicates at the query offset: widened.
            (12, 4, 3, KernelSpec(k=3), {Fallback.WIDENED_H}),
            # A radius too short to reach a second offset: weighted mean, and
            # the global line while the query offset is still empty.
            (12, 4, 3, KernelSpec(h=0.1), {Fallback.WEIGHTED_MEAN, Fallback.GLOBAL_LINE}),
        ],
    )
    def test_records_equal(self, m, n, l, kernel, forced):
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        stream = _poisson_stream(m, 3 * m * l + 5, seed=m * n + l)
        records = run(Observations.of(stream), cfg)
        assert records == oracles.forecast_loop(stream, cfg)
        assert forced <= {r.fallback for r in records}


def _hexed(records):
    """Records with every rate as its exact bit pattern."""
    return [
        (r.t, r.tp_index, None if r.predicted is None else r.predicted.hex(), r.actual.hex(), r.fallback)
        for r in records
    ]


def _stores(cfg, prefix):
    """Two equal, independent stores after ``prefix`` observed."""
    stores = []
    for _ in range(2):
        ds = cfg.new_store()
        oracles.run_per_step(prefix, cfg, ds)
        stores.append(ds)
    return stores


def _state(ds):
    """The store's step counter and cell bits, to compare before and after a call."""
    return ds.t, ds.cells.tobytes()


def _assert_same_store(a, b):
    assert a == b
    assert a.cells.tobytes() == b.cells.tobytes()


CHUNK = forecaster._CHUNK


class TestBatchedRun:
    """``run`` against the step loop it batches, record for record and bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        l=st.integers(1, 3),
        data=st.data(),
        family=st.sampled_from(list(KernelFamily)),
        k=st.integers(1, 30),
        # Radii short enough to force every fallback kind, and wider ones.
        h=st.one_of(st.sampled_from([0.1, 0.5, 0.75, 1.0]), st.floats(0.05, 12.0)),
        fixed=st.booleans(),
        length=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]),
        resume=st.sampled_from(["fresh", "partial"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_step_loop(self, m, l, data, family, k, h, fixed, length, resume, seed):
        n = data.draw(st.integers(1, m))
        done = 0 if resume == "fresh" else data.draw(st.integers(0, 2 * m * l + 1))
        kernel = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        stream = _poisson_stream(m, done + length, seed)
        batch_ds, step_ds = _stores(cfg, stream[:done])

        records = run(Observations.of(stream[done:]), cfg, batch_ds)
        assert _hexed(records) == _hexed(oracles.run_per_step(stream[done:], cfg, step_ds))
        _assert_same_store(batch_ds, step_ds)
        # The uninterrupted reference loop, from its step done + 1 on.
        reference = [
            dataclasses.replace(r, t=r.t - done) for r in oracles.forecast_loop(stream, cfg)[done:]
        ]
        assert _hexed(records) == _hexed(reference)

    @pytest.mark.parametrize("resume", ["fresh", "partial"])
    @pytest.mark.parametrize(
        "kernel, forced",
        [
            (KernelSpec(k=3), {Fallback.WIDENED_H}),
            (KernelSpec(h=0.1), {Fallback.WEIGHTED_MEAN, Fallback.GLOBAL_LINE}),
            (KernelSpec(family=KernelFamily.GAUSSIAN, k=40), {Fallback.NONE}),
        ],
    )
    def test_forced_fallbacks_across_chunks(self, kernel, forced, resume):
        cfg = ForecastConfig(pp_tps=12, up_tps=4, cycles=3, kernel=kernel)
        stream = _poisson_stream(12, 5 + 2 * CHUNK + 1, seed=17)
        done = 0 if resume == "fresh" else 5
        batch_ds, step_ds = _stores(cfg, stream[:done])
        records = run(Observations.of(stream[done:]), cfg, batch_ds)
        assert _hexed(records) == _hexed(oracles.run_per_step(stream[done:], cfg, step_ds))
        _assert_same_store(batch_ds, step_ds)
        assert forced <= {r.fallback for r in records}

    @pytest.mark.parametrize(
        "bad",
        [lambda stream: stream[:7] + [_obs(stream[7].tp_index % 6 + 1, [1])] + stream[8:]],
        ids=["out-of-order"],
    )
    def test_bad_stream_leaves_store_unchanged(self, bad):
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _poisson_stream(6, 30, seed=23)
        ds, step_ds = _stores(cfg, stream[:4])
        before = _state(ds)
        stream = bad(stream[4:])
        with pytest.raises(ValueError) as step_error:
            oracles.run_per_step(stream, cfg, step_ds)
        with pytest.raises(ValueError) as batch_error:
            run(Observations.of(stream), cfg, ds)
        assert str(batch_error.value) == str(step_error.value)
        assert _state(ds) == before

    def test_unstorable_rate_stream_cannot_be_built(self):
        # The step loop refuses the NaN rate when it reaches it; run never
        # sees the stream, because its columns refuse the NaN sample.
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _poisson_stream(6, 26, seed=23)
        stream = stream[:7] + [_obs(stream[7].tp_index, [float("nan")])] + stream[8:]
        with pytest.raises(ValueError, match="rate must be finite"):
            oracles.run_per_step(stream, cfg)
        with pytest.raises(ValueError, match="samples must be integers below 2\\*\\*63"):
            Observations.of(stream)

    def test_store_of_another_shape_rejected(self):
        # A window that fits the store and a stream in the store's order: only
        # the shape tells the store apart from the configuration's.
        cfg = ForecastConfig(pp_tps=6, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        for m, l in [(4, 1), (6, 1), (4, 2), (5, 3)]:
            stream = _poisson_stream(m, 9, seed=m * l)
            ds = CyclicDataset(m, l)
            for obs in stream[:5]:
                observe_step(ds, obs)
            before = _state(ds)
            message = f"store of {m} positions x {l} cycles does not fit a configuration of pp_tps=6, cycles=2"
            with pytest.raises(ValueError, match=re.escape(message)):
                predict_step(ds, cfg)
            with pytest.raises(ValueError, match=re.escape(message)):
                run(Observations.of(stream[5:]), cfg, ds)
            with pytest.raises(ValueError, match=re.escape(message)):
                run(Observations.of([]), cfg, ds)
            assert _state(ds) == before


class TestPlanCache:
    def test_bounded_after_run(self):
        bound = forecaster._window_plan.cache_info().maxsize
        cfg = ForecastConfig(pp_tps=10, up_tps=6, cycles=3, kernel=KernelSpec(k=5))
        run(Observations.of(_poisson_stream(10, 200, seed=3)), cfg)
        assert 0 < forecaster._window_plan.cache_info().currsize <= bound

    @pytest.mark.parametrize(
        "m, n, l, kernel",
        [
            (9, 4, 3, KernelSpec(k=5)),
            (7, 7, 2, KernelSpec(family=KernelFamily.GAUSSIAN, h=1.5)),
            (6, 3, 4, KernelSpec(family=KernelFamily.BIWEIGHT, k=40)),
        ],
    )
    def test_steady_state_reuses_one_plan(self, m, n, l, kernel):
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        stream = _poisson_stream(m, 3 * m * l, seed=5)
        # Population patterns of the windows predicted before the store is full.
        ds = cfg.new_store()
        warmup_masks = set()
        for obs in stream[: m * l]:
            try:
                warmup_masks.add(ds.window_cells(n)[1].tobytes())
            except EmptyWindowError:
                pass
            observe_step(ds, obs)
        # The step loop looks a plan up for every predicted step.
        forecaster._window_plan.cache_clear()
        ds = cfg.new_store()
        oracles.run_per_step(stream[: m * l], cfg, ds)
        warmup_misses = forecaster._window_plan.cache_info().misses
        oracles.run_per_step(stream[m * l :], cfg, ds)
        info = forecaster._window_plan.cache_info()
        assert info.misses <= len(warmup_masks) + 1
        assert info.misses - warmup_misses <= 1
        assert info.hits + info.misses >= 2 * m * l
        # The batched run looks each window shape up once: a cold cache
        # builds at most one plan per warm-up shape and one for the steady
        # state, and a run over a full store builds at most that one.
        forecaster._window_plan.cache_clear()
        ds = cfg.new_store()
        run(Observations.of(stream[: m * l]), cfg, ds)
        warmup_misses = forecaster._window_plan.cache_info().misses
        run(Observations.of(stream[m * l :]), cfg, ds)
        misses = forecaster._window_plan.cache_info().misses
        assert misses <= len(warmup_masks) + 1
        assert misses - warmup_misses <= 1
        forecaster._window_plan.cache_clear()
        run(Observations.of(stream), cfg)
        assert forecaster._window_plan.cache_info().misses <= len(warmup_masks) + 1


class TestBaselines:
    def test_naive_examples(self):
        assert oracles.baseline_naive([1.0, 2.0, 3.0]) == 3.0
        assert oracles.baseline_naive([4.5]) == 4.5
        with pytest.raises(ValueError):
            oracles.baseline_naive([])

    def test_windowed_constant_history(self):
        assert oracles.baseline_poisson_window([6.0] * 10, 4) == pytest.approx(6.0, rel=1e-12)

    def test_windowed_single_value(self):
        assert oracles.baseline_poisson_window([5.0], 7) == pytest.approx(5.0, rel=1e-12)

    def test_windowed_matches_reference(self):
        history = [3.0, 8.0, 2.0, 5.0, 13.0, 1.0]
        for window in (1, 3, 6, 10):
            expected = oracles.weighted_window_mean(history, window)
            assert oracles.baseline_poisson_window(history, window) == pytest.approx(expected, rel=1e-12)

    def test_windowed_validation(self):
        with pytest.raises(ValueError):
            oracles.baseline_poisson_window([], 3)
        with pytest.raises(ValueError):
            oracles.baseline_poisson_window([1.0], 0)


_RECORDS_HEADER = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"


class TestRecordsFile:
    def test_round_trip_including_warmup(self, tmp_path):
        records = [
            PredictionRecord(1, 1, None, 2.5, Fallback.NONE),
            PredictionRecord(2, 2, 2.5, 3.5, Fallback.WEIGHTED_MEAN),
            PredictionRecord(3, 3, 3.25, 0.0, Fallback.WIDENED_H),
        ]
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert read_records(path) == records

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_records(path)

    def test_rejects_rates_run_cannot_write(self, tmp_path):
        path = tmp_path / "records.csv"
        header = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
        good = "1,1,NA,2.0,none\n"
        for bad in ("2,2,nan,2.0,none", "2,2,2.0,inf,none", "2,2,-0.5,2.0,none", "2,2,2.0,-5.0,none"):
            path.write_text(header + good + bad + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: rate must be finite"):
                read_records(path)

    def test_rejects_steps_out_of_order(self, tmp_path):
        # run writes t = 1..N; any other order would pair the baselines with
        # the wrong history.
        path = tmp_path / "records.csv"
        header = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
        for rows, lineno, t, expected in [
            ("1,1,NA,2.0,none\n3,3,2.5,3.0,none\n2,2,2.0,2.0,none\n", 3, 3, 2),
            ("1,1,NA,2.0,none\n2,2,2.0,2.0,none\n2,2,2.0,5.0,none\n", 4, 2, 3),
            ("0,1,NA,2.0,none\n", 2, 0, 1),
            ("2,2,2.0,2.0,none\n", 2, 2, 1),
        ]:
            path.write_text(header + rows)
            message = f"{path}:{lineno}: step t={t} out of order: expected t={expected}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_records(path)

    @pytest.mark.parametrize("tp_index", [0, -7])
    def test_rejects_tp_index_below_one(self, tmp_path, tp_index):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + f"1,1,NA,2.0,none\n2,{tp_index},2.0,2.0,none\n")
        message = f"{path}:3: tp_index={tp_index} is below 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records(path)

    @pytest.mark.parametrize("tp_index", [2, 3, 99])
    def test_rejects_tp_index_that_neither_follows_nor_wraps(self, tmp_path, tp_index):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + f"1,2,NA,2.0,none\n2,3,2.0,2.0,none\n3,{tp_index},2.0,2.0,none\n")
        message = f"{path}:4: tp_index={tp_index} follows tp_index=3: expected 4 or a wrap to 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records(path)

    def test_tp_index_may_start_anywhere_and_wrap(self, tmp_path):
        # A run on a store that was already fed starts at its cursor.
        path = tmp_path / "records.csv"
        path.write_text(
            _RECORDS_HEADER + "1,3,NA,2.0,none\n2,1,NA,2.0,none\n3,2,2.0,2.0,none\n4,3,2.0,2.0,none\n5,1,2.0,2.0,none\n"
        )
        assert [r.tp_index for r in read_records(path)] == [3, 1, 2, 3, 1]

    @pytest.mark.parametrize(
        "tp_indices, message",
        [
            ([1, 2, 3, 1, 2, 1], "wrap to 1 after tp_index=2: the first wrap set the pattern length to 3"),
            ([3, 1, 2, 1], "wrap to 1 after tp_index=2: the first wrap set the pattern length to 3"),
            ([1, 2, 3, 1, 2, 3, 4], "tp_index=4 exceeds the pattern length 3 set by the first wrap"),
            ([2, 1, 2, 3], "tp_index=3 exceeds the pattern length 2 set by the first wrap"),
        ],
        ids=["second-wrap-early", "start-mid-pattern", "past-the-length", "past-a-short-length"],
    )
    def test_rejects_wraps_that_disagree_on_the_pattern_length(self, tmp_path, tp_indices, message):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + "".join(f"{t},{tp},2.0,2.0,none\n" for t, tp in enumerate(tp_indices, 1)))
        lineno = len(tp_indices) + 1
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
            read_records(path)

    @pytest.mark.parametrize("pp_tps, first", [(1, 0), (3, 0), (3, 2), (4, 1), (4, 5)])
    def test_run_output_with_any_start_reads_back(self, tmp_path, pp_tps, first):
        # A fed store puts the run's first step anywhere in the pattern.
        cfg = ForecastConfig(pp_tps=pp_tps, up_tps=1, cycles=2, kernel=KernelSpec(k=2))
        stream = _poisson_stream(pp_tps, first + 3 * pp_tps + 2, seed=7)
        ds = cfg.new_store()
        run(Observations.of(stream[:first]), cfg, ds)
        records = run(Observations.of(stream[first:]), cfg, ds)
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert read_records(path) == records

    def test_rejects_na_after_a_numeric_prediction(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + "1,1,NA,2.0,none\n2,2,2.0,2.0,none\n3,3,NA,2.0,none\n")
        message = f"{path}:4: NA prediction after a numeric one: warm-up steps only lead a run"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records(path)

    def test_run_output_reads_back(self, tmp_path):
        # Warm-up runs of several steps (up_tps=1), wraps, and a run on a fed store.
        cfg = ForecastConfig(pp_tps=4, up_tps=1, cycles=2, kernel=KernelSpec(k=2))
        stream = _poisson_stream(4, 14, seed=5)
        ds = cfg.new_store()
        path = tmp_path / "records.csv"
        for part in (stream[:5], stream[5:]):
            records = run(Observations.of(part), cfg, ds)
            write_records(path, records)
            assert read_records(path) == records

    def test_row_errors_name_the_line(self, tmp_path):
        path = tmp_path / "records.csv"
        header = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
        for bad in ("x,1,NA,2.0,none", "1,1,NA,2.0,bogus", "1,1,NA,2.0"):
            path.write_text(header + bad + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
                read_records(path)
