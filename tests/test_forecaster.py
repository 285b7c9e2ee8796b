import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import forecaster
from cyclecast.forecaster import (
    ForecastConfig,
    Records,
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
    return llr_apply(plan, [y for _, y in entries]), plan.fallback[0]


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
        assert oracles.store_get(ds, 1, 1) == 3.0
        assert ds.p == 2

    def test_zero_samples_store_zero(self):
        ds = CyclicDataset(4, 1)
        assert observe_step(ds, _obs(1, [0, 0, 0])) == 0.0
        assert oracles.store_get(ds, 1, 1) == 0.0

    def test_consecutive_observations_fill_consecutive_positions(self):
        ds = CyclicDataset(4, 1)
        observe_step(ds, _obs(1, [1]))
        observe_step(ds, _obs(2, [2]))
        assert oracles.store_get(ds, 1, 1) == 1.0
        assert oracles.store_get(ds, 2, 1) == 2.0

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
        assert records.warm.tolist() == [True] + [False] * (m * l - 1)
        assert records.predicted[0] == 0.0
        assert records.tp_index.tolist() == [i % m + 1 for i in range(m * l)]

    def test_stream_equals_batch(self):
        cfg = ForecastConfig(pp_tps=5, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _constant_stream(5, 20, 7)
        assert _steps(run(Observations.of(iter(stream)), cfg)) == _steps(run(Observations.of(stream), cfg))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(53)
        cfg = ForecastConfig(pp_tps=8, up_tps=4, cycles=2, kernel=KernelSpec(k=4))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 20, size=5)], cycle=i // 8 + 1)
            for i in range(32)
        ]
        assert _steps(run(Observations.of(stream), cfg)) == _steps(run(Observations.of(stream), cfg))

    def test_predictions_nonnegative(self):
        rng = np.random.default_rng(59)
        cfg = ForecastConfig(pp_tps=8, up_tps=6, cycles=2, kernel=KernelSpec(k=5))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 12, size=5)], cycle=i // 8 + 1)
            for i in range(48)
        ]
        records = run(Observations.of(stream), cfg)
        assert (records.predicted >= 0).all()

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
        records = oracles.prediction_records(run(Observations.of(stream), cfg))
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
        full = oracles.prediction_records(run(Observations.of(stream), cfg))

        ds = cfg.new_store()
        run(Observations.of(stream[:12]), cfg, ds)
        resumed = oracles.prediction_records(run(Observations.of(stream[12:]), cfg, ds))
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
        assert oracles.prediction_records(records) == oracles.forecast_loop(stream, cfg)
        assert forced <= set(records.fallback.tolist())


def _hexed(records):
    """Records with every rate as its exact bit pattern."""
    return [
        (r.t, r.tp_index, None if r.predicted is None else r.predicted.hex(), r.actual.hex(), r.fallback)
        for r in records
    ]


def _steps(records):
    """Each step of ``records`` (``Records``) as a record, every rate as its exact bit pattern."""
    return _hexed(oracles.prediction_records(records))


def _columns(records):
    """Every column of ``records``, rates as their exact bit patterns."""
    return (
        records.tp_index.tolist(),
        [p.hex() for p in records.predicted.tolist()],
        records.warm.tolist(),
        [a.hex() for a in records.actual.tolist()],
        records.fallback.tolist(),
    )


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
        assert _steps(records) == _hexed(oracles.run_per_step(stream[done:], cfg, step_ds))
        _assert_same_store(batch_ds, step_ds)
        # The uninterrupted reference loop, from its step done + 1 on.
        reference = [
            dataclasses.replace(r, t=r.t - done) for r in oracles.forecast_loop(stream, cfg)[done:]
        ]
        assert _steps(records) == _hexed(reference)

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
        assert _steps(records) == _hexed(oracles.run_per_step(stream[done:], cfg, step_ds))
        _assert_same_store(batch_ds, step_ds)
        assert forced <= set(records.fallback.tolist())

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

    @staticmethod
    def _float_fed(cfg, rates):
        """A store that ``observe_step`` fed one sample per period, ``rates[i]``."""
        ds = cfg.new_store()
        for i, r in enumerate(rates):
            observe_step(ds, _obs(i % cfg.pp_tps + 1, [r], cycle=i // cfg.pp_tps + 1))
        return ds

    def _outcomes(self, cfg, rates, tail):
        """``run`` and the step loop over ``tail`` from two stores fed ``rates``:
        each one's steps (rates by bit pattern) and cells, or its error's type
        and message. A failing ``run`` must leave its store as it was."""
        outcomes = []
        for call in (lambda ds: run(Observations.of(tail), cfg, ds), lambda ds: oracles.run_per_step(tail, cfg, ds)):
            ds = self._float_fed(cfg, rates)
            before = _state(ds)
            try:
                records = call(ds)
            except (ValueError, OverflowError) as exc:
                outcomes.append((type(exc), str(exc)))
                if len(outcomes) == 1:
                    assert _state(ds) == before
                continue
            steps = _steps(records) if isinstance(records, Records) else _hexed(records)
            outcomes.append((steps, ds.cells.tobytes()))
        return outcomes

    # A batch sums every row's sy before any row's sxy, so it used to fail at
    # a later step than the step loop: OverflowError in fsum against the step
    # loop's ValueError.
    _OVERFLOWING = [
        2.5e-310, 1e300, .5, 0, .5, 1e300, .5, 0, 0, 2.375, 1e300, 1.7e308, 1.7e308, 0, 1.7e308, 2.375, 0, .5,
    ]

    def test_overflowing_store_fails_at_the_step_loops_step(self):
        cfg = ForecastConfig(pp_tps=5, up_tps=5, cycles=2, kernel=KernelSpec(family=KernelFamily.GAUSSIAN, k=7))
        tail = [_obs((18 + i) % 5 + 1, [1], cycle=(18 + i) // 5 + 1) for i in range(3)]
        # A library caller's default: numpy warns on overflow and goes on.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch, step = self._outcomes(cfg, self._OVERFLOWING, tail)
        assert batch == step == (ValueError, "-inf + inf in fsum")
        # Where overflow warnings are errors, both fail at the same multiply.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (run, oracles.run_per_step):
                stream = Observations.of(tail) if call is run else tail
                with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
                    call(stream, cfg, self._float_fed(cfg, self._OVERFLOWING))

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 6),
        l=st.integers(1, 3),
        data=st.data(),
        family=st.sampled_from(list(KernelFamily)),
        k=st.integers(1, 12),
        h=st.sampled_from([0.1, 1.0, 2.5, 8.0]),
        fixed=st.booleans(),
        tail=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3), max_size=12),
    )
    def test_float_fed_store_matches_step_loop(self, m, l, data, family, k, h, fixed, tail):
        n = data.draw(st.integers(1, m))
        rates = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 2.375, 2.5e-310, 1e300, 1.7e308]), max_size=3 * m * l + 2)
        )
        kernel = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        stream = [
            _obs((len(rates) + i) % m + 1, samples, cycle=(len(rates) + i) // m + 1) for i, samples in enumerate(tail)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch, step = self._outcomes(cfg, rates, stream)
        assert batch == step


def _predict_outcome(predict, history, cfg, w0, lo, hi):
    """``predict``'s values (by bit pattern), warm-up mask and fallbacks, or its error's type and message."""
    try:
        predicted, warm, fallbacks = predict(history, cfg, w0, lo, hi)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in predicted.tolist()], warm.tolist(), fallbacks.tolist()


class TestChunkPass:
    """``_predict``, one planner call and one batch of sums per chunk, against the
    per-shape loop it replaced (``oracles.predict_per_shape``), bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 9),
        l=st.integers(1, 3),
        data=st.data(),
        family=st.sampled_from(list(KernelFamily)),
        k=st.integers(1, 30),
        h=st.one_of(st.sampled_from([0.1, 0.5, 0.75, 1.0, 2.5]), st.floats(0.05, 12.0)),
        fixed=st.booleans(),
        length=st.sampled_from([1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 9]),
        w0=st.integers(0, 30),
        rates=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.375, 7.0, 1e-310, 1e300, 1.7e308]), min_size=1, max_size=12),
    )
    def test_values_warm_and_fallbacks_equal_the_per_shape_loop(
        self, m, l, data, family, k, h, fixed, length, w0, rates
    ):
        n = data.draw(st.integers(1, m))
        kernel = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        cfg = ForecastConfig(pp_tps=m, up_tps=n, cycles=l, kernel=kernel)
        ds = cfg.new_store()
        for i in range(w0):
            ds.update(rates[i % len(rates)])
        fitted = np.array([rates[(w0 + i) % len(rates)] for i in range(length)])
        history = forecaster._history(ds, fitted)
        lo = data.draw(st.integers(0, length - 1))
        hi = data.draw(st.integers(lo, length))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _predict_outcome(forecaster._predict, history, cfg, w0, lo, hi)
            expected = _predict_outcome(oracles.predict_per_shape, history, cfg, w0, lo, hi)
        assert got == expected

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_planner_runs_at_most_once_per_chunk(self, monkeypatch, family):
        # A 2016-period stream with n = 50 and l = 2 meets about 100 window
        # shapes while its store fills; they are planned a chunk at a time.
        calls = []

        def counted(*args):
            calls.append(len(args[3]))
            return planner(*args)

        planner = forecaster._plan_shapes
        monkeypatch.setattr(forecaster, "_plan_shapes", counted)
        forecaster._window_plan.cache_clear()
        cfg = ForecastConfig(pp_tps=336, up_tps=50, cycles=2, kernel=KernelSpec(family=family, k=20))
        fitted = np.array([poisson_mle(o.samples) for o in _poisson_stream(336, 2016, seed=11)])
        predicted, warm, _ = forecaster._predict(forecaster._history(cfg.new_store(), fitted), cfg, 0, 0, 2016)
        forecaster._window_plan.cache_clear()
        assert len(calls) <= -(-2016 // CHUNK)
        assert sum(calls) >= 90  # the shapes were all planned, a chunk's worth per call
        assert warm.tolist() == [True] + [False] * 2015


class TestPlanCache:
    @pytest.mark.parametrize("masks", [[bytes(12)], [bytes(12), bytes([1] * 6 + [0] * 6), bytes([1] * 11 + [0])]])
    def test_cached_plans_are_read_only(self, masks):
        # Every later step that finds the plan in the cache shares its arrays.
        plan = forecaster._window_plan(b"".join(masks), 4, 3, KernelSpec(k=5))
        assert len(plan.fallback) == len(masks)
        for a in vars(plan).values():
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a.copy()

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


def _outcome(reader, path):
    """What ``reader`` makes of ``path``: its columns, or the type and message of its error."""
    try:
        return _columns(reader(path))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestRecordsFile:
    def test_round_trip_including_warmup(self, tmp_path):
        records = Records(
            [1, 2, 3], [0.0, 2.5, 3.25], [True, False, False], [2.5, 3.5, 0.0],
            [Fallback.NONE, Fallback.WEIGHTED_MEAN, Fallback.WIDENED_H],
        )
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert path.read_text() == _RECORDS_HEADER + "1,1,NA,2.5,none\n2,2,2.5,3.5,weighted_mean\n3,3,3.25,0.0,widened_h\n"
        assert _columns(read_records(path)) == _columns(records)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 40),
        period=st.integers(1, 7),
    )
    def test_columns_equal_the_per_record_writer_and_read_back(self, tmp_path_factory, data, n, period):
        # Warm-up prefixes of every length, tp_index starting anywhere and
        # wrapping, every fallback, and rates from -0.0 through subnormals to 1e300.
        warmup = data.draw(st.integers(0, n))
        start = data.draw(st.integers(1, period))
        rates = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585e-313, 2.2250738585072014e-308, 1e300]),
            st.floats(0.0, 1e300),
        )
        records = Records(
            [(start - 1 + i) % period + 1 for i in range(n)],
            [0.0] * warmup + data.draw(st.lists(rates, min_size=n - warmup, max_size=n - warmup)),
            [i < warmup for i in range(n)],
            data.draw(st.lists(rates, min_size=n, max_size=n)),
            data.draw(st.lists(st.sampled_from(list(Fallback)), min_size=n, max_size=n)),
        )
        out = tmp_path_factory.mktemp("records")
        write_records(out / "columns.csv", records)
        oracles.write_records(out / "per_record.csv", oracles.prediction_records(records))
        oracles.write_record_rows(out / "rows.csv", records)
        assert (out / "columns.csv").read_bytes() == (out / "per_record.csv").read_bytes()
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()
        assert _columns(read_records(out / "columns.csv")) == _columns(records)

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 12),
        period=st.integers(1, 5),
        edits=st.lists(
            st.tuples(
                st.integers(0, 13),
                st.integers(0, 4),
                st.sampled_from(
                    ["NA", "nan", "inf", "-1.0", "-0.0", "0", "1e400", " 2.5", "2.5 ", "1_0", "", "x", "1", "2", "0",
                     "-7", "+3", " 4", "9" * 20, "-" + "9" * 20, "none", "bogus", "widened_h", "1,2", "5e-324"]
                ),
            ),
            max_size=3,
        ),
        layout=st.sampled_from(["\n", "\r\n", "\r", "blank lines", "no final newline", "drop a row", "swap rows"]),
    )
    def test_reader_accepts_and_refuses_as_the_row_reader(self, tmp_path_factory, data, n, period, edits, layout):
        # A file run could write, then a few fields replaced and the lines laid
        # out anew: both readers return the same columns or the same error.
        warmup = data.draw(st.integers(0, n))
        start = data.draw(st.integers(1, period))
        records = Records(
            [(start - 1 + i) % period + 1 for i in range(n)],
            [0.0] * warmup + [float(i) / 4 for i in range(n - warmup)],
            [i < warmup for i in range(n)],
            [float(i % 3) for i in range(n)],
            [list(Fallback)[i % 4] for i in range(n)],
        )
        out = tmp_path_factory.mktemp("records")
        write_records(out / "records.csv", records)
        header, *rows = (out / "records.csv").read_text().splitlines()
        rows = [row.split(",") for row in rows]
        for row, field, text in edits:
            if row < len(rows):
                rows[row][field] = text
        lines = [",".join(row) for row in rows]
        if layout == "blank lines" and lines:
            lines = ["", *lines[:1], "  ", *lines[1:], ""]
        elif layout == "drop a row" and lines:
            del lines[len(lines) // 2]
        elif layout == "swap rows" and len(lines) > 1:
            lines[0], lines[-1] = lines[-1], lines[0]
        newline = layout if layout in ("\n", "\r\n", "\r") else "\n"
        text = newline.join([header, *lines]) + ("" if layout == "no final newline" else newline)
        (out / "edited.csv").write_bytes(text.encode())
        assert _outcome(read_records, out / "edited.csv") == _outcome(oracles.read_records_rows, out / "edited.csv")

    @pytest.mark.parametrize(
        "rows", ["1,99999999999999999999,NA,1.0,none\n2,2,NA,1.0,none\n", "1,99999999999999999999,NA,1.0,none\n"],
        ids=["followed", "last"],
    )
    def test_tp_index_beyond_int64_is_refused_as_the_row_reader_does(self, tmp_path, rows):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + rows)
        message = f"{path}:2: tp_index=99999999999999999999 is not below 2**63"
        assert _outcome(read_records, path) == _outcome(oracles.read_records_rows, path) == (ValueError, message)

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="record columns must have equal lengths"):
            Records([1, 2], [0.0, 1.0], [True, False], [1.0], [Fallback.NONE] * 2)

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

    @pytest.mark.parametrize("tp_index", [2**63, 10**20])
    def test_rejects_tp_index_beyond_int64(self, tmp_path, tp_index):
        path = tmp_path / "records.csv"
        path.write_text(_RECORDS_HEADER + f"1,{tp_index},NA,1.0,none\n")
        message = f"{path}:2: tp_index={tp_index} is not below 2**63"
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
        assert read_records(path).tp_index.tolist() == [3, 1, 2, 3, 1]

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
        assert _columns(read_records(path)) == _columns(records)

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
            assert _columns(read_records(path)) == _columns(records)

    def test_row_errors_name_the_line(self, tmp_path):
        path = tmp_path / "records.csv"
        header = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
        for bad in ("x,1,NA,2.0,none", "1,1,NA,2.0,bogus", "1,1,NA,2.0"):
            path.write_text(header + bad + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
                read_records(path)
