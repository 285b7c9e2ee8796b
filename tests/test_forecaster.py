import dataclasses

import numpy as np
import pytest

from cyclecast.forecaster import (
    ForecastConfig,
    PredictionRecord,
    baseline_naive,
    baseline_poisson_window,
    observe_step,
    predict_step,
    read_records,
    run,
    write_records,
)
from cyclecast.llr import Fallback, KernelFamily, KernelSpec, llr_fit
from cyclecast.store import CyclicDataset, EmptyWindowError
from cyclecast.trace import MetricKind, PeriodObservation

import oracles


def _obs(tp_index, samples, cycle=1):
    return PeriodObservation(tp_index, cycle, MetricKind.ARRIVALS, samples, 60)


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
        window = ds.extract_window(cfg.up_tps)
        points = [(float(x), y) for x, y in window.entries]
        expected = llr_fit(points, float(cfg.up_tps), cfg.kernel)
        value, fallback = predict_step(ds, cfg)
        assert value == max(expected.value, 0.0)
        assert fallback == expected.fallback

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
        records = run(stream, cfg)
        assert len(records) == m * l
        assert records[0].predicted is None
        assert all(r.predicted is not None for r in records[1:])
        assert [r.t for r in records] == list(range(1, m * l + 1))
        assert [r.tp_index for r in records] == [i % m + 1 for i in range(m * l)]

    def test_stream_equals_batch(self):
        cfg = ForecastConfig(pp_tps=5, up_tps=3, cycles=2, kernel=KernelSpec(k=3))
        stream = _constant_stream(5, 20, 7)
        assert run(iter(stream), cfg) == run(list(stream), cfg)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(53)
        cfg = ForecastConfig(pp_tps=8, up_tps=4, cycles=2, kernel=KernelSpec(k=4))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 20, size=5)], cycle=i // 8 + 1)
            for i in range(32)
        ]
        assert run(stream, cfg) == run(stream, cfg)

    def test_predictions_nonnegative(self):
        rng = np.random.default_rng(59)
        cfg = ForecastConfig(pp_tps=8, up_tps=6, cycles=2, kernel=KernelSpec(k=5))
        stream = [
            _obs(i % 8 + 1, [int(v) for v in rng.integers(0, 12, size=5)], cycle=i // 8 + 1)
            for i in range(48)
        ]
        records = run(stream, cfg)
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
        records = run(stream, cfg)
        for r in records[m:]:
            if r.tp_index >= n:  # window does not cross the wrap
                assert r.predicted == pytest.approx(pattern[r.tp_index - 1], abs=1e-6)

    def test_out_of_order_stream_rejected(self):
        cfg = ForecastConfig(pp_tps=4, up_tps=2, cycles=1, kernel=KernelSpec(k=2))
        bad = [_obs(1, [1]), _obs(3, [1])]
        with pytest.raises(ValueError):
            run(bad, cfg)

    def test_resume_from_snapshot_matches_uninterrupted_run(self):
        from cyclecast.store import restore, snapshot

        rng = np.random.default_rng(67)
        cfg = ForecastConfig(pp_tps=6, up_tps=4, cycles=2, kernel=KernelSpec(k=4))
        stream = [
            _obs(i % 6 + 1, [int(v) for v in rng.integers(0, 15, size=5)], cycle=i // 6 + 1)
            for i in range(24)
        ]
        full = run(stream, cfg)

        ds = cfg.new_store()
        run(stream[:12], cfg, ds)
        resumed = run(stream[12:], cfg, restore(snapshot(ds)))
        assert [(r.predicted, r.actual, r.fallback) for r in resumed] == [
            (r.predicted, r.actual, r.fallback) for r in full[12:]
        ]


class TestBaselines:
    def test_naive_examples(self):
        assert baseline_naive([1.0, 2.0, 3.0]) == 3.0
        assert baseline_naive([4.5]) == 4.5
        with pytest.raises(ValueError):
            baseline_naive([])

    def test_windowed_constant_history(self):
        assert baseline_poisson_window([6.0] * 10, 4) == pytest.approx(6.0, rel=1e-12)

    def test_windowed_single_value(self):
        assert baseline_poisson_window([5.0], 7) == pytest.approx(5.0, rel=1e-12)

    def test_windowed_matches_reference(self):
        history = [3.0, 8.0, 2.0, 5.0, 13.0, 1.0]
        for window in (1, 3, 6, 10):
            expected = oracles.weighted_window_mean(history, window)
            assert baseline_poisson_window(history, window) == pytest.approx(expected, rel=1e-12)

    def test_windowed_validation(self):
        with pytest.raises(ValueError):
            baseline_poisson_window([], 3)
        with pytest.raises(ValueError):
            baseline_poisson_window([1.0], 0)


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
