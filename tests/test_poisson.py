import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclecast.poisson
from cyclecast.poisson import (
    poisson_cdf,
    poisson_mle,
    poisson_mle_rows,
    poisson_pmf,
    poisson_quantile,
)

import oracles

# Rates: the point mass, subnormals, whole numbers and floats up to 5000.
RATES = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.integers(1, 5000).map(float),
    st.floats(min_value=0.0, max_value=5000.0),
)
# Probabilities in (0, 1), with edges where the walk ends at its first term
# or runs to its cap.
PROBABILITIES = st.one_of(
    st.sampled_from([1e-300, 5e-324, 0.5, 0.99, 1 - 2**-52, 1 - 2**-53]),
    st.floats(min_value=1e-300, max_value=1 - 2**-53),
)


def _rows_hex(rows, n):
    """``poisson_mle_rows`` of the matrix of ``rows``, each of ``n`` samples, as hex floats."""
    return [v.hex() for v in poisson_mle_rows(np.array(rows, dtype=np.int64).reshape(len(rows), n)).tolist()]


# Samples: small counts, the 2**53 edge of exact float conversion and int64's whole range.
_SAMPLES = st.one_of(
    st.integers(0, 60),
    st.integers(2**53 - 4, 2**53 + 4),
    st.integers(0, 2**63 - 1),
    st.sampled_from([2**62, 2**63 - 1, 2**63 - 2]),
)


class TestMleRows:
    @given(data=st.data())
    def test_rows_equal_poisson_mle_bit_for_bit(self, data):
        # A matrix: up to 8 rows, all of one drawn length.
        n = data.draw(st.integers(1, 40))
        rows = data.draw(st.lists(st.lists(_SAMPLES, min_size=n, max_size=n), max_size=8))
        assert _rows_hex(rows, n) == [poisson_mle(row).hex() for row in rows]

    def test_long_rows_of_large_samples(self):
        # Sums of 2**62 and more: int64 would overflow, so these rows take math.fsum.
        for rows in (
            [[2**53 - 1] * 600, [7] * 600],
            [[2**53 - 1] * 1100, [7] * 1100],
            [[7] * 5000],
            [[2**63 - 1] * 3, [0, 1, 2]],
            [[1, 2**53 - 1] * 700, [7] * 1400],
        ):
            assert _rows_hex(rows, len(rows[0])) == [poisson_mle(row).hex() for row in rows]

    def test_rows_at_the_edges_of_the_int64_sum(self):
        # Peaks at 2**53 and just below it, and peak * n just below and at 2**62.
        rows = [[2**53] * 4, [2**53 - 1] * 4, [2**60 - 1] * 4, [2**60] * 4, [0, 0, 0, 2**62]]
        assert _rows_hex(rows, 4) == [poisson_mle(row).hex() for row in rows]

    def test_empty_row_raises(self):
        with pytest.raises(ValueError):
            poisson_mle_rows(np.zeros((2, 0), dtype=np.int64))
        for n in (0, 3):
            assert len(poisson_mle_rows(np.zeros((0, n), dtype=np.int64))) == 0


class TestMle:
    def test_sample_mean(self):
        assert poisson_mle([2, 3, 4]) == 3.0

    def test_all_zero(self):
        assert poisson_mle([0, 0, 0]) == 0.0

    def test_single_sample(self):
        assert poisson_mle([7]) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            poisson_mle([])

    def test_matches_exact_mean_on_random_vectors(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            samples = [int(v) for v in rng.integers(0, 500, size=n)]
            expected = oracles.exact_mean(samples)
            got = poisson_mle(samples)
            if expected == 0:
                assert got == 0.0
            else:
                assert abs(got - expected) / expected <= 1e-12

    def test_mle_is_likelihood_maximum(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            samples = [int(v) for v in rng.integers(0, 40, size=int(rng.integers(2, 30)))]
            lam_hat = poisson_mle(samples)
            if lam_hat == 0:
                continue
            ll_hat = oracles.log_likelihood(samples, lam_hat)
            assert ll_hat >= oracles.log_likelihood(samples, lam_hat * 1.01)
            assert ll_hat >= oracles.log_likelihood(samples, lam_hat * 0.99)


class TestPmf:
    def test_zero_rate_point_mass(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_matches_high_precision_value(self):
        assert poisson_pmf(2.0, 2) == pytest.approx(oracles.pmf_highprec(2.0, 2), rel=1e-13)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            poisson_pmf(2.0, -1)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            lam = float(rng.uniform(0, 200))
            k = int(rng.integers(0, 400))
            assert 0.0 <= poisson_pmf(lam, k) <= 1.0

    def test_large_count_stays_finite(self):
        v = poisson_pmf(1_000_000.0, 1_000_000)
        assert 0.0 < v < 1.0

    def test_normalization_partial_sums(self):
        for lam in (0.5, 2.0, 10.0, 50.0):
            cutoff = int(lam + 20 * math.sqrt(lam) + 20)
            total = math.fsum(poisson_pmf(lam, k) for k in range(cutoff + 1))
            assert total > 1 - 1e-9


class TestQuantile:
    def test_zero_rate(self):
        assert poisson_quantile(0.0, 0.99) == 0

    def test_against_bruteforce(self):
        assert poisson_quantile(2.0, 0.9) == oracles.quantile_bruteforce(2.0, 0.9)

    def test_monotone_in_probability(self):
        for lam in (0.3, 1.0, 7.5, 40.0):
            assert poisson_quantile(lam, 0.5) <= poisson_quantile(lam, 0.95)

    def test_cdf_inversion(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 80))
            p = float(rng.uniform(0.01, 0.99))
            q = poisson_quantile(lam, p)
            assert poisson_cdf(lam, q) >= p
            if q > 0:
                assert poisson_cdf(lam, q - 1) < p

    def test_probability_bounds(self):
        for p in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                poisson_quantile(2.0, p)

    @settings(max_examples=300)
    @given(lam=RATES, p=PROBABILITIES)
    def test_equals_the_per_term_walk(self, lam, p):
        assert poisson_quantile(lam, p) == oracles.quantile_walk(lam, p)

    def test_walk_reaches_its_cap(self):
        # Round-off keeps these sums below 1 - 2**-53, so the walk returns its cap.
        for lam in (7.5, 50.0, 1000.0, 2500.0):
            cap = int(lam + 40.0 * math.sqrt(lam + 1.0) + 1000.0)
            assert poisson_quantile(lam, 1 - 2**-53) == oracles.quantile_walk(lam, 1 - 2**-53) == cap

    def test_walk_calls_no_pmf(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the walk must not call the PMF per term")

        monkeypatch.setattr(cyclecast.poisson, "poisson_pmf", refuse)
        monkeypatch.setattr(cyclecast.poisson, "poisson_log_pmf", refuse)
        assert poisson_quantile(1000.0, 0.99) == oracles.quantile_walk(1000.0, 0.99)


class TestCdf:
    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(505)
        for _ in range(200):
            lam = float(rng.uniform(0.01, 300))
            k = int(rng.integers(0, 500))
            assert poisson_cdf(lam, k) == pytest.approx(
                float(stats.poisson.cdf(k, lam)), abs=1e-11
            )

    def test_capped_at_one(self):
        assert poisson_cdf(0.5, 200) == 1.0

    @settings(max_examples=200)
    @given(lam=RATES, data=st.data())
    def test_equals_the_per_term_sum_bit_for_bit(self, lam, data):
        k = data.draw(st.integers(0, int(3 * lam) + 300), label="k")
        assert poisson_cdf(lam, k).hex() == oracles.cdf_sum(lam, k).hex()

    def test_count_far_past_the_mode_returns_at_once(self):
        start = time.perf_counter()
        assert poisson_cdf(2.0, 10**12) == 1.0
        assert time.perf_counter() - start < 1.0

    def test_invalid_rate_raises(self):
        for lam in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                poisson_cdf(lam, 3)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            poisson_cdf(1.0, -1)


class TestLogLikelihood:
    def test_zero_rate_cases(self):
        assert oracles.log_likelihood([0, 0], 0.0) == 0.0
        assert oracles.log_likelihood([1, 0], 0.0) == -math.inf

    def test_matches_direct_formula(self):
        samples = [3, 1, 4, 1, 5]
        lam = 2.5
        direct = math.fsum(
            x * math.log(lam) - lam - math.lgamma(x + 1) for x in samples
        )
        assert oracles.log_likelihood(samples, lam) == pytest.approx(direct, rel=1e-14)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            oracles.log_likelihood([], 1.0)
