import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclecast.poisson import (
    poisson_cdf,
    poisson_mle,
    poisson_mle_rows,
    poisson_pmf,
    poisson_quantile,
)

import oracles


def _rows_hex(rows):
    samples = np.array([s for row in rows for s in row], dtype=np.int64)
    return [v.hex() for v in poisson_mle_rows(samples, [len(row) for row in rows]).tolist()]


class TestMleRows:
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.integers(0, 60),
                    st.integers(2**53 - 4, 2**53 + 4),
                    st.integers(0, 2**63 - 1),
                    st.sampled_from([2**62, 2**63 - 1, 2**63 - 2]),
                ),
                min_size=1,
                max_size=40,
            ),
            max_size=8,
        )
    )
    def test_rows_equal_poisson_mle_bit_for_bit(self, rows):
        assert _rows_hex(rows) == [poisson_mle(row).hex() for row in rows]

    def test_long_rows_of_large_samples(self):
        # Sums of 2**62 and more: int64 would overflow, so these rows take math.fsum.
        rows = [[2**53 - 1] * 600, [2**53 - 1] * 1100, [7] * 5000, [2**63 - 1] * 3, [1, 2**53 - 1] * 700]
        assert _rows_hex(rows) == [poisson_mle(row).hex() for row in rows]

    def test_empty_row_raises(self):
        with pytest.raises(ValueError):
            poisson_mle_rows(np.array([1, 2]), [2, 0])
        assert len(poisson_mle_rows(np.zeros(0, dtype=np.int64), [])) == 0


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
