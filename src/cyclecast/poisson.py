"""Poisson rate fitting and distribution queries.

The fitted rate ``lambda`` is the mean request count per sub-bin within one
target period. Fitting is the closed-form maximum-likelihood estimate (the
sample mean); PMF/CDF/quantile queries turn a predicted rate into
provisioning numbers (e.g. "counts covered with probability 0.99").

All functions are pure. ``lam == 0`` is legal everywhere and denotes the
point mass at zero (idle periods produce all-zero sample vectors).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "poisson_mle",
    "poisson_mle_rows",
    "poisson_log_pmf",
    "poisson_pmf",
    "poisson_cdf",
    "poisson_quantile",
    "log_likelihood",
]


def poisson_mle(samples: Sequence[float]) -> float:
    """Maximum-likelihood Poisson rate for a vector of i.i.d. count samples.

    The MLE is exactly the arithmetic mean of the samples.

    Raises
    ------
    ValueError
        If ``samples`` is empty.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot fit a Poisson rate to an empty sample vector")
    return math.fsum(samples) / n


def poisson_mle_rows(samples: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``poisson_mle`` of each row of a ragged table, bit for bit.

    Row i is the next ``counts[i]`` (at least 1) of the nonnegative int64
    ``samples``. A row whose samples are all below 2**53 and whose sum
    stays below 2**62 is summed exactly in int64: the sum's conversion to
    float is then the correctly rounded sum of the samples as floats, which
    is what ``math.fsum`` returns. Any other row is summed by ``math.fsum``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if not len(counts):
        return np.zeros(0)
    if counts.min() < 1:
        raise ValueError("cannot fit a Poisson rate to an empty sample vector")
    starts = np.cumsum(counts) - counts
    peaks = np.maximum.reduceat(samples, starts)
    rates = np.add.reduceat(samples, starts) / counts
    for i in np.flatnonzero((peaks >= 2**53) | (peaks * counts.astype(np.float64) >= 2.0**62)).tolist():
        rates[i] = poisson_mle(samples[starts[i] : starts[i] + counts[i]].tolist())
    return rates


def poisson_log_pmf(lam: float, k: int) -> float:
    """Natural log of P(X = k) for X ~ Poisson(lam); -inf where the mass is 0."""
    if k < 0:
        raise ValueError(f"count must be nonnegative, got {k}")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 0.0 if k == 0 else -math.inf
    # lgamma keeps k up to ~1e6 stable where a naive factorial overflows.
    return k * math.log(lam) - lam - math.lgamma(k + 1.0)


def poisson_pmf(lam: float, k: int) -> float:
    """P(X = k) for X ~ Poisson(lam), evaluated in log space."""
    logp = poisson_log_pmf(lam, k)
    if logp == -math.inf:
        return 0.0
    return math.exp(logp)


def poisson_cdf(lam: float, k: int) -> float:
    """P(X <= k) by cumulative PMF summation, capped at 1.0."""
    if k < 0:
        raise ValueError(f"count must be nonnegative, got {k}")
    total = math.fsum(poisson_pmf(lam, i) for i in range(k + 1))
    return min(total, 1.0)


def poisson_quantile(lam: float, p: float) -> int:
    """Smallest integer k with CDF(k) >= p.

    Raises
    ------
    ValueError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 0
    # Walk the CDF upward; the hard cap is far beyond any p < 1 of interest
    # and only guards against float round-off near 1.
    cap = int(lam + 40.0 * math.sqrt(lam + 1.0) + 1000.0)
    total = 0.0
    for k in range(cap + 1):
        total += poisson_pmf(lam, k)
        if total >= p:
            return k
    return cap


def log_likelihood(samples: Sequence[float], lam: float) -> float:
    """Poisson log-likelihood of a sample vector at rate ``lam``."""
    n = len(samples)
    if n == 0:
        raise ValueError("log-likelihood of an empty sample vector is undefined")
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"rate must be finite and nonnegative, got {lam}")
    s = math.fsum(samples)
    if lam == 0.0:
        return 0.0 if s == 0 else -math.inf
    log_fact = math.fsum(math.lgamma(x + 1.0) for x in samples)
    return s * math.log(lam) - n * lam - log_fact
