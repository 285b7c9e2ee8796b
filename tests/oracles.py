"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas, in
arbitrary precision (mpmath) where arithmetic is involved, sharing no code
with the package internals it verifies. Where the package must match to the
bit (trace aggregation, synthetic event placement), the reference keeps the
plain per-period or per-event loop with the same float operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np


def cyclic_store_walk(m: int, l: int, rates: Sequence[float]):
    """Replay the store's write order with explicit cursors.

    Starts at p = w = t = 1; each write lands on (p, w), then p advances and
    wraps past m, moving w on by one (wrapping past l). Returns the final
    (p, w, t) and a dict of the cells that hold a rate.
    """
    p, w, t = 1, 1, 1
    cells: dict[tuple[int, int], float] = {}
    for rate in rates:
        cells[(p, w)] = rate
        t += 1
        if p < m:
            p += 1
        else:
            p = 1
            w = w + 1 if w < l else 1
    return p, w, t, cells


def aggregate_per_period(
    timestamps: Sequence[int],
    values: Sequence[float] | None,
    start_us: int,
    num_tps: int,
    tp_us: int,
    sub_bin_us: int,
    scale: float,
) -> list[list[int]]:
    """Per-period samples by filtering the events of one period at a time.

    Period i covers [start_us + i*tp_us, start_us + (i+1)*tp_us). Its
    events, kept in input order, are binned with ``np.bincount``: counted
    when ``values`` is None, else their values summed per sub-bin, times
    ``scale``, rounded half up.
    """
    n_bins = tp_us // sub_bin_us
    periods = []
    for i in range(num_tps):
        lo = start_us + i * tp_us
        inside = [j for j, ts in enumerate(timestamps) if lo <= ts < lo + tp_us]
        idx = np.array([(timestamps[j] - lo) // sub_bin_us for j in inside], dtype=np.int64)
        if values is None:
            periods.append([int(c) for c in np.bincount(idx, minlength=n_bins)])
            continue
        weights = np.array([values[j] for j in inside], dtype=np.float64)
        sums = np.bincount(idx, weights=weights, minlength=n_bins)
        periods.append([int(math.floor(scale * s + 0.5)) for s in sums])
    return periods


def place_events(counts: Sequence[int], sub_bin_us: int) -> list[int]:
    """Synthetic event timestamps, one sub-bin at a time.

    Sub-bin b starts at b*sub_bin_us; its ``count`` events sit at evenly
    spaced offsets int((i + 0.5) * (sub_bin_us / count)).
    """
    timestamps = []
    for b, count in enumerate(counts):
        for i in range(count):
            timestamps.append(b * sub_bin_us + int((i + 0.5) * (sub_bin_us / count)))
    return timestamps


def exact_mean(samples: Sequence[int]) -> float:
    """Arithmetic mean via exact rational arithmetic."""
    return float(Fraction(sum(int(s) for s in samples), len(samples)))


def pmf_highprec(lam: float, k: int, dps: int = 60) -> float:
    """Poisson PMF lam^k e^-lam / k! evaluated at high precision."""
    with mp.workdps(dps):
        if lam == 0:
            return 1.0 if k == 0 else 0.0
        lam_mp = mp.mpf(lam)
        return float(lam_mp**k * mp.e ** (-lam_mp) / mp.factorial(k))


def quantile_bruteforce(lam: float, p: float, dps: int = 60) -> int:
    """Smallest k with the cumulative PMF sum reaching p, summed term by term."""
    with mp.workdps(dps):
        if lam == 0:
            return 0
        lam_mp = mp.mpf(lam)
        term = mp.e ** (-lam_mp)  # PMF(0)
        total = term
        k = 0
        while total < p:
            k += 1
            term = term * lam_mp / k
            total += term
        return k


def _kernel_highprec(family: str, u: mp.mpf) -> mp.mpf:
    if family == "epanechnikov":
        return mp.mpf("0.75") * (1 - u * u) if u < 1 else mp.mpf(0)
    if family == "biweight":
        return mp.mpf(15) / 16 * (1 - u * u) ** 2 if u < 1 else mp.mpf(0)
    if family == "gaussian":
        return mp.e ** (-u * u / 2) / mp.sqrt(2 * mp.pi)
    raise ValueError(family)


def knearest_bandwidth(x_u: float, xs: Sequence[float], k: int) -> float:
    """k-th nearest distance; independent of the package implementation."""
    return sorted(abs(x - x_u) for x in xs)[k - 1]


def llr_normal_equations(
    points: Sequence[tuple[float, float]],
    x_u: float,
    family: str,
    h: float,
    dps: int = 50,
) -> float:
    """Weighted least-squares line at x_u by uncentered normal equations.

    Solves the 2x2 system in ``dps``-digit arithmetic straight from the
    definition (design matrix of ones and x, diagonal kernel weights).
    """
    with mp.workdps(dps):
        xu = mp.mpf(x_u)
        hh = mp.mpf(h)
        s0 = sx = sxx = sy = sxy = mp.mpf(0)
        for x, y in points:
            xm, ym = mp.mpf(x), mp.mpf(y)
            w = _kernel_highprec(family, abs(xm - xu) / hh)
            s0 += w
            sx += w * xm
            sxx += w * xm * xm
            sy += w * ym
            sxy += w * xm * ym
        det = s0 * sxx - sx * sx
        alpha = (sxx * sy - sx * sxy) / det
        beta = (s0 * sxy - sx * sy) / det
        return float(alpha + beta * xu)


def weighted_window_mean(history: Sequence[float], window: int) -> float:
    """Reference for the Poisson-weighted moving-window baseline."""
    take = min(window, len(history))
    weights = [pmf_highprec(float(window), i) for i in range(take)]
    values = [history[-1 - i] for i in range(take)]
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)
