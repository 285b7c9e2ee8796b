"""Kernel-weighted local linear regression.

Fits a straight line through weighted neighbors of a query point and returns
the line's value there. Weights come from a kernel whose reach is either a
fixed radius ``h`` or adaptive: the distance to the k-th nearest observation,
so a compact kernel's window always spans the query point's k neighbors.

History parameters stack several values at the same x (one per stored cycle),
so degenerate geometry is structural here, not an error. A fit never fails
on nonempty input: when the weighted system is singular the plan walks a
fallback chain (widen the bandwidth up to 3 doublings, then a kernel-weighted
mean, then a global unweighted line) and ``plan.fallback`` reports which step
produced the value.

A fit is two steps. ``llr_plan`` looks only at the xs, the query and the
spec: it resolves the bandwidth, walks the fallback chain and keeps the
weights ``w``, the products ``w * (x - xbar)`` and the normal-equation
scalars. ``llr_apply`` then needs two correctly rounded sums over the ys, so
the fit is a fixed linear functional of the ys (the "equivalent kernel" of
local polynomial regression). A caller that meets the same xs again (the
forecaster, once its store is full) can keep the plan and pay only for the
sums. Splitting the solve this
way changes no result bit: every product is the same IEEE operation on the
same operands, ``math.fsum`` is correctly rounded whatever the order of its
terms, and the sums run over the same points as a one-pass solve (the
positive-weight support for a line, every point for a mean).

A batch of ys (one row each) is summed row by row without a Python loop:
an exact split of each term against a power of two per row (Rump, Ogita
and Oishi's ExtractVector) gives a sum whose error is bounded, and a row's
result is kept only when that bound proves it is the correctly rounded
sum. The rows it cannot prove (non-finite terms, overflow, cancellation to
or near zero, near-ties) go to ``math.fsum``, so every row's value, signed
zero and exception is ``math.fsum``'s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "Fallback",
    "LLRPlan",
    "kernel_weight",
    "effective_bandwidth",
    "llr_plan",
    "llr_apply",
]

_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)


class KernelFamily(enum.Enum):
    EPANECHNIKOV = "epanechnikov"
    BIWEIGHT = "biweight"
    GAUSSIAN = "gaussian"


class Fallback(enum.Enum):
    """Which step of the singular-system fallback chain produced a fit."""

    NONE = "none"
    WIDENED_H = "widened_h"
    WEIGHTED_MEAN = "weighted_mean"
    GLOBAL_LINE = "global_line"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth mode.

    Exactly one of ``h`` (fixed radius) and ``k`` (nearest-neighbor count)
    must be set. k-nearest is the forecaster's default mode: history offsets
    are integers with replicates stacked per cycle, so counting points is a
    steadier locality control than a radius.
    """

    family: KernelFamily = KernelFamily.EPANECHNIKOV
    h: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if (self.h is None) == (self.k is None):
            raise ValueError("exactly one of h (fixed radius) or k (nearest count) must be set")
        if self.h is not None and not 0 < self.h < math.inf:
            raise ValueError(f"fixed radius must be positive and finite, got {self.h}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"nearest-neighbor count must be >= 1, got {self.k}")

    @property
    def bandwidth_label(self) -> str:
        return f"h={self.h!r}" if self.h is not None else f"k={self.k}"


def kernel_weight(spec: KernelSpec, x_u: float, x_i: float, h: float) -> float:
    """Weight of observation ``x_i`` for a fit at ``x_u`` with bandwidth ``h``.

    Nonincreasing in ``|x_i - x_u|`` for every family; the compact-support
    families are exactly zero at and beyond one bandwidth.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    u = abs(x_i - x_u) / h
    if spec.family is KernelFamily.EPANECHNIKOV:
        return 0.75 * (1.0 - u * u) if u < 1.0 else 0.0
    if spec.family is KernelFamily.BIWEIGHT:
        return (15.0 / 16.0) * (1.0 - u * u) ** 2 if u < 1.0 else 0.0
    return _GAUSS_NORM * math.exp(-0.5 * u * u)


def effective_bandwidth(spec: KernelSpec, x_u: float, xs: Sequence[float]) -> float:
    """Resolve the spec's bandwidth mode to a numeric bandwidth at ``x_u``.

    Fixed-radius mode returns ``h`` unchanged. k-nearest mode returns the
    distance from ``x_u`` to its k-th nearest x. A zero k-th distance (cycle
    replicates stacked at the query x) is promoted to the smallest positive
    spacing between distinct xs; if every x coincides there is no usable
    bandwidth and 0.0 is returned so callers can fall back to a local mean.

    Raises
    ------
    ValueError
        If ``xs`` is empty, or k exceeds the number of observations.
    """
    if not xs:
        raise ValueError("no observations to derive a bandwidth from")
    if spec.h is not None:
        return spec.h
    k = spec.k
    assert k is not None
    if k > len(xs):
        raise ValueError(f"k={k} exceeds the {len(xs)} available observations")
    dists = sorted(abs(x - x_u) for x in xs)
    h = dists[k - 1]
    if h > 0:
        return h
    uniq = sorted(set(xs))
    gaps = [b - a for a, b in zip(uniq, uniq[1:])]
    return min(gaps) if gaps else 0.0


@dataclass(frozen=True, eq=False)
class LLRPlan:
    """Everything of a fit that depends on the xs alone.

    The fitted value is ``(s2 * sy - s1 * sxy) / det + beta * du`` with
    ``sy = fsum(w * y)`` and ``sxy = fsum(wdx * y)`` over the ``support``
    points, ``beta = (s0 * sxy - s1 * sy) / det`` and ``du = x_u - xbar``;
    a mean (``wdx`` is None) is ``sy / s0``.
    """

    fallback: Fallback
    support: np.ndarray
    w: np.ndarray
    wdx: np.ndarray | None
    s0: float
    s1: float = 0.0
    s2: float = 0.0
    det: float = 0.0
    du: float = 0.0

    def __post_init__(self) -> None:
        # Callers cache and share plans, so their arrays must not change.
        for a in (self.support, self.w, self.wdx):
            if a is not None:
                a.flags.writeable = False


def _line_plan(
    xs: Sequence[float], weights: Sequence[float], x_u: float, fallback: Fallback
) -> LLRPlan | None:
    """Weighted least-squares line at x_u, or None if the system is singular.

    Solves the 2x2 normal equations in coordinates centered on the weighted
    mean of x, which keeps the system conditioned at large period indices.
    The weights are first scaled by the power of two that brings the largest
    into [1, 2): far-tail Gaussian weights can be so small that their
    products underflow. The scaling is exact, so the fitted value is the
    same wherever nothing underflowed; it only changes the plan's weights.
    """
    support = [i for i, w in enumerate(weights) if w > 0]
    if len({xs[i] for i in support}) < 2:
        return None
    sx = [xs[i] for i in support]
    shift = 2.0 ** (1 - math.frexp(max(weights[i] for i in support))[1])
    sw = [weights[i] * shift for i in support]
    s0 = math.fsum(sw)
    xbar = math.fsum(w * x for x, w in zip(sx, sw)) / s0
    wdx = [w * (x - xbar) for x, w in zip(sx, sw)]
    s1 = math.fsum(wdx)
    s2 = math.fsum(w * (x - xbar) ** 2 for x, w in zip(sx, sw))
    det = s0 * s2 - s1 * s1
    if det <= 0:
        return None
    return LLRPlan(fallback, np.array(support), np.array(sw), np.array(wdx), s0, s1, s2, det, x_u - xbar)


def _mean_plan(weights: Sequence[float], s0: float, fallback: Fallback) -> LLRPlan:
    return LLRPlan(fallback, np.arange(len(weights)), np.array(weights, dtype=np.float64), None, s0)


def llr_plan(xs: Sequence[float], x_u: float, spec: KernelSpec) -> LLRPlan:
    """Plan the local linear fit at ``x_u`` over observations at ``xs``.

    Resolves the bandwidth and walks the fallback chain (widen up to 3
    doublings, kernel-weighted mean, global line, plain mean); none of it
    looks at the ys.

    Raises
    ------
    ValueError
        If ``xs`` is empty, or a k-nearest spec asks for more neighbors
        than there are observations.
    """
    if not xs:
        raise ValueError("cannot fit with zero points")
    h0 = effective_bandwidth(spec, x_u, xs)

    weights: list[float] = [0.0] * len(xs)
    if h0 > 0:
        for widen in range(4):
            h = h0 * (2.0**widen)
            weights = [kernel_weight(spec, x_u, x, h) for x in xs]
            plan = _line_plan(xs, weights, x_u, Fallback.NONE if widen == 0 else Fallback.WIDENED_H)
            if plan is not None:
                return plan

    wsum = math.fsum(weights)
    if wsum > 0:
        return _mean_plan(weights, wsum, Fallback.WEIGHTED_MEAN)
    ones = [1.0] * len(xs)
    if h0 == 0:
        # Every observation sits at one x: the local constant fit is the mean.
        return _mean_plan(ones, float(len(xs)), Fallback.WEIGHTED_MEAN)
    plan = _line_plan(xs, ones, x_u, Fallback.GLOBAL_LINE)
    return plan if plan is not None else _mean_plan(ones, float(len(xs)), Fallback.GLOBAL_LINE)


# Batches of fewer terms than this are summed row by row with math.fsum. The
# certified row sum costs about 35 us a batch plus 9 ns a term, the per-row
# loop 55-70 ns a term, so they break even between 700 and 1200 terms
# (measured on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4, batches of 1-256
# rows of 19-100 terms).
_BATCH_MIN_TERMS = 1024


def _fsum(terms: np.ndarray) -> float | np.ndarray:
    """Correctly rounded sum of a 1-D array, or of each row of a 2-D one."""
    if terms.ndim == 1:
        return math.fsum(terms.tolist())
    if terms.size < _BATCH_MIN_TERMS:
        return np.array([math.fsum(row) for row in terms.tolist()])
    return _fsum_rows(terms)


def _fsum_rows(p: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of ``p``, vectorised where it can be certified.

    Per row, with ``2**e`` above max|p| and ``sigma = 2**(e + ceil(log2(n + 2)))``,
    ``q = (sigma + p) - sigma`` and ``r = p - q`` are exact, every ``q`` is a
    multiple of ``2**-53 * sigma`` and ``|sum(q)| < sigma``, so ``tau = sum(q)``
    is exact in any order and ``|r| <= 2**-53 * sigma`` (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31(1), 2008, the ExtractVector lemma). The exact sum
    is then ``hi + lo + err``: ``hi = tau + sum(r)``, ``lo`` the TwoSum error
    of that addition, and ``|err| <= delta``, a bound on the rounding of
    ``sum(r)`` (gamma_{n-1} * sum|r|, rounded up). ``hi`` is kept only when it
    is finite and nonzero and ``|lo| + delta``, rounded up, is below half the
    gap from ``|hi|`` to the next smaller double: the exact sum then rounds to
    ``hi`` under any tie rule, which is what ``math.fsum`` returns. Every other
    row (inf or NaN, overflow, cancellation to or near zero, a sum within
    ``delta`` of a tie) is ``math.fsum`` of the row, in row order, so its
    value, signed zero or exception is fsum's own.
    """
    n = p.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        _, e = np.frexp(np.abs(p).max(axis=1))
        sigma = np.ldexp(1.0, e + (n + 1).bit_length())[:, None]
        q = (sigma + p) - sigma
        r = p - q
        tau = q.sum(axis=1)
        rho = r.sum(axis=1)
        hi = tau + rho
        b = hi - tau
        lo = (tau - (hi - b)) + (rho - b)
        delta = np.nextafter(np.abs(r).sum(axis=1) * ((n + 1) * 2.0**-53 * 1.01), np.inf)
        bound = np.nextafter(np.abs(lo) + delta, np.inf)
        mag = np.abs(hi)
        ok = np.isfinite(hi) & (hi != 0) & (bound < (mag - np.nextafter(mag, 0.0)) * 0.5)
    for i in np.flatnonzero(~ok).tolist():
        hi[i] = math.fsum(p[i].tolist())
    return hi


def llr_apply(plan: LLRPlan, ys: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """The planned fit's value for ``ys``, given in the order of the plan's xs.

    A 2-D ``ys`` holds one such sequence per row and gives an array with one
    value per row, each the same float a 1-D call on that row returns: the
    sums are per row, and the rest is the same IEEE operations elementwise.
    A 1-D call sums with ``math.fsum``. A batch of 1024 terms or more is
    summed by a vectorised row sum that certifies each row's result equals
    ``math.fsum``'s, and calls ``math.fsum`` on the rows it cannot certify
    (see ``_fsum_rows``); a smaller batch calls ``math.fsum`` on every row.
    """
    y = np.asarray(ys, dtype=np.float64)[..., plan.support]
    sy = _fsum(plan.w * y)
    sxy = None if plan.wdx is None else _fsum(plan.wdx * y)
    # A 1-D call's sums are Python floats, whose arithmetic overflows to inf
    # or gives nan without a word; a batch's rows must do the same.
    with np.errstate(over="ignore", invalid="ignore"):
        if sxy is None:
            return sy / plan.s0
        alpha = (plan.s2 * sy - plan.s1 * sxy) / plan.det
        beta = (plan.s0 * sxy - plan.s1 * sy) / plan.det
        return alpha + beta * plan.du
