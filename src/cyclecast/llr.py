"""Kernel-weighted local linear regression.

Fits a straight line through weighted neighbors of a query point and returns
the line's value there. Weights come from a kernel whose reach is either a
fixed radius ``h`` or adaptive: the distance to the k-th nearest observation,
so a compact kernel's window always spans the query point's k neighbors.

History parameters stack several values at the same x (one per stored cycle),
so degenerate geometry is structural here, not an error. A fit never fails
on nonempty input: when the weighted system is singular the plan walks a
fallback chain (widen the bandwidth up to 3 doublings, then a kernel-weighted
mean, then a global unweighted line) and ``plan.fallback`` reports, per
shape, which step produced the value.

A fit is two steps. ``llr_plan`` looks only at the xs, the query and the
spec: it resolves the bandwidth, walks the fallback chain and keeps the
weights ``w``, the products ``w * (x - xbar)`` and the normal-equation
scalars. ``llr_apply`` then needs two correctly rounded sums over the ys, so
the fit is a fixed linear functional of the ys (the "equivalent kernel" of
local polynomial regression). A caller that meets the same xs again (the
forecaster, once its store is full) can keep the plan and pay only for the
sums. Splitting the solve this way changes no result bit: every product is
the same IEEE operation on the same operands, ``math.fsum`` is correctly
rounded whatever the order of its terms, and the sums run over the same
points as a one-pass solve (the positive-weight support for a line, every
point for a mean).

One ``LLRPlan`` holds the plans of several shapes: shapes that share one
set of cells (their xs) and the query, and differ in which cells are
populated, as the forecaster's windows do. ``_plan_shapes`` plans them
all at once, and ``llr_plan`` is its one-shape case. Each step of the
chain is array work over a shapes x cells matrix, for every shape still
unresolved. ``+``, ``-``, ``*``, ``/`` and ``abs`` round the same in
numpy as in Python, but ``np.exp`` and numpy's square need not equal
``math.exp`` and Python's ``** 2`` (the C library's ``pow``). So those two
go through Python once per distinct operand: the kernel is tabulated over
the distinct distances and bandwidths, and ``(x - xbar) ** 2`` is taken
per support point. Every plan field is the float of the scalar formula.

``llr_apply`` fits one window, or a batch of windows that each name their
shape; a batch sums all of them, ``sy`` and ``sxy`` alike, at once. Cells
off a shape's support enter the batch with weight +0.0 and value -0.0:
their product is -0.0, which ``math.fsum`` drops and which leaves every
IEEE sum as it was (+0.0 would turn a sum of -0.0 into +0.0), while an
empty cell's NaN never meets a weight. The batch is summed row by row
without a Python loop: an exact split of each term against a power of two
per row (Rump, Ogita and Oishi's ExtractVector) gives a sum whose error is
bounded, and a row's result is kept only when that bound proves it is the
correctly rounded sum. The rows it cannot prove (non-finite terms,
overflow, cancellation to or near zero, near-ties) go to ``math.fsum``, so
every row's value, signed zero and exception is ``math.fsum``'s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "Fallback",
    "LLRPlan",
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


class LLRPlan:
    """Everything of a fit that depends on the xs alone, for several shapes.

    The shapes share one set of cells (the xs) and the query ``x_u``, and
    differ in which cells are populated; row i is shape i. ``support`` is a
    shapes x cells mask of the cells a fit sums over; ``w`` and ``wdx`` are
    shapes x cells and +0.0 off the support (``wdx`` is +0.0 throughout for
    a mean). Per shape: ``line`` (a line, or a mean), ``s0``, ``s1``,
    ``s2``, ``det``, ``du`` (0.0 for a mean) and ``fallback``.

    With ``sy = fsum(w * y)`` and ``sxy = fsum(wdx * y)`` over the support,
    a line's value is its intercept plus slope times ``du = x_u - xbar``,
    from the 2x2 normal equations in ``s0``, ``s1``, ``s2`` and ``det``
    (``_line_value``); a mean's is ``sy / s0``. Callers cache and share
    plans, so the planner leaves every array read-only.
    """

    def __init__(self, shapes: int, cells: int) -> None:
        self.support = np.zeros((shapes, cells), dtype=bool)
        self.w = np.zeros((shapes, cells))
        self.wdx = np.zeros((shapes, cells))
        self.line = np.zeros(shapes, dtype=bool)
        self.s0, self.s1, self.s2, self.det, self.du = np.zeros((5, shapes))
        self.fallback = np.full(shapes, Fallback.NONE, dtype=object)


def _pow2(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it (the C library's ``pow``)."""
    return np.array(list(map(pow, values.tolist(), repeat(2))), dtype=np.float64)


def _kernel(family: KernelFamily, u: np.ndarray) -> np.ndarray:
    """The kernel at each scaled distance ``u``, the float of the scalar formula.

    Nonincreasing in ``u`` for every family; the compact-support families
    are exactly zero at and beyond 1.
    """
    if family is KernelFamily.GAUSSIAN:
        return _GAUSS_NORM * np.array(list(map(math.exp, (-0.5 * u * u).ravel().tolist()))).reshape(u.shape)
    inside = u < 1.0
    base = 1.0 - u * u
    if family is KernelFamily.EPANECHNIKOV:
        return np.where(inside, 0.75 * base, 0.0)
    weights = np.zeros(u.shape)
    weights[inside] = (15.0 / 16.0) * _pow2(base[inside])
    return weights


def _bandwidths(spec: KernelSpec, xs: np.ndarray, d: np.ndarray, populated: np.ndarray) -> np.ndarray:
    """Each shape's bandwidth: ``h``, or the distance ``d`` to its k-th nearest populated cell.

    A k-nearest count above a shape's population is clamped to it. A zero
    k-th distance (replicates stacked at the query x) is promoted to the
    smallest positive gap between the shape's distinct xs, or 0.0 if every
    x coincides, so the chain can fall back to a local mean. A NaN k-th
    distance is promoted the same way, so no bandwidth is NaN or negative.
    """
    shapes = len(populated)
    if spec.h is not None:
        return np.full(shapes, spec.h)
    count = populated.sum(axis=1)
    nearest = np.sort(np.where(populated, d, np.inf), axis=1)
    h = nearest[np.arange(shapes), np.minimum(spec.k, count) - 1]
    flat = np.flatnonzero(~(h > 0))
    if len(flat):
        # Sorted with the empty cells last: a gap counts between two populated xs.
        sx = np.sort(np.where(populated[flat], xs, np.inf), axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf past the last populated x
            gaps = np.diff(sx, axis=1)
        real = (np.arange(gaps.shape[1]) < count[flat, None] - 1) & (gaps > 0)
        h[flat] = np.where(real.any(axis=1), np.min(np.where(real, gaps, np.inf), axis=1, initial=np.inf), 0.0)
    return h


def _weights(family: KernelFamily, d: np.ndarray, h: np.ndarray, populated: np.ndarray) -> np.ndarray:
    """Kernel weights ``K(d / h)`` of each shape's populated cells, 0.0 at the others.

    The kernel is evaluated once per distinct distance and bandwidth.
    """
    uh, h_at = np.unique(h, return_inverse=True)
    ud, d_at = np.unique(d, return_inverse=True)
    with np.errstate(over="ignore"):  # as in Python, a huge distance's u * u is inf
        table = _kernel(family, ud[None, :] / uh[:, None])
    return np.where(populated, table[h_at[:, None], d_at[None, :]], 0.0)


def _plan_lines(plan: LLRPlan, rows: np.ndarray, xs: np.ndarray, x_u: float, weights: np.ndarray,
                fallback: Fallback) -> np.ndarray:
    """Weighted least-squares lines at x_u for shapes ``rows``; which of them are not singular.

    Solves the 2x2 normal equations in coordinates centered on the weighted
    mean of x, which keeps the system conditioned at large period indices.
    A line needs two distinct xs of positive weight and a positive
    determinant. The weights are first scaled by the power of two that
    brings the largest into [1, 2): far-tail Gaussian weights can be so
    small that their products underflow, and the largest can be subnormal.
    The scaling is exact, so the fitted value is the same wherever nothing
    underflowed; it only changes the plan's weights.
    """
    support = weights > 0
    low = np.where(support, xs, np.inf).min(axis=1)
    high = np.where(support, xs, -np.inf).max(axis=1)
    done = np.zeros(len(rows), dtype=bool)
    go = np.flatnonzero(low < high)
    if not len(go):
        return done
    support = support[go]
    _, e = np.frexp(weights[go].max(axis=1))
    w = np.ldexp(weights[go], (1 - e)[:, None])
    # Python float arithmetic overflows to inf and makes nan silently; so must this.
    k = len(go)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _fsum(np.concatenate([np.where(support, w, -0.0), np.where(support, w * xs, -0.0)]))
        s0, xbar = sums[:k], sums[k:] / sums[:k]
        dx = xs - xbar[:, None]
        wdx = w * dx
        square = np.zeros(dx.shape)
        square[support] = _pow2(dx[support])
        sums = _fsum(np.concatenate([np.where(support, wdx, -0.0), np.where(support, w * square, -0.0)]))
        s1, s2 = sums[:k], sums[k:]
        det = s0 * s2 - s1 * s1
    ok = ~(det <= 0)
    at = rows[go[ok]]
    plan.support[at] = support[ok]
    plan.w[at] = np.where(support[ok], w[ok], 0.0)
    plan.wdx[at] = np.where(support[ok], wdx[ok], 0.0)
    plan.line[at] = True
    plan.s0[at], plan.s1[at], plan.s2[at], plan.det[at] = s0[ok], s1[ok], s2[ok], det[ok]
    plan.du[at] = x_u - xbar[ok]
    plan.fallback[at] = fallback
    done[go[ok]] = True
    return done


def _plan_means(plan: LLRPlan, rows: np.ndarray, populated: np.ndarray, weights: np.ndarray, s0: np.ndarray,
                fallback: Fallback) -> None:
    """Weighted means for shapes ``rows``: every populated cell, zero weights included."""
    plan.support[rows] = populated
    plan.w[rows] = weights
    plan.s0[rows] = s0
    plan.fallback[rows] = fallback


def _plan_shapes(xs: np.ndarray, x_u: float, spec: KernelSpec, populated: np.ndarray) -> LLRPlan:
    """Plan the fit at ``x_u`` of each shape, a row of ``populated`` over cells at ``xs``.

    Every shape walks the fallback chain on the xs of its populated cells,
    as ``llr_plan`` does for one shape. A k-nearest count above a shape's
    population is clamped to it. Each link of the chain is one array step
    over the shapes it has not resolved yet. Every shape must populate a
    cell.
    """
    shapes, cells = populated.shape
    plan = LLRPlan(shapes, cells)
    count = populated.sum(axis=1).astype(np.float64)
    with np.errstate(over="ignore"):
        d = np.abs(xs - x_u)
    h0 = _bandwidths(spec, xs, d, populated)
    rows = np.flatnonzero(h0 > 0)
    weights = np.zeros((0, cells))
    for widen in range(4):
        if not len(rows):
            break
        with np.errstate(over="ignore"):
            h = h0[rows] * 2.0**widen
        weights = _weights(spec.family, d, h, populated[rows])
        left = ~_plan_lines(plan, rows, xs, x_u, weights, Fallback.NONE if widen == 0 else Fallback.WIDENED_H)
        rows, weights = rows[left], weights[left]
    if len(rows):
        wsum = _fsum(np.where(populated[rows], weights, -0.0))
        mean = wsum > 0
        _plan_means(plan, rows[mean], populated[rows[mean]], weights[mean], wsum[mean], Fallback.WEIGHTED_MEAN)
        rows = rows[~mean]
    # A zero bandwidth: every x coincides, and the local constant fit is the mean.
    flat = np.flatnonzero(h0 == 0)
    _plan_means(plan, flat, populated[flat], populated[flat], count[flat], Fallback.WEIGHTED_MEAN)
    if len(rows):
        ones = populated[rows].astype(np.float64)
        left = ~_plan_lines(plan, rows, xs, x_u, ones, Fallback.GLOBAL_LINE)
        _plan_means(plan, rows[left], populated[rows[left]], ones[left], count[rows[left]], Fallback.GLOBAL_LINE)
    for a in vars(plan).values():
        a.flags.writeable = False
    return plan


def llr_plan(xs: Sequence[float], x_u: float, spec: KernelSpec) -> LLRPlan:
    """Plan the local linear fit at ``x_u`` over observations at ``xs``: a one-shape plan.

    Resolves the bandwidth and walks the fallback chain (widen up to 3
    doublings, kernel-weighted mean, global line, plain mean); none of it
    looks at the ys.

    Raises
    ------
    ValueError
        If ``xs`` is empty, or a k-nearest spec asks for more neighbors
        than there are observations.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not len(xs):
        raise ValueError("cannot fit with zero points")
    if spec.k is not None and spec.k > len(xs):
        raise ValueError(f"k={spec.k} exceeds the {len(xs)} available observations")
    return _plan_shapes(xs, x_u, spec, np.ones((1, len(xs)), dtype=bool))


def _fsum(p: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, vectorised where it can be certified.

    Per row, with ``2**e`` above max|p| and ``sigma = 2**(e + ceil(log2(n + 2)))``,
    ``q = (sigma + p) - sigma`` and ``r = p - q`` are exact, every ``q`` is a
    multiple of ``2**-53 * sigma`` and ``|sum(q)| < sigma``, so ``tau = sum(q)``
    is exact in any order and ``|r| <= 2**-53 * sigma`` (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31(1), 2008, the ExtractVector lemma). The exact sum
    is then ``hi + lo + err``: ``hi = tau + sum(r)``, ``lo`` the TwoSum error
    of that addition, and ``|err| <= delta``, a bound on the rounding of
    ``sum(r)``: gamma_{n-1} * sum|r| <= (n + 1) * 2**-53 * 1.01 * n * 2**-53 * sigma,
    rounded up, so ``sum|r|`` is never formed. ``hi`` is kept only when it
    is finite and nonzero and ``|lo| + delta``, rounded up, is below half the
    gap from ``|hi|`` to the next smaller double: the exact sum then rounds to
    ``hi`` under any tie rule, which is what ``math.fsum`` returns. Every other
    row (inf or NaN, overflow, cancellation to or near zero, a sum within
    ``delta`` of a tie) is ``math.fsum`` of the row, in row order, so its
    value, signed zero or exception is fsum's own. A row of no terms is one
    of them, and sums to 0.0.
    """
    # The passes run down the columns of ``p.T``: fast when ``p`` is the
    # transpose of a C-ordered array, and the same sums in any layout.
    t = p.T
    n = len(t)
    with np.errstate(over="ignore", invalid="ignore"):
        _, e = np.frexp(np.maximum(t.max(axis=0, initial=0.0), -t.min(axis=0, initial=0.0)))
        sigma = np.ldexp(1.0, e + (n + 1).bit_length())
        q = t + sigma
        q -= sigma
        tau = q.sum(axis=0)
        np.subtract(t, q, out=q)
        rho = q.sum(axis=0)
        hi = tau + rho
        b = hi - tau
        lo = (tau - (hi - b)) + (rho - b)
        delta = np.nextafter(sigma * (n * (n + 1) * 1.01 * 2.0**-106), np.inf)
        bound = np.nextafter(np.abs(lo) + delta, np.inf)
        mag = np.abs(hi)
        ok = np.isfinite(hi) & (hi != 0) & (bound < (mag - np.nextafter(mag, 0.0)) * 0.5)
    bad = np.flatnonzero(~ok)
    if len(bad):
        hi[bad] = [math.fsum(row) for row in p[bad].tolist()]
    return hi


def _line_value(s0, s1, s2, det, du, sy, sxy):
    """A line's value at the query: ``alpha + beta * du``, from the normal equations.

    Plain operators only, so a call on Python floats and a call on arrays
    make the same IEEE operations, the latter elementwise.
    """
    return (s2 * sy - s1 * sxy) / det + (s0 * sxy - s1 * sy) / det * du


def llr_apply(plan: LLRPlan, ys: Sequence[float] | np.ndarray, which: int | np.ndarray = 0) -> float | np.ndarray:
    """The planned fit's value for each window of ``ys``, fitted by shape ``which``.

    A window holds a value per cell, in the order of the plan's xs; cells
    off its shape's support may hold anything, NaN included. A 1-D ``ys``
    is one window and gives a float, from two ``math.fsum`` sums over the
    support of shape ``which``. A 2-D ``ys`` holds one window per row, and
    ``which`` names each row's shape (one int names it for every row). It
    gives an array with one value per row, each the float that the 1-D call
    on that row returns: the sums are per row, and the rest is the same
    IEEE operations elementwise.

    A 2-D call sums the ``sy`` of every row and the ``sxy`` of every line in
    one batch, one sum per column of a cells x sums matrix, so the sums run
    down contiguous memory when ``ys`` is the transpose of a C-ordered
    block. Cells off a row's support enter it with weight +0.0 and value
    -0.0. The batch is summed by a vectorised row sum that certifies each
    row's result equals ``math.fsum``'s, and calls ``math.fsum`` on the
    rows it cannot certify (see ``_fsum``). A batch whose sums fail is
    applied again a row at a time, in order, so the first failing row
    raises.
    """
    y = np.asarray(ys, dtype=np.float64)
    if y.ndim == 1:
        support = plan.support[which]
        y = y[support]
        sy = math.fsum((plan.w[which][support] * y).tolist())
        if not plan.line[which]:
            return sy / plan.s0.item(which)
        sxy = math.fsum((plan.wdx[which][support] * y).tolist())
        return _line_value(*(a.item(which) for a in (plan.s0, plan.s1, plan.s2, plan.det, plan.du)), sy, sxy)
    cells = y.T
    rows = cells.shape[1]
    which = np.broadcast_to(which, rows)
    line = plan.line[which]
    at = which[line]
    # With one shape, its plan arrays broadcast over the rows.
    one = len(plan.line) == 1
    pick = slice(0, 1) if one else which
    support = plan.support[pick]
    if not support.all():
        cells = np.where(support.T, cells, -0.0)
    terms = np.empty((len(cells), rows + len(at)))
    np.multiply(plan.w[pick].T, cells, out=terms[:, :rows])
    np.multiply(plan.wdx[pick if one else at].T, cells if line.all() else cells[:, line], out=terms[:, rows:])
    try:
        sums = _fsum(terms.T)
    except (ValueError, OverflowError):
        # The batch sums every sy before any sxy, so it can fail at a later
        # row than the row loop does.
        return np.array([llr_apply(plan, row, i) for row, i in zip(y, which.tolist())])
    sy, sxy = sums[:rows], sums[rows:]
    # A 1-D call's arithmetic is on Python floats, which overflow to inf or
    # give nan without a word; a batch's rows must do the same.
    with np.errstate(over="ignore", invalid="ignore"):
        values = sy / plan.s0[which]
        values[line] = _line_value(plan.s0[at], plan.s1[at], plan.s2[at], plan.det[at], plan.du[at], sy[line], sxy)
    return values
