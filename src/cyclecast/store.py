"""Cyclic storage of fitted per-period rates.

``CyclicDataset`` keeps an m x l matrix of rates: m target-period positions
per pattern period, l stored cycles. Writes walk position-major (fill one
full cycle row before moving to the next) and wrap, so once the store is
full every write overwrites the oldest surviving cell and the matrix always
holds the most recent ``m*l`` fits.

``window_cells`` gathers the trailing cyclic window of n positions ending at
the current cursor (wrapping across the pattern-period boundary) in one
fancy index, which is the history slice the forecaster regresses over.
Cells never written come back NaN and flagged in an empty mask, so callers
skip them rather than read a zero: a fabricated zero rate would poison the
regression during warm-up.
"""

from __future__ import annotations

import math

import numpy as np

from .trace import _MAX_SPAN_SUB_BINS

__all__ = ["CyclicDataset", "EmptyWindowError", "new_dataset"]


class EmptyWindowError(ValueError):
    """Raised when a requested utilization window contains no stored rates."""


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"stored rate must be finite and nonnegative, got {rate}")


class CyclicDataset:
    """m x l rate matrix whose write cursor is a function of the step counter.

    ``t`` is the step counter (starts at 1, so ``t - 1`` writes have
    happened). The 1-based cursors follow from it: ``p`` is the target-period
    position the next write lands on, ``w`` the cycle row. Empty cells are NaN
    internally; stored rates are finite and nonnegative, so NaN is
    unambiguous.
    """

    __slots__ = ("m", "l", "cells", "t")

    def __init__(self, m: int, l: int) -> None:
        if m < 1 or l < 1:
            raise ValueError(f"matrix dimensions must be positive, got m={m}, l={l}")
        # The cap of a span's sub-bins: a store is refused before its cells are allocated.
        if m * l > _MAX_SPAN_SUB_BINS:
            raise ValueError(
                f"a store of m={m} positions x l={l} cycles holds {m * l} cells, "
                f"more than the {_MAX_SPAN_SUB_BINS} a store may hold"
            )
        self.m = m
        self.l = l
        self.cells = np.full((m, l), np.nan)
        self.t = 1

    @property
    def p(self) -> int:
        """Position of the next write: (t - 1) mod m + 1."""
        return (self.t - 1) % self.m + 1

    @property
    def w(self) -> int:
        """Cycle row of the next write: floor((t - 1) / m) mod l + 1.

        The row advances only when the position wraps past m, so one row
        fills with exactly one pattern period of data.
        """
        return (self.t - 1) // self.m % self.l + 1

    def update(self, rate: float) -> None:
        """Write ``rate`` at the cursor (p, w), then advance the step counter."""
        _check_rate(rate)
        self.cells[self.p - 1, self.w - 1] = rate
        self.t += 1

    def window_cells(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The trailing window as an n x l block of rates and its empty mask.

        Row i holds offset i + 1, the position p - n + 1 + i modulo m
        (offset n is the position at the cursor), column j cycle row j + 1;
        empty cells are NaN and flagged True in the mask.

        Raises
        ------
        ValueError
            If n lies outside [1, m].
        EmptyWindowError
            If no cell in the window has been written yet (warm-up).
        """
        if not 1 <= n <= self.m:
            raise ValueError(f"window size must lie in [1, m={self.m}], got {n}")
        p = self.p
        block = self.cells[np.arange(p - n, p) % self.m]
        empty = np.isnan(block)
        if empty.all():
            raise EmptyWindowError(f"no stored rates in the {n}-position window ending at p={self.p}")
        return block, empty

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicDataset):
            return NotImplemented
        return (self.m, self.l, self.t) == (other.m, other.l, other.t) and np.array_equal(
            self.cells, other.cells, equal_nan=True
        )


def new_dataset(m: int, l: int) -> CyclicDataset:
    """Fresh empty m x l store with cursors at (1, 1) and t = 1."""
    return CyclicDataset(m, l)
