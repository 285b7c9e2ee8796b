"""Cyclic storage of fitted per-period rates.

``CyclicDataset`` keeps an m x l matrix of rates: m target-period positions
per pattern period, l stored cycles. Writes walk position-major (fill one
full cycle row before moving to the next) and wrap, so once the store is
full every write overwrites the oldest surviving cell and the matrix always
holds the most recent ``m*l`` fits.

``window_cells`` gathers the trailing cyclic window of n positions ending at
the current cursor (wrapping across the pattern-period boundary) in one
fancy index, which is the history slice the forecaster regresses over;
``extract_window`` lists the same cells as (offset, rate) pairs. Cells never
written are skipped rather than zero-filled: a fabricated zero rate would
poison the regression during warm-up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CyclicDataset",
    "UtilizationWindow",
    "EmptyWindowError",
    "SnapshotError",
    "new_dataset",
    "snapshot",
    "restore",
]

_MAGIC = "CYCLECAST-STORE"
_VERSION = 1


class EmptyWindowError(ValueError):
    """Raised when a requested utilization window contains no stored rates."""


class SnapshotError(ValueError):
    """Raised when a snapshot image fails validation on restore."""


@dataclass(frozen=True)
class UtilizationWindow:
    """Trailing window of n positions; entries are (offset, rate) pairs.

    Offsets run 1..n with n the newest (the position being predicted).
    Several cycles stored at one position contribute replicate entries at
    the same offset.
    """

    n: int
    entries: list[tuple[int, float]]


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

    @property
    def populated(self) -> int:
        """Number of cells holding a rate: min(t - 1, m * l)."""
        return min(self.t - 1, self.m * self.l)

    def get(self, position: int, cycle: int) -> float | None:
        """Rate stored at (position, cycle), or None if that cell is empty."""
        if not (1 <= position <= self.m and 1 <= cycle <= self.l):
            raise ValueError(
                f"cell ({position}, {cycle}) lies outside [1, {self.m}] x [1, {self.l}]"
            )
        v = self.cells[position - 1, cycle - 1]
        return None if np.isnan(v) else float(v)

    def update(self, rate: float) -> None:
        """Write ``rate`` at the cursor (p, w), then advance the step counter."""
        _check_rate(rate)
        self.cells[self.p - 1, self.w - 1] = rate
        self.t += 1

    def _window_rows(self, n: int) -> np.ndarray:
        """0-based rows of the n positions {p-n+1..p} modulo m, oldest first."""
        if not 1 <= n <= self.m:
            raise ValueError(f"window size must lie in [1, m={self.m}], got {n}")
        p = self.p
        return np.arange(p - n, p) % self.m

    def window_positions(self, n: int) -> list[int]:
        """The n positions {p-n+1..p} taken modulo m, oldest first."""
        return (self._window_rows(n) + 1).tolist()

    def window_cells(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The trailing window as an n x l block of rates and its empty mask.

        Row i holds offset i + 1 (offset n is the position at the cursor),
        column j cycle row j + 1; empty cells are NaN and flagged True in
        the mask.

        Raises
        ------
        EmptyWindowError
            If no cell in the window has been written yet (warm-up).
        """
        block = self.cells[self._window_rows(n)]
        empty = np.isnan(block)
        if empty.all():
            raise EmptyWindowError(f"no stored rates in the {n}-position window ending at p={self.p}")
        return block, empty

    def extract_window(self, n: int) -> UtilizationWindow:
        """All populated (offset, rate) entries of the trailing window.

        Entries run offset by offset, cycle rows in order within an offset.

        Raises
        ------
        EmptyWindowError
            If no cell in the window has been written yet (warm-up).
        """
        block, empty = self.window_cells(n)
        rows, cols = np.nonzero(~empty)
        return UtilizationWindow(n=n, entries=list(zip((rows + 1).tolist(), block[rows, cols].tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicDataset):
            return NotImplemented
        return (self.m, self.l, self.t) == (other.m, other.l, other.t) and np.array_equal(
            self.cells, other.cells, equal_nan=True
        )


def new_dataset(m: int, l: int) -> CyclicDataset:
    """Fresh empty m x l store with cursors at (1, 1) and t = 1."""
    return CyclicDataset(m, l)


def snapshot(ds: CyclicDataset) -> str:
    """Serialize a store to checksummed text; inverse of ``restore``.

    Layout: a magic/version header, the dimensions and cursors, one line per
    cell (populated flag and decimal rate) in position-major order, then a
    sha256 line over everything above it.
    """
    lines = [
        f"{_MAGIC} v{_VERSION}",
        f"m={ds.m} l={ds.l} p={ds.p} w={ds.w} t={ds.t}",
    ]
    for position in range(1, ds.m + 1):
        for cycle in range(1, ds.l + 1):
            v = ds.cells[position - 1, cycle - 1]
            lines.append("0 -" if np.isnan(v) else f"1 {float(v)!r}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"sha256={digest}\n"


def restore(image: str) -> CyclicDataset:
    """Rebuild a store from ``snapshot`` output, verifying the checksum.

    Accepts only states that ``update`` can reach: t >= 1, cursors equal to
    the ones t implies, exactly the first min(t - 1, m * l) cells in write
    order populated, and every stored rate finite and nonnegative.
    """
    lines = image.splitlines()
    if len(lines) < 3 or not lines[-1].startswith("sha256="):
        raise SnapshotError("snapshot image is truncated or missing its checksum")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if lines[-1] != f"sha256={digest}":
        raise SnapshotError("snapshot checksum mismatch")
    if lines[0] != f"{_MAGIC} v{_VERSION}":
        raise SnapshotError(f"unrecognized snapshot header: {lines[0]!r}")
    try:
        fields = dict(kv.split("=") for kv in lines[1].split())
        m, l = int(fields["m"]), int(fields["l"])
        p, w, t = int(fields["p"]), int(fields["w"]), int(fields["t"])
    except (ValueError, KeyError) as exc:
        raise SnapshotError(f"malformed snapshot dimension line: {lines[1]!r}") from exc
    if m < 1 or l < 1 or t < 1:
        raise SnapshotError(f"dimensions and step counter must be positive: {lines[1]!r}")
    cell_lines = lines[2:-1]
    if len(cell_lines) != m * l:
        raise SnapshotError(f"expected {m * l} cell lines, found {len(cell_lines)}")
    ds = CyclicDataset(m, l)
    ds.t = t
    if (p, w) != (ds.p, ds.w):
        raise SnapshotError(f"cursors p={p} w={w} disagree with t={t} (expected p={ds.p} w={ds.w})")
    idx = 0
    for position in range(1, m + 1):
        for cycle in range(1, l + 1):
            line = cell_lines[idx]
            idx += 1
            flag, _, value = line.partition(" ")
            if flag == "0" and value == "-":
                rate = None
            elif flag == "1":
                try:
                    rate = float(value)
                except ValueError as exc:
                    raise SnapshotError(f"malformed cell line: {line!r}") from exc
                if not (np.isfinite(rate) and rate >= 0):
                    raise SnapshotError(
                        f"cell ({position}, {cycle}) holds {rate!r}; stored rates are finite and nonnegative"
                    )
            else:
                raise SnapshotError(f"malformed cell line: {line!r}")
            written = (cycle - 1) * m + position <= ds.populated
            if (rate is not None) != written:
                raise SnapshotError(
                    f"cell ({position}, {cycle}) is {'empty' if rate is None else 'populated'}, "
                    f"but at t={t} exactly the first {ds.populated} cells in write order are populated"
                )
            if rate is not None:
                ds.cells[position - 1, cycle - 1] = rate
    return ds
