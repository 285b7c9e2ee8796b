"""Seeded synthetic traces with known cyclic ground-truth rates.

The generated intensity repeats exactly every pattern period: a base rate
modulated by one sinusoid per pattern period ("weekly") and one at seven
cycles per pattern period ("daily"), shapes that mimic the peaks and troughs
of production request traces. Per-period multiplicative lognormal noise
(mean 1) models week-over-week drift without breaking the cycle.

Every pipeline stage can be validated against the returned true rate
sequence. Draws come from numpy's PCG64 via ``default_rng(seed)``; the
generator name is recorded in run manifests so streams are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import trace
from .trace import Events

__all__ = ["SyntheticSpec", "generate", "true_rate", "write_truth", "RNG_NAME"]

RNG_NAME = "numpy-pcg64"

# The cpu and memory request of every generated event.
CPU_PER_EVENT = 0.01
MEM_PER_EVENT = 0.005
# The most events a spec may expect at its peak rate; its event columns take
# 24 bytes per event. The lognormal noise may draw more.
_MAX_EVENTS = 2**31


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic trace; validated on construction.

    ``tps`` is the total number of target periods to emit; ``pp_tps`` the
    pattern-period length in target periods. Amplitudes must sum below 1 so
    the intensity stays positive. ``trace._span_geometry`` checks the period
    and caps the ``tps`` periods at ``_MAX_SPAN_SUB_BINS`` sub-bins, as for
    ``ingest``; they must end by 2**63 us, as every timestamp lies below.
    """

    pp_tps: int = 336
    tps: int = 1008
    base_rate: float = 20.0
    daily_amplitude: float = 0.4
    weekly_amplitude: float = 0.2
    noise_sigma: float = 0.0
    seed: int = 0
    tp_minutes: int = 30
    sub_bin_seconds: int = 60

    def __post_init__(self) -> None:
        if self.pp_tps < 1 or self.tps < 1:
            raise ValueError(f"pp_tps and tps must be positive, got {self.pp_tps}, {self.tps}")
        if not (math.isfinite(self.base_rate) and self.base_rate > 0):
            raise ValueError(f"base_rate must be finite and positive, got {self.base_rate}")
        for name, amp in (("daily", self.daily_amplitude), ("weekly", self.weekly_amplitude)):
            if not 0 <= amp < 1:
                raise ValueError(f"{name} amplitude must lie in [0, 1), got {amp}")
        if self.daily_amplitude + self.weekly_amplitude >= 1:
            raise ValueError("amplitudes must sum below 1 to keep the rate positive")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma * self.noise_sigma)):
            raise ValueError(
                f"noise_sigma must be finite and nonnegative, at most about 1.34e154, got {self.noise_sigma}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        period_us, _, sub_bins = trace._span_geometry(self.tp_minutes, self.sub_bin_seconds, self.tps)
        if self.tps * period_us > trace._INT64_LIMIT:
            raise ValueError(
                f"{self.tps} periods of {self.tp_minutes}min end at {self.tps * period_us}us, past 2**63us"
            )
        events = self.tps * sub_bins * self.base_rate * (1 + self.daily_amplitude + self.weekly_amplitude)
        if events > _MAX_EVENTS:
            raise ValueError(
                f"base_rate={self.base_rate} over tps={self.tps} periods of {sub_bins} sub-bins "
                f"expects up to {events:.4g} events, more than the {_MAX_EVENTS} a trace may hold"
            )


def true_rate(spec: SyntheticSpec, tp: int) -> float:
    """Noiseless intensity of target period ``tp`` (0-based); period pp_tps."""
    phase = (tp % spec.pp_tps) / spec.pp_tps
    return spec.base_rate * (
        1.0
        + spec.weekly_amplitude * math.sin(2.0 * math.pi * phase)
        + spec.daily_amplitude * math.sin(2.0 * math.pi * phase * 7.0)
    )


def generate(spec: SyntheticSpec) -> tuple[Events, list[float]]:
    """Draw a trace and return (events, true rate per target period).

    Per period, one lognormal noise factor scales the intensity, then each
    sub-bin count is Poisson-drawn at that rate. Events are placed at evenly
    spaced offsets inside their sub-bin, so per-period event totals match
    the drawn counts exactly and output is byte-stable under a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    _, sub_bin_us, sub_bins = trace._span_geometry(spec.tp_minutes, spec.sub_bin_seconds)
    truths = [true_rate(spec, tp) for tp in range(spec.tps)]

    counts = np.empty((spec.tps, sub_bins), dtype=np.int64)
    for tp, rate in enumerate(truths):
        if spec.noise_sigma > 0:
            # Mean-one lognormal: exp(sigma*Z - sigma^2/2).
            noise = math.exp(spec.noise_sigma * rng.standard_normal() - spec.noise_sigma**2 / 2.0)
        else:
            noise = 1.0
        counts[tp] = rng.poisson(rate * noise, size=sub_bins)

    # Event i of a sub-bin holding `count` events sits at
    # bin_start + int((i + 0.5) * (sub_bin_us / count)).
    counts = counts.ravel()
    ends = np.cumsum(counts)
    starts = ends - counts
    n = int(ends[-1])
    timestamps = np.empty(n, dtype=np.int64)
    # Placed in blocks of whole sub-bins, cut where the running event count
    # passes a multiple of the block size, so a block's temporaries are
    # about _EVENT_BLOCK events long whatever the number of sub-bins.
    cuts = np.searchsorted(ends, np.arange(trace._EVENT_BLOCK, n, trace._EVENT_BLOCK), side="right")
    edges = list(dict.fromkeys([0, *cuts.tolist(), len(counts)]))  # a sub-bin may pass several multiples
    for first, stop in zip(edges, edges[1:]):
        lo, hi = int(starts[first]), int(ends[stop - 1])
        bins = np.repeat(np.arange(first, stop, dtype=np.int64), counts[first:stop])
        i = np.arange(lo, hi, dtype=np.int64) - np.repeat(starts[first:stop], counts[first:stop])
        timestamps[lo:hi] = bins * sub_bin_us + ((i + 0.5) * (sub_bin_us / counts[bins])).astype(np.int64)
    del bins, i  # the last block's, before the request columns are allocated
    return Events(timestamps, np.full(n, CPU_PER_EVENT), np.full(n, MEM_PER_EVENT)), truths


def write_truth(path: str | Path, truths: Sequence[float]) -> None:
    """Write the true rate sequence, one line per target period."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tp,true_rate\n")
        for tp, rate in enumerate(truths, start=1):
            fh.write(f"{tp},{rate!r}\n")
