"""Peak location and parameter optimisation for the transfer probability.

The slowest spectral frequency sets the natural time scale: the high
transfer peaks of an even chain cluster around pi / lambda_min, where
lambda_min is the smallest positive eigenvalue (the hyperbolic pair).
The peak search scans the window (0, 1.3*pi/lambda_min] on a grid dense
enough to resolve the fastest beat and takes the highest sample of the
whole window, not the earliest peak above some level.  An earlier, lower
peak is passed over: 16 sites at ratio 2.380 peak at P = 0.901 near
0.85*pi/lambda_min, but the search returns the P = 0.915 peak at
1.14*pi/lambda_min.  The peak time is then the root of dP/dt next to
the winning sample.  Every search takes its spectra from spectra and P_N
from the paired series: the uniform time grid by angle addition
(paired_grid_probability), which only picks the winning sample, and
every reported value directly (paired_transfer_probability); a kept
sample is re-evaluated over its chunk of the grid.  optimize_delta and
fixed_time_optimize are one ratio search (_ratio_search) under two
scores.  Every search returns at least its own grid winner.  All
searches are deterministic: grids are fixed by the parameters alone and
tie-breaks take the earliest time (or smallest ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .chain import ChainSpec
from .dynamics import (
    TransferCurve,
    check_horizon,
    paired_grid_probability,
    paired_transfer_probability,
    paired_transfer_slope,
)
from .errors import HorizonError, ValidationError
from .roots import bisect
from .spectral import spectra

_WINDOW_FACTOR = 1.3
_GRID_STEP_CAP = 0.01
_FAST_SAMPLES_PER_HALF_PERIOD = 50
_TIME_CHUNK = 65536
_DELTA_GRID = 0.002
_DELTA_TOL = 1e-4
_FIXED_TIME_GRID = 0.001
_FIXED_TIME_TOL = 1e-6
# the ratio grids take at most this / N^2 ratios per stacked solve,
# which bounds their memory on wide ratio ranges
_GRID_CHUNK_ENTRIES = 1 << 20
_DEGENERACY_FLOOR = 1e-12
_MAX_GRID_POINTS = 100_000_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransferTriad:
    """A located transfer peak: ratio, time, probability, time-scale."""

    delta_h: float
    t_h: float
    p_h: float
    lambda_min_estimate: float


@dataclass(frozen=True)
class SweepRow:
    """One chain length in a fixed-ratio sweep; note marks failures."""

    n_sites: int
    delta: float
    t_h1: float
    p_h1: float
    estimate: float
    note: str = ""


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float
) -> tuple[float, float]:
    """Golden-section maximisation on [lo, hi] to width xtol."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _first_argmax(
    values: Callable[[int, int], np.ndarray], count: int, chunk: int
) -> tuple[int, float]:
    """(first index, value) of the largest entry of values(start, stop) over 0..count-1.

    values returns the entries start..stop-1; they are taken in chunks.
    """
    best, best_p = 0, -1.0
    for start in range(0, count, chunk):
        probs = values(start, min(start + chunk, count))
        k = int(np.argmax(probs))
        if probs[k] > best_p:
            best, best_p = start + k, float(probs[k])
    return best, best_p


def _ratio_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi, ending on hi exactly.

    hi replaces a last step within 1e-12 of it and is appended when the
    steps miss it by more.
    """
    count = int(math.floor((hi - lo) / step + 1e-9))
    grid = lo + step * np.arange(count + 1)
    if grid[-1] < hi - 1e-12:
        return np.append(grid, hi)
    grid[-1] = hi
    return grid


def first_peak(spec: ChainSpec) -> TransferTriad:
    """Locate the highest transfer peak in the first-peak window of one chain.

    Scans (0, 1.3*pi/lambda_min] on a grid no coarser than 0.01 and
    than a fiftieth of the fastest half-period, takes the global sampled
    maximum (earliest on exact ties), and bisects dP/dt = 2 s s' where
    it turns from + to - between the neighbouring samples.  Without that
    sign change (an odd chain whose P still rises at the window end) the
    best sample is kept, and p_h is never below it.  An earlier peak
    lower than the window maximum is not returned, even a high one.
    The grid is evaluated by angle addition (paired_grid_probability),
    which only chooses the sample; a kept sample's p_h comes from the
    direct series over its chunk of the grid.  A window too long for the
    phases to keep digits (check_horizon) raises HorizonError.
    """
    lam, ends = spectra(spec.n_sites, [spec.delta])
    return _spectrum_peak(lam[0], ends[0], spec.delta)


def _spectrum_peak(lam: np.ndarray, ends: np.ndarray, delta: float) -> TransferTriad:
    """first_peak of the chain whose levels and end products are given."""
    n = lam.size
    lam_min = float(lam[n // 2 - 1])
    if lam_min < _DEGENERACY_FLOOR:
        raise HorizonError(
            f"smallest positive eigenvalue {lam_min} is below the degeneracy "
            f"floor {_DEGENERACY_FLOOR:.3e}; the peak window is unbounded"
        )
    window = _WINDOW_FACTOR * math.pi / lam_min
    check_horizon(window, float(lam[0]))
    step = min(_GRID_STEP_CAP, math.pi / (_FAST_SAMPLES_PER_HALF_PERIOD * float(lam[0])))
    count = int(math.ceil(window / step))
    if count > _MAX_GRID_POINTS:
        raise HorizonError(
            f"peak window needs {count} samples (cap {_MAX_GRID_POINTS}); "
            "the spectrum is too close to degenerate to scan"
        )
    actual = window / count
    estimate = math.pi / lam_min
    best, p_best = _best_sample(lam, ends, actual, count)
    t_best = (best + 1) * actual
    slope = partial(paired_transfer_slope, lam, ends)
    lo = max(t_best - actual, actual * 1e-3)
    hi = min(t_best + actual, window)
    if slope(lo) > 0.0 > slope(hi):
        root = bisect(slope, lo, hi)
        p_root = paired_transfer_probability(lam, ends, root)
        if p_root >= p_best:
            return TransferTriad(delta_h=delta, t_h=root, p_h=p_root, lambda_min_estimate=estimate)
    # keep the best sample, with the digits of the direct series over its chunk
    start = best - best % _TIME_CHUNK
    times = (np.arange(start, min(start + _TIME_CHUNK, count)) + 1) * actual
    probs = paired_transfer_probability(lam, ends, times)
    k = int(np.argmax(probs))
    return TransferTriad(
        delta_h=delta, t_h=float(times[k]), p_h=float(probs[k]), lambda_min_estimate=estimate
    )


def _best_sample(lam: np.ndarray, ends: np.ndarray, step: float, count: int) -> tuple[int, float]:
    """(index, P) of the highest of P((index + 1) * step), index < count, earliest on ties.

    The grid is taken in chunks of _TIME_CHUNK samples by angle addition.
    """
    return _first_argmax(
        lambda start, stop: paired_grid_probability(lam, ends, step, start + 1, stop + 1),
        count,
        _TIME_CHUNK,
    )


def _validate_delta_range(delta_lo: float, delta_hi: float) -> None:
    if not (math.isfinite(delta_lo) and math.isfinite(delta_hi)):
        raise ValidationError(f"delta range must be finite: [{delta_lo}, {delta_hi}]")
    if not (delta_lo > 0.0 and delta_hi > 0.0):
        raise ValidationError("delta range must be positive")
    if not delta_lo < delta_hi:
        raise ValidationError(f"delta range is empty: [{delta_lo}, {delta_hi}]")


def _ratio_search(
    n_sites: int, lo: float, hi: float, step: float, tol: float,
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, float]:
    """(ratio, P) of the best ratio in [lo, hi], never below the grid winner.

    score(lam, ends, ratios) maps a stack of spectra to one P per ratio.
    The grid takes its spectra in stacks of _GRID_CHUNK_ENTRIES / N^2
    ratios; golden section refines within one step of its first best
    ratio, one ratio at a time, and the grid winner stands where that
    does not beat it (as at a range end, which golden section never
    evaluates).
    """
    _validate_delta_range(lo, hi)
    grid = _ratio_grid(lo, hi, step)
    best, p_best = _first_argmax(
        lambda a, b: score(*spectra(n_sites, grid[a:b]), grid[a:b]),
        grid.size,
        max(1, _GRID_CHUNK_ENTRIES // (n_sites * n_sites)),
    )
    winner = float(grid[best])
    delta, p = _golden_max(
        lambda d: float(score(*spectra(n_sites, [d]), [d])[0]),
        max(lo, winner - step), min(hi, winner + step), tol,
    )
    return (delta, p) if p > p_best else (winner, p_best)


def optimize_delta(n_sites: int, delta_lo: float, delta_hi: float) -> TransferTriad:
    """Best first-peak probability over a ratio range, even chains.

    The ratio search (_ratio_search) scores each ratio by its
    first_peak p_h, on a 0.002-spaced grid refined to 1e-4, and returns
    first_peak of the winner.  The range must reach above the
    closed-form threshold (N+2)/N; below it the first-peak mechanism
    this search targets does not operate.
    """
    probe = ChainSpec(n_sites, 1.0)
    if probe.n_sites % 2 != 0:
        raise ValidationError(f"optimize_delta needs an even chain, got N={n_sites}")
    if delta_hi <= probe.even_regime_threshold():
        raise ValidationError(
            f"ratio range [{delta_lo}, {delta_hi}] lies entirely at or below the "
            f"closed-form threshold {probe.even_regime_threshold():.6g}; "
            "no high-transfer regime inside"
        )

    def peaks(*stack: np.ndarray) -> np.ndarray:
        return np.array([
            _spectrum_peak(lam, ends, float(delta)).p_h for lam, ends, delta in zip(*stack)
        ])

    delta_h, _ = _ratio_search(n_sites, delta_lo, delta_hi, _DELTA_GRID, _DELTA_TOL, peaks)
    return first_peak(ChainSpec(n_sites, delta_h))


def fixed_time_optimize(
    n_sites: int, t_fixed: float, delta_lo: float, delta_hi: float
) -> TransferTriad:
    """Best ratio for arrival at one prescribed time.

    The ratio search (_ratio_search) scores each ratio by
    P(delta, t_fixed), on a 0.001-spaced grid refined to 1e-6; the
    reported triad keeps the prescribed time.  A time too long for the
    phases to keep digits (check_horizon) raises HorizonError.
    """
    if not (math.isfinite(t_fixed) and t_fixed > 0.0):
        raise ValidationError(f"t_fixed must be positive and finite, got {t_fixed}")
    _validate_delta_range(delta_lo, delta_hi)  # before the horizon check reads delta_hi
    n = ChainSpec(n_sites, delta_lo).n_sites  # validates n_sites
    check_horizon(t_fixed, 1.0 + delta_hi)  # lambda_max <= 1 + delta on the whole range
    delta_h, p_h = _ratio_search(
        n, delta_lo, delta_hi, _FIXED_TIME_GRID, _FIXED_TIME_TOL,
        lambda lam, ends, ratios: paired_transfer_probability(lam, ends, t_fixed),
    )
    estimate = math.pi / float(spectra(n, [delta_h])[0][0, n // 2 - 1])
    return TransferTriad(
        delta_h=delta_h, t_h=t_fixed, p_h=p_h, lambda_min_estimate=estimate
    )


def table1_sweep(delta: float, n_list: list[int]) -> list[SweepRow]:
    """First-peak triads across chain lengths at one fixed ratio.

    Each row is first_peak of that length: the highest peak of the
    window (0, 1.3*pi/lambda_min], not the earliest high one.  For an
    odd length lambda_min is the smallest nonzero eigenvalue, so the
    window is short and the row is an early, small peak, not the
    transfer the chain reaches later: at ratio 2.38, N = 5, 7, 9 give
    P = 0.0204, 5.6e-4, 6.0e-6, while the same curves reach 0.31,
    0.23, 0.19 by t <= 500.  Rows come back sorted by length.  A
    length whose peak window is numerically out of reach is flagged in
    its note and filled with NaN; the sweep continues.
    """
    if not n_list:
        raise ValidationError("n_list must not be empty")
    lengths = sorted(set(int(n) for n in n_list))

    def one_row(n: int) -> SweepRow:
        try:
            triad = first_peak(ChainSpec(n, delta))
        except HorizonError as exc:
            return SweepRow(
                n_sites=n, delta=delta, t_h1=math.nan, p_h1=math.nan,
                estimate=math.nan, note=str(exc),
            )
        return SweepRow(
            n_sites=n, delta=delta, t_h1=triad.t_h, p_h1=triad.p_h,
            estimate=triad.lambda_min_estimate,
        )

    return [one_row(n) for n in lengths]


def dwell_window(curve: TransferCurve, threshold: float) -> tuple[float, float] | None:
    """Contiguous time interval around the sampled peak with P >= threshold.

    Returns the (earliest, latest) sample times of the run of
    consecutive samples containing the global maximum, or None when
    even the peak stays below the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    probs = curve.probabilities
    peak = int(np.argmax(probs))
    if probs[peak] < threshold:
        return None
    left = peak
    while left > 0 and probs[left - 1] >= threshold:
        left -= 1
    right = peak
    while right < probs.size - 1 and probs[right + 1] >= threshold:
        right += 1
    return float(curve.times[left]), float(curve.times[right])
