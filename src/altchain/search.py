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
scores, which passes over a refused ratio: its spectrum fails its checks,
or its score is out of reach.  On chains of up to _LOOK_AHEAD_SITES
its golden-section polish solves ahead: one stacked solve holds every
ratio that golden section can evaluate in its next _LOOK_AHEAD steps,
and only the ratios it does evaluate are scored.  Every search returns
at least its own grid winner.  All searches are deterministic: grids
are fixed by the parameters alone and tie-breaks take the earliest
time (or smallest ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .chain import ChainSpec
from .dynamics import (
    check_horizon,
    paired_grid_probability,
    paired_transfer_probability,
    paired_transfer_slope,
)
from .errors import HorizonError, NumericError, ResourceError, ValidationError
from .roots import bisect
from .spectral import _masked_spectra, spectra

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
_MAX_GRID_POINTS = 100_000_000
# ratio grid steps at most; the default ranges take 500 or 1000
_MAX_RATIO_STEPS = 1_000_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the ratio polish solves the candidate points of its next _LOOK_AHEAD
# golden-section steps in one stack, 2^(k+1) - 1 ratios for k steps, on
# chains of up to _LOOK_AHEAD_SITES; on longer ones the 31 ratios cost
# more to solve than the calls they save, and it solves one at a time
_LOOK_AHEAD = 4
_LOOK_AHEAD_SITES = 32


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


def _golden_step(
    a: float, b: float, c: float, d: float, left: bool
) -> tuple[float, float, float, float]:
    """The bracket (a, b) and inner points (c, d) after one golden-section step.

    It keeps [a, d] when left, [c, b] otherwise, and takes one new inner
    point: c when left, d otherwise.
    """
    if left:
        return a, d, d - _INV_PHI * (d - a), c
    return c, b, d, c + _INV_PHI * (b - c)


def _golden_reach(
    a: float, b: float, c: float, d: float, xtol: float, steps: int
) -> list[float]:
    """Every point golden section can evaluate from (a, b, c, d) in its next steps.

    Both branches of each step are replayed by _golden_step; a path that
    ends within the steps contributes its final midpoint.
    """
    if not b - a > xtol:
        return [0.5 * (a + b)]
    if steps == 0:
        return []
    points = []
    for left in (True, False):
        bracket = _golden_step(a, b, c, d, left)
        points += [bracket[2 if left else 3], *_golden_reach(*bracket, xtol, steps - 1)]
    return points


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float,
    prefetch: Callable[[list[float]], None] | None = None, ahead: int = 0,
) -> tuple[float, float]:
    """Golden-section maximisation on [lo, hi] to width xtol.

    prefetch, if given, receives every point the search can evaluate
    within its next `ahead` steps (_golden_reach) whenever it is about
    to evaluate a point it has not passed on yet, so that f can read
    them from one batch; it changes no point the search takes.
    """
    passed: set[float] = set()

    def value(x: float) -> float:
        if prefetch is not None and x not in passed:
            reach = [c, d, *_golden_reach(a, b, c, d, xtol, ahead)]
            points = [p for p in dict.fromkeys(reach) if p not in passed]
            prefetch(points)
            passed.update(points)
        return f(x)

    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = value(c), value(d)
    while b - a > xtol:
        left = fc >= fd
        a, b, c, d = _golden_step(a, b, c, d, left)
        if left:
            fc, fd = value(c), fc
        else:
            fc, fd = fd, value(d)
    x = 0.5 * (a + b)
    return x, value(x)


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
    steps miss it by more.  A range of more than _MAX_RATIO_STEPS steps
    raises ResourceError before anything is allocated.
    """
    steps = (hi - lo) / step + 1e-9
    if steps > _MAX_RATIO_STEPS:
        raise ResourceError(
            f"ratio range [{lo:.6g}, {hi:.6g}] needs {steps:.3g} steps of {step:g} "
            f"(cap {_MAX_RATIO_STEPS})"
        )
    count = int(math.floor(steps))
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
    # check_horizon refuses lambda_min below ~1e-6 (lambda_max >= 1) and 0 (underflowed)
    window = _WINDOW_FACTOR * math.pi / lam_min if lam_min > 0.0 else math.inf
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


def _ratio_scores(
    n_sites: int, ratios: np.ndarray,
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """score of each ratio of a stack, from one solve; a ratio whose spectrum fails scores -inf."""
    lam, ends, ok = _masked_spectra(n_sites, ratios)
    if ok.all():
        return score(lam, ends, ratios)
    scores = np.full(ratios.size, -math.inf)
    scores[ok] = score(lam[ok], ends[ok], ratios[ok])
    return scores


def _ratio_search(
    n_sites: int, lo: float, hi: float, step: float, tol: float,
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """(ratio, P, (lam, ends)) of the best ratio in [lo, hi], never below the grid winner.

    score(lam, ends, ratios) maps a stack of spectra to one P per ratio.
    The grid takes its spectra in stacks of _GRID_CHUNK_ENTRIES / N^2
    ratios, one solve each; golden section refines within one step of
    its first best ratio, and the grid winner stands where that does not
    beat it (as at a range end, which golden section never evaluates).
    Up to _LOOK_AHEAD_SITES the polish solves ahead: each stack holds
    every ratio golden section can evaluate in its next _LOOK_AHEAD
    steps (the grid winner rides with the first), and only the ratios
    it does evaluate are scored, one row at a time; longer chains solve
    one ratio per stack.  A stacked row equals the solve of its ratio alone, so no
    ratio scores differently.  lam and ends are the spectrum of the
    returned ratio, as spectra gives it.  A ratio whose spectrum fails
    its checks (_masked_spectra), or that score gives -inf, is refused
    and no candidate; a range of refused ratios raises NumericError.
    """
    _validate_delta_range(lo, hi)
    grid = _ratio_grid(lo, hi, step)
    best, p_best = _first_argmax(
        lambda a, b: _ratio_scores(n_sites, grid[a:b], score),
        grid.size,
        max(1, _GRID_CHUNK_ENTRIES // (n_sites * n_sites)),
    )
    if not p_best >= 0.0:
        raise NumericError(f"refused every ratio of [{lo:.6g}, {hi:.6g}] at N={n_sites}")
    winner = float(grid[best])
    rows: dict[float, tuple[np.ndarray, np.ndarray, bool]] = {}

    def prefetch(points: list[float]) -> None:
        ratios = [p for p in dict.fromkeys([*points, winner]) if p not in rows]
        lam, ends, ok = _masked_spectra(n_sites, np.array(ratios))
        for i, ratio in enumerate(ratios):
            rows[ratio] = (lam[i:i + 1], ends[i:i + 1], bool(ok[i]))

    def polish(delta: float) -> float:
        lam, ends, ok = rows[delta]
        return float(score(lam, ends, np.array([delta]))[0]) if ok else -math.inf

    ahead = _LOOK_AHEAD if n_sites <= _LOOK_AHEAD_SITES else 0
    delta, p = _golden_max(
        polish, max(lo, winner - step), min(hi, winner + step), tol, prefetch, ahead
    )
    if not p > p_best:
        delta, p = winner, p_best
    lam, ends, _ = rows[delta]
    return delta, p, (lam[0], ends[0])


def optimize_delta(n_sites: int, delta_lo: float, delta_hi: float) -> TransferTriad:
    """Best first-peak probability over a ratio range, even chains.

    The ratio search (_ratio_search) scores each ratio by its
    first_peak p_h, on a 0.002-spaced grid refined to 1e-4, and returns
    first_peak of the winner; a ratio whose first_peak raises
    NumericError is refused.  The range must reach above the
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

    def peak(lam: np.ndarray, ends: np.ndarray, delta: float) -> float:
        try:
            return _spectrum_peak(lam, ends, float(delta)).p_h
        except NumericError:  # the peak window is out of reach: a refused ratio
            return -math.inf

    def peaks(*stack: np.ndarray) -> np.ndarray:
        return np.array([peak(*row) for row in zip(*stack)])

    delta_h, _, (lam, ends) = _ratio_search(
        n_sites, delta_lo, delta_hi, _DELTA_GRID, _DELTA_TOL, peaks
    )
    return _spectrum_peak(lam, ends, delta_h)


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
    delta_h, p_h, (lam, _) = _ratio_search(
        n, delta_lo, delta_hi, _FIXED_TIME_GRID, _FIXED_TIME_TOL,
        lambda lam, ends, ratios: paired_transfer_probability(lam, ends, t_fixed),
    )
    lam_min = float(lam[n // 2 - 1])
    estimate = math.pi / lam_min if lam_min > 0.0 else math.inf  # lambda_min underflowed
    return TransferTriad(delta_h=delta_h, t_h=t_fixed, p_h=p_h, lambda_min_estimate=estimate)


def table1_sweep(delta: float, n_list: list[int]) -> list[SweepRow]:
    """First-peak triads across chain lengths at one fixed ratio.

    Each row is first_peak of that length: the highest peak of the
    window (0, 1.3*pi/lambda_min], not the earliest high one.  For an
    odd length lambda_min is the smallest nonzero eigenvalue, so the
    window is short and the row is an early, small peak, not the
    transfer the chain reaches later: at ratio 2.38, N = 5, 7, 9 give
    P = 0.0204, 5.6e-4, 6.0e-6, while the same curves reach 0.31,
    0.23, 0.19 by t <= 500.  Rows come back sorted by length.  A
    length that first_peak refuses (NumericError: its spectrum fails
    its checks or its peak window is out of reach) is filled with NaN
    and its note holds the reason; the sweep continues.
    """
    if not n_list:
        raise ValidationError("n_list must not be empty")
    lengths = sorted(set(int(n) for n in n_list))

    def one_row(n: int) -> SweepRow:
        try:
            triad = first_peak(ChainSpec(n, delta))
        except NumericError as exc:  # HorizonError among them
            return SweepRow(
                n_sites=n, delta=delta, t_h1=math.nan, p_h1=math.nan,
                estimate=math.nan, note=str(exc),
            )
        return SweepRow(
            n_sites=n, delta=delta, t_h1=triad.t_h, p_h1=triad.p_h,
            estimate=triad.lambda_min_estimate,
        )

    return [one_row(n) for n in lengths]

