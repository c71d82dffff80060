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
the winning sample: first_peak is a scan (_peak_scan), then a polish
(_peak_polish).  A window of more than one chunk is scanned piece by
piece (_envelope_sample): an even chain's only where the envelope of
its series, 2 |c_min| sin(lambda_min t/2) + 2 sum |c_bulk|, plus a
margin for the scan's rounding, can reach the best sample so far (an
exact bound, as in Hansen, Jaumard and Lu 1992), an odd chain's whole
by the same piece loop; the sample it finds is the full scan's, to the
bit.  The polish is a safeguarded Newton iteration on dP/dt
(_slope_root).  Every search takes its spectra from spectra and P_N
from the paired series: the uniform time grid by angle addition
(paired_grid_probability), which only picks the winning sample, and
every reported value directly (paired_transfer_probability); a kept sample is re-evaluated over its
chunk of the grid.  The grid's offset table, the sines and cosines of
the first block's phases, is built once per scan and shared by all its
kernel calls; the ratios of a stack whose windows are one call each
(_peak_scans) have their offset and block-start tables built together,
one sin and one cos per bounded sub-stack, and each ratio then runs
only its products.  optimize_delta and
fixed_time_optimize are one ratio search (_ratio_search) under two
scores, which passes over a refused ratio: its spectrum fails its checks,
or its score is out of reach.  On chains of up to _LOOK_AHEAD_SITES
its golden-section polish solves ahead: one stacked solve holds every
ratio that golden section can evaluate in its next _LOOK_AHEAD steps,
and only the ratios it does evaluate are scored.  optimize_delta
makes one scan per ratio (_peak_scans), refused only by _peak_grid,
and polishes that scan; its grid polishes only the ratios that can
win: a ratio whose best sample plus a certified rise, (S1^2 + S2) h^2
for scan step h from the curvature bound of the series
(series_derivative_bounds; Breiman and Cutler 1993) plus a margin for
the scan's rounding, lies strictly below a p_h already polished is
skipped and scores its sample, which can neither win nor tie.  Every
search returns at least its own grid winner.  All searches are deterministic: grids
are fixed by the parameters alone and tie-breaks take the earliest
time (or smallest ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .chain import ChainSpec, check_sites
from .dynamics import (
    check_horizon,
    grid_angles,
    grid_block,
    grid_pieces,
    grid_starts,
    paired_grid_probability,
    paired_transfer_derivatives,
    paired_transfer_probability,
    series_derivative_bounds,
)
from .errors import HorizonError, NumericError, ResourceError, ValidationError
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
_EPS = float(np.finfo(float).eps)
# the ratio polish solves the candidate points of its next _LOOK_AHEAD
# golden-section steps in one stack, 2^(k+1) - 1 ratios for k steps, on
# chains of up to _LOOK_AHEAD_SITES; on longer ones the 31 ratios cost
# more to solve than the calls they save, and it solves one at a time
_LOOK_AHEAD = 4
_LOOK_AHEAD_SITES = 32
# the margin of a skip above its bound (an optimize_delta grid ratio's
# curvature bound, a scan piece's envelope): the angle-addition scan
# differs from the direct series by at most 0.15 eps * window * lambda_max
# (measured over N = 4..26 at ratios 1.5..3.5); the margin allows
# _SKIP_DEVIATION times that, plus _SKIP_MARGIN for the rounding of the
# bound and of the polished p_h
_SKIP_DEVIATION = 8.0
_SKIP_MARGIN = 1e-10


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


@dataclass(frozen=True)
class _PeakScan:
    """A first-peak window scan: P at (index + 1) * step, index < count; best is the highest.

    evaluated counts the samples the scan computed, count at most.
    """

    window: float
    step: float
    count: int
    best: int
    p_best: float
    evaluated: int


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
    maximum (earliest on exact ties), and solves dP/dt = 2 s s' = 0 by
    safeguarded Newton steps where it turns from + to - between the
    neighbouring samples.  Without that sign change (an odd chain whose
    P still rises at the window end) the best sample is kept, and p_h
    is never below it.  An earlier peak lower than the window maximum is
    not returned, even a high one.  The grid is evaluated by angle
    addition (paired_grid_probability), which only chooses the sample;
    a window that exceeds one chunk is scanned piece by piece
    (_envelope_sample): on an even chain only the pieces where the
    series' envelope can reach the best sample are evaluated, and the
    chosen sample is the same; an odd chain's are all evaluated.  A kept
    sample's p_h comes from the direct series over its chunk of the
    grid.  A window too long for the phases to keep digits
    (check_horizon) raises HorizonError.
    """
    lam, ends = spectra(spec.n_sites, [spec.delta])
    return _spectrum_peak(lam[0], ends[0], spec.delta)


def _spectrum_peak(lam: np.ndarray, ends: np.ndarray, delta: float) -> TransferTriad:
    """first_peak of the chain whose levels and end products are given: scan, then polish."""
    return _peak_polish(lam, ends, delta, _peak_scan(lam, ends))


def _peak_scan(lam: np.ndarray, ends: np.ndarray) -> _PeakScan:
    """The window scan of first_peak: its grid and its best sample; a stack of one of _peak_scans.

    A window beyond the phase horizon (check_horizon), or of more than
    _MAX_GRID_POINTS samples, raises HorizonError.
    """
    (scan,) = _peak_scans(lam[None], ends[None])
    if isinstance(scan, NumericError):
        raise scan
    return scan


def _peak_grid(lam: np.ndarray) -> tuple[float, float, int]:
    """(window, step, count) of first_peak's scan of one chain, or HorizonError as _peak_scan."""
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
    return window, window / count, count


def _peak_scans(lam: np.ndarray, ends: np.ndarray) -> list[_PeakScan | NumericError]:
    """The window scan of first_peak of each chain of a stack, or the NumericError that refuses it.

    A window of one _TIME_CHUNK or less is one kernel call, whose offset
    and block-start tables come with those of the stack's other such
    windows from one grid_angles call, one sin and one cos, per
    sub-stack of bounded size (_one_call_samples).  A longer window
    is scanned piece by piece from one offset table (_envelope_sample):
    an even chain's only where its envelope can reach the best sample,
    an odd chain's whole by the same piece loop.  Every scan finds what
    the full scan of its window finds, to the bit.  This is the one
    place a first-peak window is scanned, and _peak_grid the one place
    it is refused.
    """
    grids: list[tuple[float, float, int] | NumericError] = []
    for row in lam:
        try:
            grids.append(_peak_grid(row))
        except NumericError as exc:
            grids.append(exc)
    found = _one_call_samples(lam, ends, grids)

    def scan(i: int) -> _PeakScan | NumericError:
        grid = grids[i]
        if isinstance(grid, NumericError):
            return grid
        window, step, count = grid
        if i in found:
            return _PeakScan(window, step, count, *found[i])
        return _PeakScan(window, step, count, *_envelope_sample(lam[i], ends[i], step, count))

    return [scan(i) for i in range(len(grids))]


def _one_call_samples(
    lam: np.ndarray, ends: np.ndarray, grids: list[tuple[float, float, int] | NumericError]
) -> dict[int, tuple[int, float, int]]:
    """(best, P, count) of each stack row whose grid is one kernel call, by row.

    The rows share one table layout, that of the largest count in the
    stack: its offsets k = 0..B-1 and its block starts from 1 on, which
    begin with every shorter window's own.  The tables are built for
    sub-stacks of at most _GRID_CHUNK_ENTRIES phases, one grid_angles
    call each.
    """
    rows = [i for i, grid in enumerate(grids) if isinstance(grid, tuple) and grid[2] <= _TIME_CHUNK]
    if not rows:
        return {}
    top = max(grids[i][2] for i in rows)
    block = grid_block(top)
    index = np.concatenate([np.arange(block), grid_starts(1, top)])
    size = max(1, _GRID_CHUNK_ENTRIES // (index.size * (lam.shape[-1] // 2)))
    found = {}
    for a in range(0, len(rows), size):
        sub = rows[a:a + size]
        table = grid_angles(lam.take(sub, axis=0), np.array([grids[i][1] for i in sub]), index)
        for j, i in enumerate(sub):
            count = grids[i][2]
            probs = paired_grid_probability(
                lam[i], ends[i], table[:, j, :block], table[:, j, block:], count
            )
            best = int(probs.argmax())
            found[i] = (best, float(probs[best]), count)
    return found


def _peak_polish(lam: np.ndarray, ends: np.ndarray, delta: float, scan: _PeakScan) -> TransferTriad:
    """The peak next to a scan's best sample: the root of dP/dt there, or the sample itself.

    The root is sought within one step h of the sample (_slope_root);
    it is kept where P there is not below the sample, so p_h lies at
    most (S1^2 + S2) h^2 above the sample, the rise optimize_delta's
    grid relies on to skip a ratio.
    """
    estimate = math.pi / float(lam[lam.size // 2 - 1])
    step, best, p_best = scan.step, scan.best, scan.p_best
    t_best = (best + 1) * step
    root = _slope_root(lam, ends, max(t_best - step, step * 1e-3), min(t_best + step, scan.window))
    if root is not None:
        p_root = paired_transfer_probability(lam, ends, root)
        if p_root >= p_best:
            return TransferTriad(delta_h=delta, t_h=root, p_h=p_root, lambda_min_estimate=estimate)
    # keep the best sample, with the digits of the direct series over its chunk
    start = best - best % _TIME_CHUNK
    times = (np.arange(start, min(start + _TIME_CHUNK, scan.count)) + 1) * step
    probs = paired_transfer_probability(lam, ends, times)
    k = int(np.argmax(probs))
    return TransferTriad(
        delta_h=delta, t_h=float(times[k]), p_h=float(probs[k]), lambda_min_estimate=estimate
    )


def _slope_root(lam: np.ndarray, ends: np.ndarray, lo: float, hi: float) -> float | None:
    """The root of dP/dt in [lo, hi] where it turns from + to -, or None without that sign change.

    A safeguarded Newton iteration on the bracket, with d^2P/dt^2 from
    paired_transfer_derivatives, starting at the secant point of its
    ends.  Each evaluation shrinks the bracket to the side the slope
    points to; where the curvature is not negative, or the Newton step
    would leave the bracket, the midpoint is taken instead.  Newton's
    error after a step dt is about lambda_max * dt^2, so it stops on the
    step once that lies below an ulp of t (at most two more than the
    bracket's two ends on the first-peak chains), or once the bracket
    can no longer be split; the root lies within two ulp of the one
    bisection finds.
    """
    f_lo, f_hi = (paired_transfer_derivatives(lam, ends, t)[0] for t in (lo, hi))
    if not f_lo > 0.0 > f_hi:
        return None
    t = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    while True:
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                return t
        slope, curvature = paired_transfer_derivatives(lam, ends, t)
        if slope == 0.0:
            return t
        lo, hi = (t, hi) if slope > 0.0 else (lo, t)
        step = -slope / curvature if curvature < 0.0 else math.inf
        if float(lam[0]) * step * step <= math.ulp(t):
            return min(max(t + step, lo), hi)
        t += step


def _grid_probability(
    lam: np.ndarray, ends: np.ndarray, step: float,
    offsets: np.ndarray, start: int, stop: int,
) -> np.ndarray:
    """P(k * step) for k = start..stop-1 of one chain, from its scan's offset table."""
    starts = grid_angles(lam, step, grid_starts(start, stop - start))
    return paired_grid_probability(lam, ends, offsets, starts, stop - start)


def _envelope_sample(
    lam: np.ndarray, ends: np.ndarray, step: float, count: int
) -> tuple[int, float, int]:
    """(index, P) of the highest sample of a window, earliest on ties; and the samples scanned.

    With c_min the end product of lambda_min and B = 2 sum |c_j| over
    the other positive levels, the series obeys
    |s(t)| <= 2 |c_min| sin(lambda_min t/2) + B on the window, which
    ends before 2 pi/lambda_min; the envelope peaks at pi/lambda_min.
    The window is cut into chunks of _TIME_CHUNK samples and those into
    grid_pieces, so that a piece scanned alone keeps the bits of its
    chunk's kernel call.  An even chain's pieces are scanned in
    descending order of the square of their envelope's largest value
    plus a margin (_SKIP_DEVIATION times the kernel's deviation from the
    series, and _SKIP_MARGIN), the one around pi/lambda_min first, until
    that bound lies strictly below the best sample so far.  Every
    sample left out lies below it, so the winner and the earliest-index
    rule are those of the full scan.  No envelope bounds an odd chain's
    series, so its bounds are +inf and every piece is scanned, in
    order.  The pieces share one offset table.
    """
    half = lam.size // 2
    lam_min = float(lam[half - 1])
    edge, bulk = 2.0 * abs(float(ends[half - 1])), 2.0 * float(np.abs(ends[:half - 1]).sum())
    cuts = [
        start + cut
        for start in range(0, count, _TIME_CHUNK)
        for cut in grid_pieces(lam.size, min(_TIME_CHUNK, count - start))[:-1]
    ]
    lo, hi = np.array(cuts), np.array([*cuts[1:], count])
    nearest = np.clip(math.pi / lam_min, (lo + 1) * step, hi * step)
    margin = _SKIP_DEVIATION * _EPS * count * step * float(lam[0]) + _SKIP_MARGIN
    bounds = (edge * np.sin(0.5 * lam_min * nearest) + bulk) ** 2 + margin
    if lam.size % 2:  # no envelope bounds an odd chain's series: every piece, in order
        bounds[:] = math.inf
    offsets = grid_angles(lam, step, np.arange(grid_block(count)))
    best, p_best, evaluated = 0, -1.0, 0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < p_best:
            break
        probs = _grid_probability(lam, ends, step, offsets, int(lo[i]) + 1, int(hi[i]) + 1)
        k = int(np.argmax(probs))
        evaluated += probs.size
        if probs[k] > p_best or (probs[k] == p_best and lo[i] + k < best):
            best, p_best = int(lo[i]) + k, float(probs[k])
    return best, p_best, evaluated


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
    refusals: Sequence[str] = (),
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
    and no candidate; a range of refused ratios raises NumericError,
    which names the first ratio's reason: its failed checks, or else
    the first of refusals, where score records why it gave -inf.
    """
    _validate_delta_range(lo, hi)
    grid = _ratio_grid(lo, hi, step)
    best, p_best = _first_argmax(
        lambda a, b: _ratio_scores(n_sites, grid[a:b], score),
        grid.size,
        max(1, _GRID_CHUNK_ENTRIES // (n_sites * n_sites)),
    )
    if not p_best >= 0.0:
        reason = refusals[0] if refusals else "its score is out of reach"
        if not _masked_spectra(n_sites, grid[:1])[2][0]:
            reason = f"the spectrum at delta={lo:.6g} fails the checks of spectra"
        raise NumericError(f"refused every ratio of [{lo:.6g}, {hi:.6g}] at N={n_sites}: {reason}")
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
    NumericError is refused, and a range refused whole names the first
    reason.  Each ratio is scanned once (_peak_scans) and refused only
    by _peak_grid; the grid polishes only the ratios that can win
    (_first_peak_scores), each from its own scan, and a ratio whose best
    sample plus its certified rise (S1^2 + S2) h^2 + margin lies
    strictly below a p_h already polished in its stack is not polished
    and scores that sample, so the search returns what polishing every
    ratio returns, to the bit.  The range must reach above the
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

    refusals: list[str] = []
    delta_h, _, (lam, ends) = _ratio_search(
        n_sites, delta_lo, delta_hi, _DELTA_GRID, _DELTA_TOL,
        partial(_first_peak_scores, refusals=refusals), refusals,
    )
    return _spectrum_peak(lam, ends, delta_h)


def _first_peak_scores(
    lam: np.ndarray, ends: np.ndarray, ratios: np.ndarray, refusals: list[str]
) -> np.ndarray:
    """optimize_delta's score of a stack: each ratio's first_peak p_h, or a value that cannot win.

    Every ratio is scanned once (_peak_scans, which builds the tables of
    the stack's one-call windows at once); one whose scan is refused
    (NumericError, from _peak_grid) scores -inf, and its reason joins
    refusals, in stack order.  The others are polished in descending
    order of their best sample, each from its own scan (_peak_polish,
    which raises nothing).  A ratio is skipped when its best sample
    plus its rise lies strictly below the highest p_h polished so far;
    it scores that sample, strictly below the stack's
    winner, so the stack's best score and its first index are those of
    polishing every ratio.  The rise is certified: the polish keeps the
    sample or returns the root of dP/dt within one scan step h of it,
    where P' = 0, so P there exceeds the sample by at most
    max|P''| h^2 / 2 <= (S1^2 + S2) h^2 (series_derivative_bounds).
    The margin adds _SKIP_DEVIATION times the scan's deviation from the
    direct series, and _SKIP_MARGIN.  A one-ratio stack, as golden
    section scores, takes the same path: with nothing polished yet,
    nothing is skipped.
    """
    scans = _peak_scans(lam, ends)
    refusals += [str(scan) for scan in scans if isinstance(scan, NumericError)]
    scores = np.array([
        -math.inf if isinstance(scan, NumericError) else scan.p_best for scan in scans
    ])
    s1, s2 = series_derivative_bounds(lam, ends)
    top = -math.inf
    for i in np.argsort(-scores, kind="stable"):
        scan = scans[i]
        if isinstance(scan, NumericError):
            break
        deviation = _SKIP_DEVIATION * _EPS * scan.window * float(lam[i, 0])
        rise = (s1[i] ** 2 + s2[i]) * scan.step**2 + deviation + _SKIP_MARGIN
        if scan.p_best + rise < top:
            continue
        scores[i] = _peak_polish(lam[i], ends[i], float(ratios[i]), scan).p_h
        top = max(top, scores[i])
    return scores


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
    and its note holds the reason; the sweep continues.  A length above
    chain.MAX_SITES refuses the whole sweep with ResourceError (check_sites)
    before any row.
    """
    if not n_list:
        raise ValidationError("n_list must not be empty")
    lengths = sorted(set(int(n) for n in n_list))
    for n in lengths:
        check_sites(n)

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

