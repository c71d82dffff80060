"""Peak location and parameter optimisation for the transfer probability.

The slowest spectral frequency sets the natural time scale: the high
transfer peaks of an even chain cluster around pi / lambda_min, where
lambda_min is the smallest positive eigenvalue (the hyperbolic pair).
The peak search scans the window (0, 1.3*pi/lambda_min] on a grid
dense enough to resolve the fastest beat and takes the highest sample
of the whole window, not the earliest peak above some level.  An
earlier, lower peak is passed over: 16 sites at ratio 2.380 peak at
P = 0.901 near 0.85*pi/lambda_min, but the search returns the
P = 0.915 peak at 1.14*pi/lambda_min.  The peak time is then the root of dP/dt
next to the winning sample, by a safeguarded Newton iteration
(_peak_polish, _slope_root).  Every scan, of one chain or of a stack,
takes one path whose unit is the coarse interval of m grid samples:
nine samples near pi / lambda_min bound the stack's winner from below,
an analytic envelope of the series leaves out the times that cannot
reach that bound, a coarse pass by angle addition bounds each interval
of the rest by its end samples plus the curvature bound of the series
(series_bounds; Breiman and Cutler 1993, as in Hansen, Jaumard and Lu
1992; _peak_windows), and the fine scan evaluates the
intervals in descending order of their bounds until the bound lies
below its best sample (_window_scan).  Its samples, the seeds and the
polished values all come from paired_transfer_probability, whose bits
do not depend on the batch, so the scan finds the full scan's sample,
to the bit, and the polish compares values of one series.
optimize_delta and fixed_time_optimize are one ratio search
(_ratio_search) under two scores, which passes over a refused ratio:
its spectrum fails its checks, or its score is out of reach.  On chains
of up to _LOOK_AHEAD_SITES its golden-section polish solves ahead: one
stacked solve holds every ratio that golden section can evaluate in its
next _LOOK_AHEAD steps, and only the ratios it does evaluate are
scored.  optimize_delta's score scans and polishes only the ratios that
can win (_first_peak_scores), no ratio twice, and first_peak is its
stack of one.  Every search returns at least its own grid winner.  All
searches are deterministic: grids are fixed by the parameters alone and
tie-breaks take the earliest time (or smallest ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chain import ChainSpec, check_sites
from .dynamics import (
    check_horizon,
    paired_grid_probability,
    paired_transfer_derivatives,
    paired_transfer_probability,
    rounding_bound,
    series_bounds,
)
from .errors import HorizonError, NumericError, ResourceError, ValidationError
from .spectral import _masked_spectra, spectra

_WINDOW_FACTOR = 1.3
_GRID_STEP_CAP = 0.01
_FAST_SAMPLES_PER_HALF_PERIOD = 50
_DELTA_GRID = 0.002
_DELTA_TOL = 1e-4
_FIXED_TIME_GRID = 0.001
_FIXED_TIME_TOL = 1e-6
# the ratio grids take at most this / N^2 ratios per stacked solve, and a
# peak scan's kernel calls at most this many samples (coarse) or phases
# (fine), which bounds their memory on wide ratio ranges and long windows
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
# grid samples per coarse interval on windows of up to _LONG_WINDOW samples and beyond
_COARSE_STRIDE = 4
_COARSE_LONG_STRIDE = 32
_LONG_WINDOW = 1 << 16
# the times of the samples that bound a stack's winner, in pi / lambda_min
_SEED_FRACTIONS = np.linspace(0.95, 1.05, 9)


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


class _PeakScan(NamedTuple):
    """A first-peak window scan: P at (index + 1) * step, index < count; best is the highest.

    evaluated counts the fine samples of the intervals it evaluated.
    """

    window: float
    step: float
    count: int
    best: int
    p_best: float
    evaluated: int


class _PeakWindow(NamedTuple):
    """A _PeakScan's grid before the fine scan, with the coarse intervals that can hold the winner.

    Coarse interval j holds the samples with index // stride == j;
    intervals lists, ascending, those whose bound (in bounds) reaches
    the row's floor, and the others hold no sample that does.  top is
    the highest of the row's bounds and of the level its envelope gate
    leaves out, and rise how far the polish can lift p_h above the best
    sample.
    """

    window: float
    step: float
    count: int
    stride: int
    intervals: np.ndarray
    bounds: np.ndarray
    floor: float
    top: float
    rise: float


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
    not returned, even a high one.  It is the stack of one of
    _first_peak_scores, and raises the NumericError it records: a
    window too long for the phases to keep digits (check_horizon)
    raises HorizonError.
    """
    lam, ends = spectra(spec.n_sites, [spec.delta])
    refusals: list[NumericError] = []
    triads: dict[float, TransferTriad] = {}
    _first_peak_scores(lam, ends, np.array([spec.delta]), refusals, triads)
    if refusals:
        raise refusals[0]
    return triads[spec.delta]


def _peak_grid(lam: np.ndarray) -> tuple[float, float, int]:
    """(window, step, count) of one chain's first-peak scan; HorizonError past horizon or cap."""
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


def _peak_windows(lam: np.ndarray, ends: np.ndarray) -> list[_PeakWindow | NumericError]:
    """Each chain's first-peak window of a stack, or the NumericError of _peak_grid refusing it.

    The windows come bounded by one coarse pass over the stack
    (_coarse_bounds).
    """
    grids: list[tuple[float, float, int] | NumericError] = []
    for row in lam:
        try:
            grids.append(_peak_grid(row))
        except NumericError as exc:
            grids.append(exc)
    rows = [i for i, grid in enumerate(grids) if not isinstance(grid, NumericError)]
    windows: list[_PeakWindow | NumericError] = list(grids)  # type: ignore[arg-type]
    if rows:
        bounded = _coarse_bounds(lam[rows], ends[rows], [grids[i] for i in rows])
        for i, window in zip(rows, bounded):
            windows[i] = window
    return windows


def _envelope_runs(
    c0: float, a: float, b: float, level: float, even: bool
) -> list[tuple[float, float]]:
    """The runs of phases lambda_min t / 2 in [0, pi) where the envelope reaches level.

    The envelope is (c0 + a |f(lambda_min t / 2)| + b)^2 (series_bounds).
    The window's phases stay below pi: one run on an even chain, around
    pi / 2, and at most two on an odd one, from 0 and to the window end.
    """
    amount = math.sqrt(max(level, 0.0)) - c0 - b
    if amount <= 0.0:
        return [(0.0, math.inf)]
    if not amount <= a:
        return []
    angle = math.asin(amount / a)
    if even:
        return [(angle, math.pi - angle)]
    return [(0.0, 0.5 * math.pi - angle), (0.5 * math.pi + angle, math.inf)]


def _coarse_bounds(
    lam: np.ndarray, ends: np.ndarray, grids: list[tuple[float, float, int]]
) -> list[_PeakWindow]:
    """The windows of a stack, each with the coarse intervals that can hold the stack's winner.

    L, a lower bound on the stack's winner, is the highest of nine
    samples of each row within 5 % of pi / lambda_min; a stack of one
    short window takes none, as it could only save coarse samples of
    its one kernel call.  A row needs only the samples that reach its
    floor, max(its own nine, L - its rise): below that it cannot win.
    Either kernel's P lies within E of the series up to the last coarse
    sample, m steps past the window at most (rounding_bound).  The
    coarse pass samples P at every m-th grid point of the intervals
    where the envelope reaches the floor less E (_envelope_runs), by
    angle addition in spans of at most _GRID_CHUNK_ENTRIES samples
    (_coarse_calls).  As |P''| <= 2 (S1^2 + S2), P between two coarse
    samples exceeds the larger by at most (S1^2 + S2) (m h)^2 / 4, which
    an interval's bound adds, with 2E; a coarse sample less 2E bounds a
    fine sample from below, and raises the floor of its span.
    """
    sites = lam.shape[-1]
    _, step, count = np.array(grids).T
    lam_min = lam[:, sites // 2 - 1]
    if len(grids) > 1 or count[0] > _LONG_WINDOW:
        seeds = np.rint(math.pi / (lam_min * step)[:, None] * _SEED_FRACTIONS)
        seeds = np.minimum(np.maximum(seeds, 1.0), count[:, None]) * step[:, None]
        own = paired_transfer_probability(lam, ends, seeds).max(axis=1).tolist()
    else:
        own = [-math.inf]
    best = max(own)
    terms = (x.tolist() for x in series_bounds(lam, ends))
    rows = zip(step.tolist(), count.tolist(), lam_min.tolist(), *terms, own)
    strides, guards, slack, floor, top, rise, segments = [], [], [], [], [], [], []
    for i, (h, n, lam_low, c0, a, b, s1, s2, seed) in enumerate(rows):
        m = _COARSE_LONG_STRIDE if n > _LONG_WINDOW else _COARSE_STRIDE
        curvature, error = s1 * s1 + s2, rounding_bound(sites, c0 + a + b, s1, (n + m) * h)
        strides.append(m)
        guards.append(2.0 * error)
        rise.append(curvature * h * h + 2.0 * error)
        floor.append(max(seed, best - rise[-1]))
        top.append(floor[-1] - error)  # the envelope's level
        slack.append(curvature * (m * h) ** 2 / 4 + guards[-1])
        # interval j, samples j*m .. j*m + m - 1, spans the phases j * width .. (j + 1) * width
        width, last = 0.5 * lam_low * m * h, int(n - 1) // m
        for lo, hi in _envelope_runs(c0, a, b, top[-1], sites % 2 == 0):
            first, stop = max(0, math.ceil(lo / width) - 1), int(min(hi / width, last))
            if first <= stop:
                segments.append((i, first, stop))
    steps, slacks = np.array(strides) * step, np.array(slack)
    hits = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0),)]
    for spans in _coarse_calls(segments):
        row, first, size = np.array(spans).T
        points = int(size.max()) + 1
        samples = paired_grid_probability(lam[row], ends[row], steps[row], first, points)
        left = samples[:, :-1]  # the first point of each interval, inside the window
        bounds = np.maximum(left, samples[:, 1:])
        bounds += slacks[row, None]
        if len(spans) > 1:  # past a shorter span
            pad = np.arange(points - 1) >= size[:, None]
            bounds[pad] = left[pad] = -math.inf
        cut = []
        for i, hi, lo in zip(row.tolist(), bounds.max(axis=1).tolist(), left.max(axis=1).tolist()):
            top[i] = max(top[i], hi)
            cut.append(max(floor[i], lo - guards[i]))
        hit = np.flatnonzero(bounds >= np.array(cut)[:, None])
        span, offset = np.divmod(hit, points - 1)
        hits.append((row[span], first[span] + offset, bounds.ravel()[hit]))
    where, intervals, bounds = (np.concatenate(column) for column in zip(*hits))  # row order
    edges = np.searchsorted(where, np.arange(len(grids) + 1)).tolist()
    return [
        _PeakWindow(*grid, m, intervals[p:q], bounds[p:q], *values)
        for grid, m, p, q, *values in zip(grids, strides, edges, edges[1:], floor, top, rise)
    ]


def _coarse_calls(segments: list[tuple[int, int, int]]) -> list[list[tuple[int, int, int]]]:
    """The coarse pass's kernel calls: (row, first interval, intervals) of each span.

    A run becomes spans of at most _GRID_CHUNK_ENTRIES intervals, and a
    call's spans, in stack order and padded to its longest, as many samples.
    """
    calls: list[list[tuple[int, int, int]]] = [[]]
    longest = 0
    for row, first, last in segments:
        for start in range(first, last + 1, _GRID_CHUNK_ENTRIES):
            size = min(_GRID_CHUNK_ENTRIES, last + 1 - start)
            longest = max(longest, size)
            if calls[-1] and (len(calls[-1]) + 1) * (longest + 1) > _GRID_CHUNK_ENTRIES:
                calls.append([])
                longest = size
            calls[-1].append((row, start, size))
    return calls if calls[-1] else []


def _peak_polish(lam: np.ndarray, ends: np.ndarray, delta: float, scan: _PeakScan) -> TransferTriad:
    """The peak next to a scan's best sample: the root of dP/dt there, or the sample itself.

    The root is sought within one step h of the sample (_slope_root);
    it is kept where P there is not below the sample, so p_h lies at
    most (S1^2 + S2) h^2 above the sample, plus twice rounding_bound:
    the rise optimize_delta's grid relies on to skip a ratio.
    """
    estimate = math.pi / float(lam[lam.size // 2 - 1])
    step, best, p_best = scan.step, scan.best, scan.p_best
    t_best = (best + 1) * step
    root = _slope_root(lam, ends, max(t_best - step, step * 1e-3), min(t_best + step, scan.window))
    if root is not None:
        p_root = paired_transfer_probability(lam, ends, root)
        if p_root >= p_best:
            return TransferTriad(delta_h=delta, t_h=root, p_h=p_root, lambda_min_estimate=estimate)
    return TransferTriad(delta_h=delta, t_h=t_best, p_h=p_best, lambda_min_estimate=estimate)


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


def _window_scan(lam: np.ndarray, ends: np.ndarray, window: _PeakWindow) -> _PeakScan:
    """The fine scan of a window: its highest sample, earliest on ties.

    The coarse intervals are evaluated in batches of
    max(1, _GRID_CHUNK_ENTRIES // (m N)) intervals of m samples, the
    memory cap of a kernel call, in descending order of their bounds
    (sorted only where they fill more than one batch), until the next
    bound lies strictly below the best sample so far.  A sample has the
    bits of the full scan, so the winner is its, to the bit.
    """
    stride, intervals, bounds = window.stride, window.intervals, window.bounds
    size = max(1, _GRID_CHUNK_ENTRIES // (stride * lam.size))
    ordered = intervals.size > size  # one batch needs no order
    if ordered:
        order = np.argsort(-bounds, kind="stable")
        intervals, bounds = intervals[order], bounds[order]
    best, p_best, evaluated, done = 0, -1.0, 0, 0
    while done < intervals.size and bounds[done] >= p_best:
        batch = np.sort(intervals[done:done + size]) if ordered else intervals
        index = (batch[:, None] * stride + np.arange(1, stride + 1)).ravel()  # index + 1
        spill = int(index[-1]) - window.count  # the last interval may end past the window
        if spill > 0:
            index = index[:-spill]
        done += size
        probs = paired_transfer_probability(lam, ends, index * window.step)
        evaluated += index.size
        k = int(np.argmax(probs))  # index ascends: the earliest of the highest
        if probs[k] > p_best or (probs[k] == p_best and index[k] <= best):
            best, p_best = int(index[k]) - 1, float(probs[k])
    return _PeakScan(window.window, window.step, window.count, best, p_best, evaluated)


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
    scores = np.full(ratios.size, -math.inf)
    scores[ok] = score(lam[ok], ends[ok], ratios[ok])
    return scores


def _ratio_search(
    n_sites: int, lo: float, hi: float, step: float, tol: float,
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    refusals: Sequence[NumericError] = (),
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """(ratio, P, (lam, ends)) of the best ratio in [lo, hi], never below the grid winner.

    score(lam, ends, ratios) maps a stack of spectra to one P per ratio.
    The grid takes its spectra in stacks of _GRID_CHUNK_ENTRIES / N^2
    ratios, one solve each; golden section refines within one step of
    its first best ratio, and the grid winner stands where that does not
    beat it (as at a range end, which golden section never evaluates).
    Up to _LOOK_AHEAD_SITES the polish solves ahead: each stack, kept
    whole, holds every ratio golden section can evaluate in its next
    _LOOK_AHEAD steps (the grid winner rides with the first), and only
    the ratios it evaluates are cut from it and scored; longer chains
    solve one ratio per stack.  A stacked row equals the solve of its
    ratio alone, so no ratio scores differently.  lam and ends are the
    spectrum of the returned ratio, as spectra gives it.  A ratio whose
    spectrum fails its checks (_masked_spectra), or that score gives
    -inf, is refused; a range of refused ratios raises NumericError,
    which names the first ratio's reason: its failed checks, or else
    the first of refusals, where score records why it gave -inf.
    """
    _validate_delta_range(lo, hi)
    grid = _ratio_grid(lo, hi, step)
    chunk = max(1, _GRID_CHUNK_ENTRIES // (n_sites * n_sites))
    best, p_best = 0, -1.0
    for start in range(0, grid.size, chunk):
        scores = _ratio_scores(n_sites, grid[start:start + chunk], score)
        k = int(np.argmax(scores))  # the first of the highest
        if scores[k] > p_best:
            best, p_best = start + k, float(scores[k])
    if not p_best >= 0.0:
        reason = str(refusals[0]) if refusals else "its score is out of reach"
        if not _masked_spectra(n_sites, grid[:1])[2][0]:
            reason = f"the spectrum at delta={lo:.6g} fails the checks of spectra"
        raise NumericError(f"refused every ratio of [{lo:.6g}, {hi:.6g}] at N={n_sites}: {reason}")
    winner = float(grid[best])
    rows: dict[float, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]] = {}  # (stack, row)

    def prefetch(points: list[float]) -> None:
        ratios = [p for p in dict.fromkeys([*points, winner]) if p not in rows]
        stack = _masked_spectra(n_sites, np.array(ratios))
        rows.update((ratio, (stack, i)) for i, ratio in enumerate(ratios))

    def polish(delta: float) -> float:
        (lam, ends, ok), i = rows[delta]
        row = slice(i, i + 1)
        return float(score(lam[row], ends[row], np.array([delta]))[0]) if ok[i] else -math.inf

    ahead = _LOOK_AHEAD if n_sites <= _LOOK_AHEAD_SITES else 0
    delta, p = _golden_max(
        polish, max(lo, winner - step), min(hi, winner + step), tol, prefetch, ahead
    )
    if not p > p_best:
        delta, p = winner, p_best
    (lam, ends, _), i = rows[delta]
    return delta, p, (lam[i], ends[i])


def optimize_delta(n_sites: int, delta_lo: float, delta_hi: float) -> TransferTriad:
    """Best first-peak probability over a ratio range, even chains.

    The ratio search (_ratio_search) scores each ratio by its
    first_peak p_h, on a 0.002-spaced grid refined to 1e-4, and returns
    first_peak of the winner, as its score polished it; a ratio whose
    first_peak raises NumericError is refused, and a range refused
    whole names the first reason.  No ratio is scanned twice, and the
    grid scans and polishes only the ratios that can win
    (_first_peak_scores), so the search returns what polishing every
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

    refusals: list[NumericError] = []
    triads: dict[float, TransferTriad] = {}
    delta_h, _, _ = _ratio_search(
        n_sites, delta_lo, delta_hi, _DELTA_GRID, _DELTA_TOL,
        partial(_first_peak_scores, refusals=refusals, triads=triads), refusals,
    )
    return triads[delta_h]


def _first_peak_scores(
    lam: np.ndarray, ends: np.ndarray, ratios: np.ndarray,
    refusals: list[NumericError], triads: dict[float, TransferTriad],
) -> np.ndarray:
    """optimize_delta's score of a stack: each ratio's first_peak p_h, or a value that cannot win.

    Every window is bounded once (_peak_windows); one refused by
    _peak_grid scores -inf, and its NumericError joins refusals, in
    stack order.  The others are scanned and polished in descending
    order of their reach, top plus rise, while it is not below the
    highest p_h polished so far; each triad of a full scan's sample
    joins triads.  A ratio left out scores its top, below the stack's
    winner, so the best score and its first index are those of polishing
    every ratio.  The rise is certified: the polish keeps the best
    sample or returns the root of dP/dt within one step h of it, where P
    exceeds the sample by at most (S1^2 + S2) h^2, plus 2E (_coarse_bounds).
    """
    windows = _peak_windows(lam, ends)
    refusals += [window for window in windows if isinstance(window, NumericError)]
    scores = [w.top if isinstance(w, _PeakWindow) else -math.inf for w in windows]
    reach = [w.top + w.rise if isinstance(w, _PeakWindow) else -math.inf for w in windows]
    top = -math.inf
    for i in sorted(range(len(windows)), key=lambda i: -reach[i]):
        window = windows[i]
        if isinstance(window, NumericError) or reach[i] < top:
            break
        if not window.intervals.size:
            continue
        scan = _window_scan(lam[i], ends[i], window)
        triad = _peak_polish(lam[i], ends[i], float(ratios[i]), scan)
        if scan.p_best >= window.floor:
            triads[triad.delta_h] = triad
        scores[i] = triad.p_h
        top = max(top, scores[i])
    return np.array(scores)


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

