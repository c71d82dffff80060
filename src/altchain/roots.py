"""Bracketed scalar root finding for the transcendental spectrum equations.

Uniform scan for sign changes followed by plain bisection.  Bisection
converges unconditionally for a bracketed simple root, and at machine
resolution the residual of the smooth functions solved here sits far
below the 1e-12 acceptance band, so nothing fancier is warranted.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError


def bracket_sign_changes(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    samples: int,
) -> list[tuple[float, float]]:
    """Scan (lo, hi) on a uniform open grid and collect sign-change cells.

    The callable must accept an ndarray of points.  Samples landing
    exactly on a root count as a sign change with their right neighbour.
    """
    if samples < 2:
        raise NumericError("bracketing needs at least two interior samples")
    xs = np.linspace(lo, hi, samples + 2)[1:-1]
    vals = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite residual during bracketing scan")
    signs = np.sign(vals)
    # carry the previous nonzero sign across exact zeros
    for i in range(1, signs.size):
        if signs[i] == 0.0:
            signs[i] = -signs[i - 1] if signs[i - 1] != 0.0 else 0.0
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    return [(float(xs[i]), float(xs[i + 1])) for i in flips]


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisect a sign-changing interval until it can no longer be split.

    That is 1-2 ulp; residuals then sit orders of magnitude under 1e-12.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NumericError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 0.0:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer splittable in float64
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
