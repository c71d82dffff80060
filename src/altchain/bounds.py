"""Ceilings on the transfer probability of odd chains.

For odd N the end-to-end amplitude splits into an oscillating cosine
series F1 and the static zero-mode term F2.  With theta_j = 2 pi j/(N+1),

    r_j(delta) = (2 + 2 cos theta_j) / (delta + 1/delta + 2 cos theta_j)

and the cosine-sum identity  sum_j cos theta_j = 0  give the caps

    F1 <= Delta(delta) (N-1)/(N+1),  Delta = r_1 = max_j r_j  (delta >= 1),
    F2  = delta^((N-1)/2) (delta^2-1)/(delta^(N+1)-1) <= 2/(N+1),

so P never exceeds  P_cap = ((Delta (N-1) + 2)/(N+1))^2.  Parameters
are normalised to delta >= 1: inverting delta mirrors the chain, so
a ratio below 1 is a caller mix-up rather than a new regime.

Saturating the cap needs every cosine at an extreme simultaneously
and delta = 1; a three-site chain manages that exactly, longer odd
chains never do, which equality_feasible confirms empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import ValidationError

_EXTREME_TOL = 1e-9
# equality_feasible looks for a common extreme at times 0 < t0 <= this
_T_SEARCH = 1e4


@dataclass(frozen=True)
class BoundReport:
    """Probability ceilings of one odd chain."""

    n_sites: int
    delta: float
    r_values: np.ndarray
    delta_max: float
    f1_cap: float
    f2_value: float
    f2_cap: float
    p_bound: float

    def __post_init__(self) -> None:
        rs = np.asarray(self.r_values, dtype=float)
        rs.setflags(write=False)
        object.__setattr__(self, "r_values", rs)


def bound_report(spec: ChainSpec) -> BoundReport:
    """Evaluate the probability ceilings for an odd chain, delta >= 1."""
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"bound_report needs an odd chain, got N={n}")
    if delta < 1.0:
        raise ValidationError(
            f"delta={delta} is below 1; invert the ratio (the mirrored chain "
            f"with delta={1.0 / delta:.12g} has the same spectrum)"
        )
    m = (n - 1) // 2
    j = np.arange(1, m + 1)
    cos_theta = np.cos(2.0 * math.pi * j / (n + 1))
    r_values = (2.0 + 2.0 * cos_theta) / (delta + 1.0 / delta + 2.0 * cos_theta)
    delta_max = float(r_values[0])
    if abs(delta - 1.0) < 1e-8:
        f2_value = 2.0 / (n + 1)
    else:
        try:
            f2_value = delta ** m * (delta * delta - 1.0) / (delta ** (n + 1) - 1.0)
        except OverflowError:
            f2_value = 0.0
    return BoundReport(
        n_sites=n,
        delta=delta,
        r_values=r_values,
        delta_max=delta_max,
        f1_cap=delta_max * (n - 1) / (n + 1),
        f2_value=f2_value,
        f2_cap=2.0 / (n + 1),
        p_bound=((delta_max * (n - 1) + 2.0) / (n + 1)) ** 2,
    )


def equality_feasible(spec: ChainSpec) -> bool:
    """Can every cosine in the series hit an extreme at one moment?

    Checks for a time 0 < t0 <= 1e4 at which
    |cos(lambda_j t0 / 2)| >= 1 - 1e-9 for every positive frequency of
    a uniform odd chain (delta = 1).  Candidate times are anchored on
    the half-periods of the fastest frequency, because any solution
    must sit within its extreme window; the trivial window around
    t = 0, where every cosine is still near 1, does not count as a
    recurrence and is excluded.  Each remaining frequency contributes
    an interval around its own nearest extreme, and a solution exists
    exactly when the intervals intersect.

    A three-site chain has a single frequency, so every half-period
    works; numerical sweeps confirm the answer is negative for five
    and seven sites.
    """
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"equality_feasible needs an odd chain, got N={n}")
    if abs(delta - 1.0) > 1e-12:
        raise ValidationError(f"equality_feasible is defined at delta=1, got {delta}")

    m = (n - 1) // 2
    j = np.arange(1, m + 1)
    lam = np.sqrt(2.0 + 2.0 * np.cos(2.0 * math.pi * j / (n + 1)))
    # |cos(lam t/2)| >= 1 - tol within this distance of an extreme time
    widths = 2.0 * math.acos(1.0 - _EXTREME_TOL) / lam
    lam_fast = lam[0]
    periods = int(math.floor(_T_SEARCH * lam_fast / (2.0 * math.pi)))
    if periods < 1:
        return False
    anchors = 2.0 * math.pi * np.arange(1, periods + 1) / lam_fast
    lows = np.full(anchors.size, -np.inf)
    highs = np.full(anchors.size, np.inf)
    for freq, width in zip(lam, widths):
        nearest = (2.0 * math.pi / freq) * np.round(anchors * freq / (2.0 * math.pi))
        lows = np.maximum(lows, nearest - width)
        highs = np.minimum(highs, nearest + width)
    hits = np.nonzero((lows <= highs) & (highs > 0.0) & (lows <= _T_SEARCH))[0]
    for idx in hits:
        t0 = 0.5 * (max(lows[idx], 0.0) + min(highs[idx], _T_SEARCH))
        if np.min(np.abs(np.cos(0.5 * lam * t0))) >= 1.0 - _EXTREME_TOL:
            return True
    return False
