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
and delta = 1; a three-site chain, with its single frequency, manages
that exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import ResourceError, ValidationError


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
    """Evaluate the probability ceilings for an odd chain, delta >= 1.

    A chain whose (N-1)/2 modes numpy cannot allocate raises ResourceError.
    """
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"bound_report needs an odd chain, got N={n}")
    if delta < 1.0:
        mirrored = 1.0 / delta
        if not math.isfinite(mirrored):
            raise ValidationError(
                f"delta={delta} is below 1, and its mirrored ratio 1/delta overflows a float"
            )
        raise ValidationError(
            f"delta={delta} is below 1; invert the ratio (the mirrored chain "
            f"with delta={mirrored:.12g} has the same spectrum)"
        )
    m = (n - 1) // 2
    try:
        j = np.arange(1, m + 1)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ResourceError(f"bound report for N={n} cannot hold its {m} modes: {exc}") from exc
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

