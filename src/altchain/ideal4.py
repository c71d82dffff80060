"""Exact transfer across four sites: closed form and the ideal family.

A four-site chain has just two positive frequencies

    lam_small/big = sqrt((2 + delta^2 -/+ delta*sqrt(delta^2+4)) / 2)

(in units of d1; their product is exactly 1), and the end-to-end
probability collapses to

    P(t) = (1/4) | (1 + delta/sqrt(delta^2+4)) sin(lam_small t/2)
                 - (1 - delta/sqrt(delta^2+4)) sin(lam_big t/2) |^2.

P reaches exactly 1 when the two sines sit on opposite extremes.
That happens precisely on a two-integer family: pick odd a = 3 (mod 4)
and b = 1 (mod 4); then delta = |a-b|/sqrt(ab) and t = pi*sqrt(ab)
put the larger frequency at max(a,b)*pi/2 and the smaller at
min(a,b)*pi/2, one sine at +1 and the other at -1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import ResourceError, ValidationError

_LOG = logging.getLogger(__name__)

_IDEAL_PROBABILITY_FLOOR = 1.0 - 1e-9
# time and memory grow in proportion to max_product: 10^6 takes 18 s and
# 0.47 GB from the command line (2 vCPUs), and 3*10^6 takes 59 s and 1.3 GB
_MAX_PRODUCT = 1_000_000


@dataclass(frozen=True)
class IdealSolution:
    """One member of the exact-transfer family for four sites."""

    a: int
    b: int
    delta_bar: float
    t_bar: float
    probability: float


def n4_frequencies(delta: float) -> tuple[float, float]:
    """(small, large) positive frequencies of the four-site chain."""
    if not delta > 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    root = math.sqrt(delta * delta + 4.0)
    small = math.sqrt(0.5 * (2.0 + delta * delta - delta * root))
    large = math.sqrt(0.5 * (2.0 + delta * delta + delta * root))
    return small, large


def n4_probability(delta: float, t: float) -> float:
    """End-to-end probability of the four-site chain, closed form.

    Valid for every positive ratio; t is the dimensionless product
    d1*t.  Agrees with the spectral-sum route to machine precision.
    """
    if not delta > 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if t < 0.0:
        raise ValidationError(f"t must be non-negative, got {t}")
    small, large = n4_frequencies(delta)
    ratio = delta / math.sqrt(delta * delta + 4.0)
    series = (1.0 + ratio) * math.sin(0.5 * small * t) - (1.0 - ratio) * math.sin(
        0.5 * large * t
    )
    return 0.25 * series * series


def ideal_solutions(max_product: int) -> list[IdealSolution]:
    """Exact-transfer parameter pairs with a*b up to max_product.

    Enumerates odd a = 3 (mod 4), b = 1 (mod 4); each candidate gets
    delta = |a-b|/sqrt(ab), t = pi*sqrt(ab) and is accepted only if
    the closed form confirms P >= 1 - 1e-9.  Failing candidates are
    logged and excluded, never silently dropped.  No two candidates
    share (delta, t): t fixes ab, |a-b| then fixes delta, and the
    residues mod 4 rule out the swapped pair.  Results are sorted by
    transfer time, so the head of the list is the fastest exact
    transfer, (a, b) = (3, 1) with delta = 2/sqrt(3) and t = pi*sqrt(3).
    A max_product above 10^6 raises ResourceError.
    """
    if max_product < 3:
        raise ValidationError(f"max_product must be at least 3, got {max_product}")
    if max_product > _MAX_PRODUCT:
        raise ResourceError(f"max_product {max_product} is above the cap {_MAX_PRODUCT}")
    seen: list[IdealSolution] = []
    for a in range(3, max_product + 1, 4):
        for b in range(1, max_product // a + 1, 4):
            delta_bar = abs(a - b) / math.sqrt(a * b)
            t_bar = math.pi * math.sqrt(a * b)
            probability = n4_probability(delta_bar, t_bar)
            if probability < _IDEAL_PROBABILITY_FLOOR:
                _LOG.warning(
                    "candidate (a=%d, b=%d) failed validation: P=%.12f", a, b, probability
                )
                continue
            seen.append(
                IdealSolution(
                    a=a,
                    b=b,
                    delta_bar=delta_bar,
                    t_bar=t_bar,
                    probability=probability,
                )
            )
    seen.sort(key=lambda sol: (sol.t_bar, sol.a, sol.b))
    return seen
