"""Chain geometry: parameter bundle and one-excitation coupling matrix.

An open chain of N spins interacts through nearest-neighbour XY
couplings that alternate bond by bond between two strengths, D1 on the
odd bonds (1-2, 3-4, ...) and D2 = delta * D1 on the even bonds (2-3,
4-5, ...).  The model is written in units of D1, so delta is its only
coupling parameter: the one-excitation block of the Hamiltonian is the
symmetric tridiagonal matrix

    D = tridiag(b, 0, b),   b = (1, delta, 1, delta, ...),

its levels are in units of D1 and its times in units of 1/D1 (the d1_t
columns of the CLI).  There are no on-site terms, so the chain is
bipartite: every level has a partner of opposite sign.  Every other
module consumes ChainSpec or the bands built here, so validation
happens once, up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError

# the most sites of a chain whose bonds are built: every route from the
# bonds holds dense arrays of (N/2)^2 (spectra) to N^2 (eigensystem_for)
# floats, and N^2 floats take 512 MiB at this cap
MAX_SITES = 1 << 13


def check_sites(n_sites: int) -> None:
    """Refuse, with ResourceError, a chain longer than MAX_SITES before any array is allocated."""
    if n_sites > MAX_SITES:
        raise ResourceError(
            f"N={n_sites} is above the cap of {MAX_SITES} sites; "
            "a chain's dense N x N arrays take 512 MiB at the cap"
        )


def alternating_couplings(n_sites: int, delta: float | np.ndarray) -> np.ndarray:
    """Bond strengths (1, delta, 1, ...) along a last axis of length N-1.

    An array of ratios of shape (B,) gives the (B, N-1) bonds of a stack
    of chains.  A chain of more than MAX_SITES sites raises ResourceError
    (check_sites).
    """
    check_sites(n_sites)
    delta = np.asarray(delta, dtype=float)
    bonds = np.ones(delta.shape + (n_sites - 1,))
    bonds[..., 1::2] = delta[..., None]
    return bonds


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of one alternating chain.

    n_sites: number of spins, at least 2.
    delta:   bond-strength ratio D2 / D1, finite and strictly positive.

    Couplings are in units of D1, so every reported time is the
    dimensionless product D1*t.  The sites carry no on-site precession,
    as in the paper's model.
    """

    n_sites: int
    delta: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or isinstance(self.n_sites, bool):
            raise ValidationError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 2:
            raise ValidationError(f"n_sites must be at least 2, got {self.n_sites}")
        delta = float(self.delta)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValidationError(f"delta must be positive and finite, got {self.delta}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "delta", delta)

    def couplings(self) -> np.ndarray:
        """Bond strengths (1, delta, 1, ...) as a length N-1 array."""
        return alternating_couplings(self.n_sites, self.delta)

    def even_regime_threshold(self) -> float:
        """Lower delta limit (N+2)/N for the even-N closed forms."""
        return (self.n_sites + 2) / self.n_sites


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric tridiagonal one-excitation matrix with a zero diagonal.

    Stored by its one band, the N-1 bond strengths, each finite and
    strictly positive.
    """

    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        off = np.asarray(self.offdiagonal, dtype=float)
        if off.ndim != 1 or off.shape[0] < 1:
            raise ValidationError(f"need a 1-D band of at least one bond, got shape {off.shape}")
        if not np.all(np.isfinite(off) & (off > 0.0)):
            raise ValidationError("bond strengths must be positive and finite")
        off.setflags(write=False)
        object.__setattr__(self, "offdiagonal", off)

    @property
    def size(self) -> int:
        return self.offdiagonal.shape[0] + 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        """D @ x from the band, for x of shape (N, K)."""
        out = np.zeros_like(x, dtype=float)
        out[:-1] = self.offdiagonal[:, None] * x[1:]
        out[1:] += self.offdiagonal[:, None] * x[:-1]
        return out


def build_coupling_matrix(spec: ChainSpec) -> CouplingMatrix:
    """Assemble the tridiagonal matrix for a chain description.

    Bond counting: bond n joins sites n and n+1 and carries 1 for odd
    n, delta for even n.  Consequently the final bond is 1 when N is
    even and delta when N is odd, and floor((N-1)/2) bonds carry delta.
    """
    return CouplingMatrix(offdiagonal=spec.couplings())
