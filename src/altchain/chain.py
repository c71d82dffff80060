"""Chain geometry: parameter bundle and one-excitation coupling matrix.

An open chain of N spins interacts through nearest-neighbour XY
couplings that alternate bond by bond between two strengths.  Writing
d1 for the odd bonds (1-2, 3-4, ...) and d2 = delta * d1 for the even
bonds (2-3, 4-5, ...), the one-excitation block of the Hamiltonian is
the symmetric tridiagonal matrix

    D = tridiag(b, 0, b),   b = (d1, d2, d1, d2, ...),

with no on-site terms, so the chain is bipartite: every level has a
partner of opposite sign.  Every other module consumes ChainSpec or the
bands built here, so validation happens once, up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def alternating_couplings(
    n_sites: int, d1: float | np.ndarray, d2: float | np.ndarray
) -> np.ndarray:
    """Bond strengths (d1, d2, d1, ...) along a last axis of length N-1.

    d1 and d2 broadcast against each other: arrays of shape (B,) give
    the (B, N-1) bonds of a stack of chains.
    """
    d1, d2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    bonds = np.empty(np.broadcast_shapes(d1.shape, d2.shape) + (n_sites - 1,))
    bonds[..., 0::2] = d1[..., None]
    bonds[..., 1::2] = d2[..., None]
    return bonds


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of one alternating chain.

    n_sites: number of spins, at least 2.
    delta:   bond-strength ratio d2 / d1, finite and strictly positive.
    d1:      odd-bond coupling, finite and strictly positive; the default 1.0
             makes every reported time the dimensionless product d1*t.

    The sites carry no on-site precession, as in the paper's model.
    """

    n_sites: int
    delta: float
    d1: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or isinstance(self.n_sites, bool):
            raise ValidationError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 2:
            raise ValidationError(f"n_sites must be at least 2, got {self.n_sites}")
        d1, delta = float(self.d1), float(self.delta)
        if not (math.isfinite(d1) and d1 > 0.0):
            raise ValidationError(f"d1 must be positive and finite, got {self.d1}")
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValidationError(f"delta must be positive and finite, got {self.delta}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "d1", d1)

    @property
    def d2(self) -> float:
        return self.delta * self.d1

    def couplings(self) -> np.ndarray:
        """Bond strengths (d1, d2, d1, ...) as a length N-1 array."""
        return alternating_couplings(self.n_sites, self.d1, self.d2)

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

    def to_dense(self) -> np.ndarray:
        return np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """D @ x from the band, for x of shape (N, K)."""
        out = np.zeros_like(x, dtype=float)
        out[:-1] = self.offdiagonal[:, None] * x[1:]
        out[1:] += self.offdiagonal[:, None] * x[:-1]
        return out


def build_coupling_matrix(spec: ChainSpec) -> CouplingMatrix:
    """Assemble the tridiagonal matrix for a chain description.

    Bond counting: bond n joins sites n and n+1 and carries d1 for odd
    n, d2 for even n.  Consequently the final bond is d1 when N is even
    and d2 when N is odd, and floor((N-1)/2) bonds carry d2.
    """
    return CouplingMatrix(offdiagonal=spec.couplings())
