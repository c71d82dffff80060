"""Chain geometry: parameter bundle and one-excitation coupling matrix.

An open chain of N spins interacts through nearest-neighbour XY
couplings that alternate bond by bond between two strengths.  Writing
d1 for the odd bonds (1-2, 3-4, ...) and d2 = delta * d1 for the even
bonds (2-3, 4-5, ...), the one-excitation block of the Hamiltonian is
the symmetric tridiagonal matrix

    D = tridiag(b, w, b),   b = (d1, d2, d1, d2, ...),

with the per-site precession rates w on the diagonal (all zero for the
closed-form work).  Every other module consumes ChainSpec or the dense
matrix built here, so validation happens once, up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def tridiagonal_dense(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from its bands, (..., N) and (..., N-1).

    Leading axes stack matrices: the result has shape (..., N, N).
    """
    n = diagonal.shape[-1]
    dense = np.zeros(diagonal.shape + (n,))
    idx = np.arange(n)
    dense[..., idx, idx] = diagonal
    dense[..., idx[:-1], idx[1:]] = offdiagonal
    dense[..., idx[1:], idx[:-1]] = offdiagonal
    return dense


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of one alternating chain.

    n_sites: number of spins, at least 2.
    delta:   bond-strength ratio d2 / d1, finite and strictly positive.
    d1:      odd-bond coupling, finite and strictly positive; the default 1.0
             makes every reported time the dimensionless product d1*t.
    larmor:  per-site precession rates; None means all zero.  The
             closed-form eigensystems exist only for the all-zero case.
    """

    n_sites: int
    delta: float
    d1: float = 1.0
    larmor: tuple[float, ...] | None = None

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
        if self.larmor is not None:
            rates = tuple(float(w) for w in self.larmor)
            if len(rates) != self.n_sites:
                raise ValidationError(
                    f"larmor needs {self.n_sites} entries, got {len(rates)}"
                )
            if not all(np.isfinite(rates)):
                raise ValidationError("larmor entries must be finite")
            object.__setattr__(self, "larmor", rates)

    @property
    def d2(self) -> float:
        return self.delta * self.d1

    @property
    def larmor_rates(self) -> tuple[float, ...]:
        if self.larmor is None:
            return (0.0,) * self.n_sites
        return self.larmor

    def larmor_is_zero(self) -> bool:
        return self.larmor is None or all(w == 0.0 for w in self.larmor)

    def require_zero_larmor(self, operation: str) -> None:
        """Closed-form branches exist only without on-site precession."""
        if not self.larmor_is_zero():
            raise ValidationError(
                f"{operation} requires all-zero larmor rates; "
                "use the numeric eigensolver for a dressed chain"
            )

    def couplings(self) -> np.ndarray:
        """Bond strengths (d1, d2, d1, ...) as a length N-1 array."""
        return alternating_couplings(self.n_sites, self.d1, self.d2)

    def even_regime_threshold(self) -> float:
        """Lower delta limit (N+2)/N for the even-N closed forms."""
        return (self.n_sites + 2) / self.n_sites


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric tridiagonal one-excitation matrix, stored by bands."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.offdiagonal, dtype=float)
        if diag.ndim != 1 or off.ndim != 1 or off.shape[0] != diag.shape[0] - 1:
            raise ValidationError(
                f"band shapes mismatch: diagonal {diag.shape}, offdiagonal {off.shape}"
            )
        if diag.shape[0] < 2:
            raise ValidationError("matrix needs at least two sites")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValidationError("matrix entries must be finite")
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offdiagonal", off)

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    def to_dense(self) -> np.ndarray:
        return tridiagonal_dense(self.diagonal, self.offdiagonal)

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.diagonal)), np.max(np.abs(self.offdiagonal))))


def build_coupling_matrix(spec: ChainSpec) -> CouplingMatrix:
    """Assemble the tridiagonal matrix for a chain description.

    Bond counting: bond n joins sites n and n+1 and carries d1 for odd
    n, d2 for even n.  Consequently the final bond is d1 when N is even
    and d2 when N is odd, and floor((N-1)/2) bonds carry d2.
    """
    return CouplingMatrix(
        diagonal=np.array(spec.larmor_rates, dtype=float),
        offdiagonal=spec.couplings(),
    )
