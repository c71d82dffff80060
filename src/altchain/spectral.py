"""Eigensystems of the alternating chain: one SVD engine, two closed-form oracles.

The chain has no on-site terms, so it is bipartite.  With the sites
ordered odd-then-even the coupling matrix is D = [[0, B], [B^T, 0]],
with B the ceil(N/2) x floor(N/2) lower bidiagonal of the bonds (the
d1 bonds on its diagonal).  The positive levels are the singular values
of B, the eigenvectors (x, +-y)/sqrt(2) from its singular vectors, and
an odd chain's zero mode is the extra left singular vector (Golub and
Kahan 1965).  Every computation of the library takes its spectrum from
the SVD of B (np.linalg.svd): for one chain (eigensystem_numeric,
reached through eigensystem_for) or for a stack of ratios (spectra).  Each
result is checked on B: orthonormal singular vectors and small
residuals |Bv - s u|, |B^T u - s v|.

The closed forms of the paper are kept as independent oracles for
verify, the tests and `altchain eigs --method even|odd`, and pass the
same checks:

* even N, delta above (N+2)/N: a trigonometric family built from the
  N/2-1 roots of  delta*sin(N x/2) + sin((N/2+1) x) = 0  on (0, pi),
  plus one hyperbolic pair from the root of
  delta*sinh(N y/2) = sinh((N/2+1) y),  y > 0;
* odd N, any positive delta: a fully explicit trigonometric family
  with a single zero mode localised on odd sites.

Eigenvalues are sorted descending and pair exactly under negation:
paired columns share their even-site components while odd-site
components flip sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, CouplingMatrix, alternating_couplings, build_coupling_matrix
from .errors import NumericError, RegimeError, ValidationError
from .roots import bisect, bracket_sign_changes

PROVENANCE_ANALYTIC_EVEN = "analytic-even"
PROVENANCE_ANALYTIC_ODD = "analytic-odd"
PROVENANCE_NUMERIC = "numeric"

_ORTHONORMALITY_TOL = 1e-10
_RESIDUAL_REL_TOL = 1e-9
_ORDER_TOL = 1e-10
_ROOT_RESIDUAL_TOL = 1e-12
# Within this relative margin of the threshold the hyperbolic root is
# so small that the normalisation forms cancel; the even closed form
# refuses instead of returning digits the formulas cannot back.
_THRESHOLD_MARGIN = 1e-5


@dataclass(frozen=True)
class EvenRootSet:
    """Spectral parameters of an even chain: x roots plus the y root."""

    x_roots: np.ndarray
    y_root: float

    def __post_init__(self) -> None:
        xs = np.asarray(self.x_roots, dtype=float)
        xs.setflags(write=False)
        object.__setattr__(self, "x_roots", xs)
        object.__setattr__(self, "y_root", float(self.y_root))


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigenpairs of a coupling matrix, columns by index."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise ValidationError(
                f"shape mismatch: {lam.shape} eigenvalues, {vec.shape} vectors"
            )
        lam.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def smallest_positive(self) -> float:
        """Smallest eigenvalue of the positive half of a paired spectrum.

        That is index N//2 - 1 in descending order, the last of the
        N//2 levels the paired series sums over (the searches read it off
        spectra).  An odd chain's zero mode sits just below it.
        """
        return float(self.eigenvalues[self.size // 2 - 1])


def _x_residual(x: np.ndarray | float, n: int, delta: float) -> np.ndarray | float:
    return delta * np.sin(0.5 * n * x) + np.sin((0.5 * n + 1.0) * x)


def _y_residual_scaled(y: np.ndarray | float, n: int, delta: float) -> np.ndarray | float:
    """Residual of delta*sinh(n y/2) - sinh((n/2+1) y), divided by cosh((n/2+1) y).

    Expanding in exponentials and cancelling the growing factor gives

        [delta*(e^-y - e^-(n+1)y) - 1 + e^-(n+2)y] / [1 + e^-(n+2)y],

    bounded for every y >= 0, so no chain length can overflow it.
    """
    ey = np.exp(-np.asarray(y, dtype=float))
    num = delta * (ey - ey ** (n + 1)) - 1.0 + ey ** (n + 2)
    den = 1.0 + ey ** (n + 2)
    return num / den


def solve_even_roots(spec: ChainSpec) -> EvenRootSet:
    """Spectral roots of an even chain with delta above (N+2)/N.

    The x equation is bracketed by a uniform scan of 10*N points on
    (0, pi) and each of the N/2-1 sign changes is bisected to machine
    resolution; the y equation is bisected on (0, ln delta] using the
    overflow-free scaled residual.  Residuals beyond 1e-12 or a wrong
    root count abort rather than degrade.
    """
    n = spec.n_sites
    if n % 2 != 0:
        raise ValidationError(f"solve_even_roots needs an even chain, got N={n}")
    threshold = spec.even_regime_threshold()
    if spec.delta <= threshold * (1.0 + _THRESHOLD_MARGIN):
        raise RegimeError(
            f"delta={spec.delta} is at or below the closed-form threshold "
            f"(N+2)/N={threshold}; use the numeric eigensolver"
        )
    delta = spec.delta

    brackets = bracket_sign_changes(lambda x: _x_residual(x, n, delta), 0.0, math.pi, 10 * n)
    expected = n // 2 - 1
    if len(brackets) != expected:
        raise NumericError(
            f"x-root scan found {len(brackets)} sign changes, expected {expected} "
            f"(N={n}, delta={delta})"
        )
    xs = np.array([bisect(lambda x: _x_residual(x, n, delta), a, b) for a, b in brackets])

    y_hi = math.log(delta)
    y_lo = 1e-8
    # mathematically the scaled residual is positive at 0+ and negative
    # at ln delta for every delta above the threshold
    while _y_residual_scaled(y_hi, n, delta) > 0.0:
        y_hi *= 2.0
        if y_hi > 1e3:
            raise NumericError(f"failed to bracket the y root (N={n}, delta={delta})")
    y = bisect(lambda t: _y_residual_scaled(t, n, delta), y_lo, y_hi)

    x_res = np.abs(_x_residual(xs, n, delta)) if xs.size else np.zeros(0)
    if xs.size and (x_res.max() > _ROOT_RESIDUAL_TOL or np.any(np.diff(xs) <= 0.0)):
        raise NumericError(
            f"x roots failed the residual/ordering check (max residual {x_res.max():.3e})"
        )
    y_res = abs(float(_y_residual_scaled(y, n, delta)))
    if y_res > _ROOT_RESIDUAL_TOL or not 0.0 < y:
        raise NumericError(f"y root failed the residual check (residual {y_res:.3e})")
    return EvenRootSet(x_roots=xs, y_root=y)


def _validate_svd(
    bonds: np.ndarray, levels: np.ndarray, u: np.ndarray, v: np.ndarray
) -> None:
    """Checks on a stack of singular triplets of B, each against its own tolerance.

    bonds is (S, N-1), levels (S, N//2), u (S, ceil(N/2), ceil(N/2))
    and v (S, N//2, N//2); an odd chain's extra column of u must lie in
    the null space of B^T.  Residuals are scaled by each chain's
    largest bond.  B[i, i] is bond 2i+1 and B[i+1, i] bond 2i+2.
    """
    # ndarray methods: this runs once per chain of the first-peak search
    if not (np.isfinite(levels).all() and np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericError("eigensystem contains non-finite entries")
    orth = max(
        float(np.abs(np.swapaxes(w, 1, 2) @ w - np.eye(w.shape[1])).max()) for w in (u, v)
    )
    if not orth <= _ORTHONORMALITY_TOL:
        raise NumericError(f"eigenvectors not orthonormal (defect {orth:.3e})")
    diag, sub = bonds[:, 0::2], bonds[:, 1::2]
    cols, k = v.shape[1], sub.shape[1]
    # B v_j - s_j u_j and B^T u_j - s_j v_j (0 for the extra column of u)
    bv = -u[:, :, :cols] * levels[:, None, :]
    bv[:, :cols] += diag[:, :, None] * v
    bv[:, 1:k + 1] += sub[:, :, None] * v[:, :k]
    btu = diag[:, :, None] * u[:, :cols]
    btu[:, :k] += sub[:, :, None] * u[:, 1:k + 1]
    btu[:, :, :cols] -= v * levels[:, None, :]
    residual = np.maximum(np.abs(bv).max(axis=(1, 2)), np.abs(btu).max(axis=(1, 2)))
    scale = bonds.max(axis=1)
    bad = ~(residual <= _RESIDUAL_REL_TOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"eigenpair residual {residual[i]:.3e} exceeds {_RESIDUAL_REL_TOL * scale[i]:.3e}"
        )
    if (levels[:, 1:] - levels[:, :-1] > _ORDER_TOL).any() or (levels < 0.0).any():
        raise NumericError("levels are not sorted in descending order")


def _validate_eigensystem(lam: np.ndarray, vectors: np.ndarray, spec: ChainSpec) -> None:
    """The checks of the SVD engine on a site-ordered paired eigensystem.

    Columns j < N/2 are (x, y)/sqrt(2) with level lam[j] = s_j, and an
    odd chain's zero mode is column N//2; their partners are copies.
    """
    n, half = spec.n_sites, spec.n_sites // 2
    u = vectors[0::2, : (n + 1) // 2].copy()
    u[:, :half] *= np.sqrt(2.0)
    v = vectors[1::2, :half] * np.sqrt(2.0)
    _validate_svd(spec.couplings()[None], lam[None, :half], u[None], v[None])


def _flip_odd_sites(column: np.ndarray) -> np.ndarray:
    """Partner column for the negated eigenvalue: odd sites change sign."""
    partner = column.copy()
    partner[0::2] = -partner[0::2]
    return partner


def eigensystem_even(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigensystem of an even chain (delta above (N+2)/N).

    For the trigonometric family with root x, site k holds
    A*sin(k x/2) on even k and A*(-1)^(nu+1)*sin((N-k+1) x/2) on odd k,
    with A = sqrt(2) * (N+1 - sin((N+1)x)/sin(x))^(-1/2).  The
    hyperbolic pair replaces sines by sinh factors with alternating
    site signs and carries the smallest |eigenvalue| of the spectrum.
    """
    roots = solve_even_roots(spec)
    n, d1, d2 = spec.n_sites, spec.d1, spec.d2
    half = n // 2
    y = roots.y_root
    if (n + 1) * y > 300.0:
        raise NumericError(
            f"hyperbolic normalisation would overflow for N={n}, delta={spec.delta}; "
            "use the numeric eigensolver"
        )

    k = np.arange(1, n + 1)
    even_mask = k % 2 == 0
    k_even = k[even_mask]
    k_odd = k[~even_mask]

    lam = np.empty(n)
    vectors = np.empty((n, n))

    for i, x in enumerate(roots.x_roots):
        nu = i + 1
        value = math.sqrt(d1 * d1 + d2 * d2 + 2.0 * d1 * d2 * math.cos(x))
        norm = math.sqrt(2.0) / math.sqrt((n + 1) - math.sin((n + 1) * x) / math.sin(x))
        sign_b = 1.0 if nu % 2 == 1 else -1.0
        column = np.empty(n)
        column[even_mask] = norm * np.sin(0.5 * k_even * x)
        column[~even_mask] = sign_b * norm * np.sin(0.5 * (n - k_odd + 1) * x)
        lam[nu - 1] = value
        vectors[:, nu - 1] = column
        lam[n - nu] = -value
        vectors[:, n - nu] = _flip_odd_sites(column)

    value = d1 * d1 + d2 * d2 - 2.0 * d1 * d2 * math.cosh(y)
    if value <= 0.0:
        raise NumericError(f"hyperbolic eigenvalue collapsed (lambda^2={value:.3e})")
    value = math.sqrt(value)
    norm = math.sqrt(2.0) / math.sqrt(math.sinh((n + 1) * y) / math.sinh(y) - (n + 1))
    sign_b = 1.0 if half % 2 == 1 else -1.0
    column = np.empty(n)
    column[even_mask] = norm * np.power(-1.0, k_even // 2) * np.sinh(0.5 * k_even * y)
    column[~even_mask] = (
        sign_b * norm * np.power(-1.0, (n - k_odd + 1) // 2) * np.sinh(0.5 * (n - k_odd + 1) * y)
    )
    lam[half - 1] = value
    vectors[:, half - 1] = column
    lam[half] = -value
    vectors[:, half] = _flip_odd_sites(column)

    _validate_eigensystem(lam, vectors, spec)
    return EigenSystem(eigenvalues=lam, vectors=vectors, provenance=PROVENANCE_ANALYTIC_EVEN)


def eigensystem_odd(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigensystem of an odd chain, any positive delta.

    Writing theta_nu = 2 pi nu / (N+1), the nonzero levels are
    +-d1*sqrt(1 + 2 delta cos(theta_nu) + delta^2); even sites hold
    A*sin(pi nu j/(N+1)) and odd sites the delta-weighted combination
    of the two neighbouring even-site sines.  The zero mode lives on
    odd sites only, with geometrically decaying weight (-delta)^((N-j)/2).
    """
    n, d1, delta = spec.n_sites, spec.d1, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"eigensystem_odd needs an odd chain, got N={n}")
    m = (n - 1) // 2

    j = np.arange(1, n + 1)
    odd_mask = j % 2 == 1
    j_even = j[~odd_mask]
    j_odd = j[odd_mask]

    lam = np.empty(n)
    vectors = np.empty((n, n))
    amp = math.sqrt(2.0 / (n + 1))

    for nu in range(1, m + 1):
        theta = 2.0 * math.pi * nu / (n + 1)
        value = d1 * math.sqrt(1.0 + 2.0 * delta * math.cos(theta) + delta * delta)
        phase = math.pi * nu / (n + 1)
        column = np.empty(n)
        column[~odd_mask] = amp * np.sin(phase * j_even)
        column[odd_mask] = (amp * d1 / value) * (
            delta * np.sin(phase * (j_odd - 1)) + np.sin(phase * (j_odd + 1))
        )
        lam[nu - 1] = value
        vectors[:, nu - 1] = column
        lam[n - nu] = -value
        vectors[:, n - nu] = _flip_odd_sites(column)

    if abs(delta - 1.0) < 1e-8:
        weight = math.sqrt(2.0 / (n + 1))
    else:
        try:
            weight = math.sqrt((delta * delta - 1.0) / (delta ** (n + 1) - 1.0))
        except OverflowError:
            weight = 0.0  # validation below reports the breakdown
    column = np.zeros(n)
    column[odd_mask] = weight * np.power(-delta, (n - j_odd) // 2)
    lam[m] = 0.0
    vectors[:, m] = column

    _validate_eigensystem(lam, vectors, spec)
    return EigenSystem(eigenvalues=lam, vectors=vectors, provenance=PROVENANCE_ANALYTIC_ODD)


def _bond_svd(bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated SVD of the bond bidiagonals B of a (S, N-1) stack of chains.

    Returns the (S, N//2) positive levels, descending, with U
    (S, ceil(N/2), ceil(N/2)) and V (S, N//2, N//2), singular vectors
    in columns.  For even N the smallest level, the edge-mode splitting
    that shrinks exponentially with N above (N+2)/N, is set from
    det B = d1^(N/2): s_min = d1 * prod_j (d1 / s_j) over the other
    levels, summed in logarithms so that no chain length overflows.
    LAPACK bounds its error only by eps*s_max; the other levels stay
    away from 0, so the identity keeps s_min to full relative precision.
    """
    n = bonds.shape[1] + 1
    diag, sub = bonds[:, 0::2], bonds[:, 1::2]
    rows, cols, k = (n + 1) // 2, diag.shape[1], sub.shape[1]
    # LAPACK gets B^T, square and upper bidiagonal (an odd chain's gets a
    # zero last row), so its reduction to bidiagonal form is exact.  The
    # levels come from the values-only SVD (qd iterations, high relative
    # accuracy): those of the divide-and-conquer SVD that supplies the
    # vectors carry about three times the error at N=16, and a phase
    # lambda*t/2 multiplies it by t.
    bt = np.zeros((bonds.shape[0], rows, rows))
    bt[:, np.arange(cols), np.arange(cols)] = diag
    bt[:, np.arange(k), np.arange(1, k + 1)] = sub
    try:
        v, _, ut = np.linalg.svd(bt)
        levels = np.linalg.svd(bt, compute_uv=False)[:, :cols]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bidiagonal SVD failed: {exc}") from exc
    v = v[:, :cols, :cols]
    if n % 2 == 0:
        levels[:, -1] = np.exp(
            np.sum(np.log(diag), axis=1) - np.sum(np.log(levels[:, :-1]), axis=1)
        )
    u = np.swapaxes(ut, 1, 2)
    _validate_svd(bonds, levels, u, v)
    return levels, u, v


def _paired_levels(levels: np.ndarray, n: int) -> np.ndarray:
    """Full descending spectrum (..., N) from the positive levels (..., N//2)."""
    zero = np.zeros(levels.shape[:-1] + (n % 2,))
    return np.concatenate([levels, zero, -levels[..., ::-1]], axis=-1)


def eigensystem_numeric(matrix: CouplingMatrix) -> EigenSystem:
    """Diagonalise a coupling matrix through the SVD of its bond bidiagonal.

    The single-chain case of the engine: column j < N/2 is
    (x_j, y_j)/sqrt(2) for level s_j, its partner -s_j is
    (x_j, -y_j)/sqrt(2), and an odd chain's zero mode (x_0, 0) sits in
    column N//2 at level exactly 0, each written back in site order.
    Each column is normalised to a deterministic sign: its first
    component of appreciable size is made positive.
    """
    n, half = matrix.size, matrix.size // 2
    levels, u, v = (w[0] for w in _bond_svd(matrix.offdiagonal[None]))
    x, y = u[:, :half] / np.sqrt(2.0), v / np.sqrt(2.0)
    vectors = np.zeros((n, n))
    vectors[0::2, :half], vectors[1::2, :half] = x, y
    vectors[0::2, n - half:], vectors[1::2, n - half:] = x[:, ::-1], -y[:, ::-1]
    if n % 2:
        vectors[0::2, half] = u[:, half]
    mag = np.abs(vectors)
    lead = vectors[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(n)]
    vectors *= np.where(lead < 0.0, -1.0, 1.0)
    return EigenSystem(
        eigenvalues=_paired_levels(levels, n), vectors=vectors, provenance=PROVENANCE_NUMERIC
    )


def eigensystem_for(spec: ChainSpec) -> EigenSystem:
    """Eigensystem of any chain description, by the SVD engine."""
    return eigensystem_numeric(build_coupling_matrix(spec))


def spectra(n_sites: int, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of a stack of chains (d1 = 1) that differ only in ratio.

    The stack case of the engine: one stacked SVD of the B ratios'
    bond bidiagonals.  Returns the (B, N) eigenvalues, descending per
    row, and the (B, N) end products u_1j * u_Nj, read off the singular
    vectors: x_j[0] * y_j[-1] / 2 (sign flipped on the partner) for even
    N, x_j[0] * x_j[-1] / 2 for odd N, and x_0[0] * x_0[-1] for the zero
    mode.  They do not depend on the eigenvector signs.  Every system
    passes the checks of the single-chain case, at the same tolerances,
    or the whole stack raises NumericError.
    """
    n = ChainSpec(n_sites, 1.0).n_sites  # validates n_sites
    ratios = np.asarray(deltas, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValidationError(f"deltas must be a non-empty 1-D array, got shape {ratios.shape}")
    if not (np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)):
        raise ValidationError("deltas must be finite and positive")
    half = n // 2
    levels, u, v = _bond_svd(alternating_couplings(n, 1.0, ratios))
    if n % 2 == 0:
        ends = 0.5 * u[:, 0, :] * v[:, -1, :]
        mirrored = -ends[:, ::-1]
    else:
        ends = u[:, 0, :] * u[:, -1, :]
        ends[:, :half] *= 0.5
        mirrored = ends[:, half - 1::-1]
    return _paired_levels(levels, n), np.concatenate([ends, mirrored], axis=1)
