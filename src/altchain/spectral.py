"""Eigensystems of the alternating chain: one SVD engine, two closed-form oracles.

The chain has no on-site terms, so it is bipartite.  With the sites
ordered odd-then-even the coupling matrix is D = [[0, B], [B^T, 0]],
with B the ceil(N/2) x floor(N/2) lower bidiagonal of the bonds (the
odd bonds on its diagonal).  The positive levels are the singular values
of B, the eigenvectors (x, +-y)/sqrt(2) from its singular vectors, and
an odd chain's zero mode is the extra left singular vector (Golub and
Kahan 1965).  Every computation of the library takes its levels from
one values-only SVD of B (np.linalg.svd, in _levels), checked by the
trace rule sum_j s_j^2 = sum_i b_i^2.  One chain's eigensystem
(eigensystem_numeric, reached through eigensystem_for) adds the
singular vectors of a second SVD, checked on B: orthonormal, with
small residuals |Bv - s u|, |B^T u - s v|.  The searches read only
the levels and the end products u_1j * u_Nj, and a stack of ratios
(spectra) gets those without eigenvectors: the Jacobi end-product
identity c_j = prod_i b_i / prod_{k != j} (lambda_j - lambda_k)
(Parlett 1998, ch. 7; de Boor and Golub 1978), checked by the sum
rules 2 sum_j |c_j| = 1 (even N, a mirror-symmetric chain) and
2 sum_j c_j + c_0 = 0 (odd N), all in whole-stack operations.

The closed forms of the paper are kept as independent oracles for
verify, the tests and `altchain eigs --method even|odd`, and pass the
vector checks of the single-chain eigensystem:

* even N, delta above (N+2)/N: a trigonometric family built from the
  N/2-1 roots of  delta*sin(N x/2) + sin((N/2+1) x) = 0  on (0, pi),
  plus one hyperbolic pair from the root of
  delta*sinh(N y/2) = sinh((N/2+1) y),  y > 0;
* odd N, any positive delta: a fully explicit trigonometric family
  with a single zero mode localised on odd sites.

The engine and both closed forms compute only the positive half of the
spectrum and hand it to one assembler (_assemble), which lays out every
site-ordered EigenSystem the same way: eigenvalues sorted descending
and paired exactly under negation, partner columns sharing their
odd-site components while even-site components flip sign, and each
column's sign fixed by its first appreciable component.
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
# The trace rule of the levels, relative: about 100 times the largest
# defect measured over N = 2..2048 and delta = 1e-15..1e15 (1.2e-15).
_TRACE_REL_TOL = 1e-13
# The sum rules of the end products, relative to the sum of their
# magnitudes.  The identity's rounding grows as eps / g, g the smallest
# relative gap between two levels, so a chain passes where its defect
# is at most _SUM_RULE_GAIN * eps / g (the defect measured over
# N = 2..2048 and delta = 1e-15..1e15 reaches 2.0 eps / g for even N,
# 0.23 eps / g for odd N) and at most _SUM_RULE_CAP: beyond it the end
# products keep no digit.  Coinciding float levels give no finite end
# products and are refused too.
_SUM_RULE_GAIN = 100.0
_SUM_RULE_CAP = 0.1
_EPS = float(np.finfo(float).eps)
# mantissas in [1/2, 1) multiplied per run by _product: their product
# stays above 2**-_PRODUCT_RUN, inside the normal range
_PRODUCT_RUN = 512
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


def eigensystem_even(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigensystem of an even chain (delta above (N+2)/N).

    For the trigonometric family with root x, site k holds
    A*sin(k x/2) on even k and A*(-1)^(nu+1)*sin((N-k+1) x/2) on odd k,
    with A = sqrt(2) * (N+1 - sin((N+1)x)/sin(x))^(-1/2).  The
    hyperbolic pair replaces sines by sinh factors with alternating
    site signs and carries the smallest |eigenvalue| of the spectrum.
    """
    roots = solve_even_roots(spec)
    n, delta = spec.n_sites, spec.delta
    half = n // 2
    y = roots.y_root
    if (n + 1) * y > 300.0:
        raise NumericError(
            f"hyperbolic normalisation would overflow for N={n}, delta={delta}; "
            "use the numeric eigensolver"
        )

    k_odd, k_even = np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)
    levels, odd, even = np.empty(half), np.empty((half, half)), np.empty((half, half))
    for i, x in enumerate(roots.x_roots):
        norm = math.sqrt(2.0) / math.sqrt((n + 1) - math.sin((n + 1) * x) / math.sin(x))
        sign_b = 1.0 if i % 2 == 0 else -1.0
        levels[i] = math.sqrt(1.0 + delta * delta + 2.0 * delta * math.cos(x))
        odd[:, i] = sign_b * norm * np.sin(0.5 * (n - k_odd + 1) * x)
        even[:, i] = norm * np.sin(0.5 * k_even * x)

    value = 1.0 + delta * delta - 2.0 * delta * math.cosh(y)
    if value <= 0.0:
        raise NumericError(f"hyperbolic eigenvalue collapsed (lambda^2={value:.3e})")
    norm = math.sqrt(2.0) / math.sqrt(math.sinh((n + 1) * y) / math.sinh(y) - (n + 1))
    sign_b = 1.0 if half % 2 == 1 else -1.0
    levels[-1] = math.sqrt(value)
    odd[:, -1] = (
        sign_b * norm * np.power(-1.0, (n - k_odd + 1) // 2) * np.sinh(0.5 * (n - k_odd + 1) * y)
    )
    even[:, -1] = norm * np.power(-1.0, k_even // 2) * np.sinh(0.5 * k_even * y)

    root2 = math.sqrt(2.0)
    _validate_svd(spec.couplings()[None], levels[None], root2 * odd[None], root2 * even[None])
    return _assemble(levels, odd, even, PROVENANCE_ANALYTIC_EVEN)


def eigensystem_odd(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigensystem of an odd chain, any positive delta.

    Writing theta_nu = 2 pi nu / (N+1), the nonzero levels are
    +-sqrt(1 + 2 delta cos(theta_nu) + delta^2); even sites hold
    A*sin(pi nu j/(N+1)) and odd sites the delta-weighted combination
    of the two neighbouring even-site sines.  The zero mode lives on
    odd sites only, with geometrically decaying weight (-delta)^((N-j)/2);
    where delta^(N+1) overflows a float its normalisation raises NumericError.
    """
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"eigensystem_odd needs an odd chain, got N={n}")
    m = (n - 1) // 2

    j_odd, j_even = np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)
    levels, odd, even = np.empty(m), np.empty((m + 1, m + 1)), np.empty((m, m))
    amp = math.sqrt(2.0 / (n + 1))
    for nu in range(1, m + 1):
        theta = 2.0 * math.pi * nu / (n + 1)
        value = math.sqrt(1.0 + 2.0 * delta * math.cos(theta) + delta * delta)
        phase = math.pi * nu / (n + 1)
        levels[nu - 1] = value
        odd[:, nu - 1] = (amp / value) * (
            delta * np.sin(phase * (j_odd - 1)) + np.sin(phase * (j_odd + 1))
        )
        even[:, nu - 1] = amp * np.sin(phase * j_even)

    if abs(delta - 1.0) < 1e-8:
        weight = math.sqrt(2.0 / (n + 1))
    else:
        try:
            weight = math.sqrt((delta * delta - 1.0) / (delta ** (n + 1) - 1.0))
        except OverflowError as exc:
            raise NumericError(
                f"zero-mode normalisation would overflow for N={n}, delta={delta}; "
                "use the numeric eigensolver"
            ) from exc
    odd[:, m] = weight * np.power(-delta, (n - j_odd) // 2)

    root2 = math.sqrt(2.0)
    u = root2 * odd
    u[:, m] = odd[:, m]  # the zero mode is a unit singular vector as it stands
    _validate_svd(spec.couplings()[None], levels[None], u[None], root2 * even[None])
    return _assemble(levels, odd, even, PROVENANCE_ANALYTIC_ODD)


def _bidiagonal_t(bonds: np.ndarray) -> np.ndarray:
    """B^T of each chain of a (S, N-1) stack: (S, ceil(N/2), ceil(N/2)), upper bidiagonal.

    An odd chain's has a zero last row, so LAPACK gets a square upper
    bidiagonal for both parities and its reduction to bidiagonal form is
    exact.  B[i, i] is bond 2i+1 and B[i+1, i] bond 2i+2.
    """
    stack, m = bonds.shape
    rows = m // 2 + 1
    bt = np.zeros((stack, rows * rows))  # each chain's flattened
    bt[:, : (m + 1) // 2 * (rows + 1) : rows + 1] = bonds[:, 0::2]
    bt[:, 1 : m // 2 * (rows + 1) : rows + 1] = bonds[:, 1::2]
    return bt.reshape(stack, rows, rows)


def _svd(bt: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(bt, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bidiagonal SVD failed: {exc}") from exc


def _levels(bonds: np.ndarray, bt: np.ndarray) -> tuple:
    """(S, N//2) positive levels, descending, of a (S, N-1) stack of chains, and their verdict.

    bt is the stack's _bidiagonal_t.  The one source of levels for both
    routes: the values-only SVD of B^T (qd iterations, high relative
    accuracy).  For even N the smallest level, the edge-mode splitting
    that shrinks exponentially with N above (N+2)/N, is set from det B,
    the product of its diagonal bonds: s_min = det B / prod_j s_j over
    the other levels, summed in logarithms so that no chain length
    overflows (at N=1024, delta=8 s_min underflows to 0).  LAPACK bounds
    its error only by eps*s_max; the other levels stay away from 0, so
    the identity keeps s_min to full relative precision.

    Also returns an (S,) mask of the chains whose levels descend, an odd
    chain's nonnegative, and obey the trace rule sum_j s_j^2 = sum_i b_i^2
    to _TRACE_REL_TOL (no NaN or infinite level does), and the checks'
    frame, read by _end_products: bonds and levels, stack last, over the
    power of 2 at each chain's largest level.
    """
    m = bonds.shape[1]
    levels = _svd(bt, compute_uv=False)[:, : (m + 1) // 2]
    if m % 2 == 1:  # the row layout keeps the bits of the pairwise log-sums
        log_det = np.add.reduce(np.log(bonds[:, 0::2]), axis=1)
        np.exp(log_det - np.add.reduce(np.log(levels[:, :-1]), axis=1), out=levels[:, -1])
    scale = -np.frexp(levels[:, 0])[1]
    b, s = np.ldexp(bonds.T, scale, order="C"), np.ldexp(levels.T, scale, order="C")
    norm = np.add.reduce(b * b)
    ok = np.abs(np.add.reduce(s * s) - norm) <= _TRACE_REL_TOL * norm
    ok &= np.logical_and.reduce(s[1:] - s[:-1] <= np.ldexp(_ORDER_TOL, scale))
    if m % 2 == 0:
        ok &= s[-1] >= 0.0
    return levels, ok, b, s


def _paired_levels(levels: np.ndarray, n: int) -> np.ndarray:
    """Full descending spectrum (..., N) from the positive levels (..., N//2)."""
    zero = np.zeros(levels.shape[:-1] + (n % 2,))
    return np.concatenate([levels, zero, -levels[..., ::-1]], axis=-1)


def _assemble(levels: np.ndarray, x: np.ndarray, y: np.ndarray, provenance: str) -> EigenSystem:
    """Site-ordered EigenSystem from the positive half of a paired spectrum.

    levels holds the N//2 positive levels, descending; x (ceil(N/2)
    columns) and y (N//2 columns) hold the odd- and even-site components
    of their eigenvectors, and the last column of x is an odd chain's
    zero mode.  This is the one place partners are laid out: column
    j < N//2 is (x_j, y_j) at level s_j, its partner, column N-1-j, is
    (x_j, -y_j) at -s_j, and the zero mode (x_0, 0) sits in column N//2
    at level exactly 0.  Each column is normalised to a deterministic
    sign: its first component of appreciable size is made positive.
    """
    half = levels.size
    n = x.shape[0] + half
    vectors = np.zeros((n, n))
    vectors[0::2, :half], vectors[1::2, :half] = x[:, :half], y
    vectors[0::2, n - half:], vectors[1::2, n - half:] = x[:, :half][:, ::-1], -y[:, ::-1]
    vectors[0::2, half:n - half] = x[:, half:]
    mag = np.abs(vectors)
    lead = vectors[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(n)]
    vectors *= np.where(lead < 0.0, -1.0, 1.0)
    return EigenSystem(eigenvalues=_paired_levels(levels, n), vectors=vectors, provenance=provenance)


def eigensystem_numeric(matrix: CouplingMatrix) -> EigenSystem:
    """Diagonalise a coupling matrix through the SVD of its bond bidiagonal B.

    The eigenvectors of level s_j are (u_j, +-v_j)/sqrt(2) from the
    singular vectors of B, and an odd chain's zero mode is the extra
    column of u as it stands.  Two SVDs: the levels come from the
    values-only one (_levels), because those of the divide-and-conquer
    SVD that supplies the vectors carry about three times the error at
    N=16, and a phase lambda*t/2 multiplies it by t.  Levels that fail
    their checks raise NumericError.
    """
    half = matrix.size // 2
    bonds = matrix.offdiagonal[None]
    bt = _bidiagonal_t(bonds)
    levels, ok, _, _ = _levels(bonds, bt)
    if not ok[0]:
        raise NumericError("levels fail their checks: finite, descending, trace rule")
    v, _, ut = _svd(bt, compute_uv=True)
    u, v = ut[0].T, v[0, :half, :half]
    _validate_svd(bonds, levels, u[None], v[None])
    x = u / np.sqrt(2.0)
    x[:, half:] = u[:, half:]
    return _assemble(levels[0], x, v / np.sqrt(2.0), PROVENANCE_NUMERIC)


def eigensystem_for(spec: ChainSpec) -> EigenSystem:
    """Eigensystem of any chain description, by the SVD engine."""
    return eigensystem_numeric(build_coupling_matrix(spec))


def _product(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product over the first axis as mantissa and exponent, mantissa * 2**exponent.

    frexp splits every factor exactly, in place, into a mantissa of
    magnitude in [1/2, 1) and an integer exponent.  The mantissas multiply
    term by term, a row a step, in runs of _PRODUCT_RUN whose products
    stay normal and are split again before the next, so no length
    overflows or underflows and the result has the plain roundings only.
    """
    mant, expo = np.frexp(factors, out=(factors, None))
    prod, total = np.multiply.reduce(mant[:_PRODUCT_RUN]), np.add.reduce(expo, dtype=expo.dtype)
    for start in range(_PRODUCT_RUN, len(mant), _PRODUCT_RUN):
        prod, e = np.frexp(prod)
        prod, total = prod * np.multiply.reduce(mant[start:start + _PRODUCT_RUN]), total + e
    return prod, total


def _end_products(b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End products u_1j * u_Nj, (S, N) as spectra lays them out, from the frame of _levels.

    The residue of the (1, N) entry of the resolvent of a Jacobi matrix
    (Parlett 1998, ch. 7; de Boor and Golub 1978) gives them from the
    levels alone: c_j = prod_i b_i / prod_{k != j} (lambda_j - lambda_k),
    which the frame's power of 2 changes by no bit.  On the paired
    spectrum the level s_j has

        c_j = prod b / (2 s_j prod_{i != j} (s_j - s_i)(s_j + s_i)),

    with one more factor s_j for odd N; its partner -s_j has -c_j for
    even N and c_j for odd N, and the zero mode c_0 = (-1)^(N//2)
    prod b / prod_i s_i^2.  For even N, det B = prod_i s_i turns
    prod b / s_min into the product of the even bonds and the other
    levels, so the edge mode never divides by s_min, which underflows
    to 0 on the longest chains.  Numerators and denominators are taken
    by _product, so prod b overflows nowhere (8^511 at N=1023, delta=8).

    Also returns an (S,) mask of the chains that obey their sum rule:
    for even N the chain is mirror-symmetric, so |c_j| = u_1j^2 and the
    N end products have sum_j |c_j| = 1; for odd N rows 1 and N of the
    eigenvector matrix are orthogonal, so sum_j c_j = 0, relative to a
    finite sum_j |c_j|.  The tolerance follows the levels' smallest
    relative gap (_SUM_RULE_GAIN, _SUM_RULE_CAP).  Non-finite end
    products (coinciding levels) fail too.
    """
    n, half, stack = len(b) + 1, len(s), s.shape[1]
    # the factors of one product per column, padded with ones: column
    # j < N//2 the denominator of c_j (an even chain's edge mode without
    # its factor s_min), column N//2 prod b, and the last column the
    # numerator of that edge mode or the denominator prod_i s_i^2 of an
    # odd chain's zero mode
    factors = np.empty((n - 1, half + 2, stack))
    factors[half + n % 2:, :half] = 1.0
    factors[:, half] = b
    diag = factors.reshape(-1, stack)[: half * (half + 3) : half + 3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = np.subtract(s, s[:, None])  # s_j - s_i at [i, j]
        np.add(s, s[:, None], out=factors[:half, :half])
        factors[:half, :half] *= diff
        np.multiply(s, 2.0, out=diag)
        if n % 2:
            factors[half, :half] = factors[:half, -1] = factors[half:, -1] = s
        else:
            diag[-1], factors[-1, -1] = 2.0, 1.0
            factors[: half - 1, -1], factors[half - 1 : n - 2, -1] = b[1::2], s[:-1]
        # the smallest relative gap, from s_j - s_j+1 at [j + 1, j]
        gap = np.minimum.reduce(diff.reshape(-1, stack)[half :: half + 1] / s[:-1], initial=1.0)
        del diff  # before _product allocates
        mant, expo = _product(factors)
        ends = np.empty((n, stack))  # the (S, N) result, transposed
        np.ldexp(mant[half] / mant[:half], expo[half] - expo[:half], out=ends[:half])
        tol = np.minimum(_SUM_RULE_GAIN * _EPS / np.maximum(gap, 0.0), _SUM_RULE_CAP)
        if n % 2:
            np.ldexp(mant[half] / (mant[-1] * (-1) ** half), expo[half] - expo[-1], out=ends[half])
            ends[half + 1:] = ends[half - 1::-1]
            total = np.add.reduce(np.abs(ends))
            ok = (np.abs(np.add.reduce(ends)) <= tol * total) & (total < math.inf)
        else:
            np.ldexp(mant[-1] / mant[half - 1], expo[-1] - expo[half - 1], out=ends[half - 1])
            np.negative(ends[half - 1::-1], out=ends[half:])
            ok = np.abs(np.add.reduce(np.abs(ends)) - 1.0) <= tol
    return np.ascontiguousarray(ends.T), ok


def _masked_spectra(n_sites: int, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """spectra of a stack from one solve, and the (B,) mask of the chains that pass.

    A chain passes where its levels pass (_levels) and its end products
    obey their sum rule (_end_products).  A failing chain's rows mean
    nothing; the others are those of a stack without it.
    """
    n = ChainSpec(n_sites, 1.0).n_sites  # validates n_sites
    ratios = np.asarray(deltas, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValidationError(f"deltas must be a non-empty 1-D array, got shape {ratios.shape}")
    if not (np.minimum.reduce(ratios) > 0.0 and np.maximum.reduce(ratios) < math.inf):
        raise ValidationError("deltas must be finite and positive")
    bonds = alternating_couplings(n, ratios)
    levels, levels_ok, b, s = _levels(bonds, _bidiagonal_t(bonds))
    ends, ends_ok = _end_products(b, s)
    return _paired_levels(levels, n), ends, levels_ok & ends_ok


def spectra(n_sites: int, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of a stack of chains that differ only in ratio.

    Returns the (B, N) eigenvalues, descending per row, and the (B, N)
    end products u_1j * u_Nj, the only spectral data the transfer
    probability P_N reads, without eigenvectors: the levels from one
    values-only SVD of the stack (_levels), the end products from the
    Jacobi end-product identity (_end_products).  Every chain must pass
    the checks of _masked_spectra, or NumericError names N and delta:
    chains whose levels are too close for the identity to keep a digit,
    or coincide in floating point (delta below about 1e-13 or above
    about 1e13), fail.  The ratio searches read the same per-chain
    verdict and pass over a failing ratio instead.
    """
    lam, ends, ok = _masked_spectra(n_sites, deltas)
    if not ok.all():
        bad = np.asarray(deltas, dtype=float)[~ok][0]
        raise NumericError(f"spectrum fails its checks at N={lam.shape[1]}, delta={bad:.6g}")
    return lam, ends
