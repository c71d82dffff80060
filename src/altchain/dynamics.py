"""Excitation dynamics: site occupation probabilities along the chain.

The excitation starts on site 1.  With eigenpairs (lambda_j, u_j) of
the one-excitation matrix D, the amplitude on site k at time t is

    a_k(t) = sum_j u_kj * u_1j * exp(-i t lambda_j / 2),

and P_k(t) = |a_k(t)|^2; the end-to-end transfer probability is P_N.
The factor 1/2 reflects that the spin Hamiltonian restricted to one
excitation equals D/2.

The bipartite chain pairs its levels as +-lambda, with partner columns
(x, +-y) when the sites are ordered odd-then-even, so the sum folds
into N/2 real terms at every node: pure cosines plus a zero-mode
constant on odd nodes, pure sines on even nodes.  That series,
applied to one chain or to a stack as spectral.spectra returns it, is
paired_transfer_probability, the one probability kernel: every search
(the peak scan's fine samples and seeds, its polished p_h, the
fixed-time score), every sampled curve (node_probability,
sample_curve) and the verify checks on sampled curves run on it.  It
sums each time's terms along their own axis, so a value has the bits
of its time alone, whatever batch or stack it is evaluated in.  The
peak scan's coarse pass, which only bounds, takes the series on a
uniform time grid by angle addition (paired_grid_probability), and its
polish the series' first two time derivatives
(paired_transfer_derivatives).

transfer_probability keeps the complex spectral sum at node N as the
reference route: the closed-form reduced series, the paired kernel and
the brute-force evolution of the full 2^N spin space are checked
against it.

The module needs numpy only: the 2^N oracle is one dense eigensolve,
for N up to 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import HorizonError, NumericError, ResourceError, ValidationError
from .spectral import EigenSystem, EvenRootSet

# largest N of the 2^N oracle, and the largest any caller uses: its dense
# eigensolve grows as 8^N (0.23 s at N=10, 1.3 s at N=11 on 2 vCPUs)
_FULL_SPACE_MAX_SITES = 10
# largest rounding error of a phase lambda*t that a probability may carry
_HORIZON_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TransferCurve:
    """Sampled occupation probability of one node over a time grid."""

    times: np.ndarray
    probabilities: np.ndarray
    node: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if times.ndim != 1 or times.shape != probs.shape:
            raise ValidationError(
                f"curve shapes mismatch: {times.shape} times, {probs.shape} probabilities"
            )
        if np.any(probs < -1e-9) or np.any(probs > 1.0 + 1e-9):
            raise ValidationError("probabilities leave [0, 1] beyond rounding")
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "node", int(self.node))


def _as_times(t: float | np.ndarray) -> tuple[np.ndarray, bool]:
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = times[None] if scalar else times
    if (times < 0.0).any():
        raise ValidationError("times must be non-negative")
    return times, scalar


def check_horizon(t_max: float, lam_max: float) -> None:
    """Refuse times whose phases lambda*t/2 have no digits left to resolve P.

    A phase carries a rounding error of about t*lambda_max*eps; above
    1e-9 that error, not the dynamics, sets the last digits of P, and
    at t = 1e300 it sets all of them.  Raises HorizonError there.
    """
    if t_max * lam_max * _EPS > _HORIZON_TOL:
        raise HorizonError(
            f"time {t_max:.6g} at frequency {lam_max:.6g} leaves a phase error above "
            f"{_HORIZON_TOL:.0e}; the probability has no significant digits there"
        )


def _node_weights(eig: EigenSystem, node: int) -> np.ndarray:
    """The products u_1j * u_kj of node k = node, which must lie in 1..N."""
    if not 1 <= node <= eig.size:
        raise ValidationError(f"node must lie in 1..{eig.size}, got {node}")
    return eig.vectors[0] * eig.vectors[node - 1]


def node_probability(eig: EigenSystem, node: int, t: float | np.ndarray) -> float | np.ndarray:
    """Occupation probability of one node by the paired series; scalar in, scalar out.

    eig must pair its columns as every eigensystem of spectral does:
    column j and column N-1-j are the partners at +-lambda_j.
    """
    return paired_transfer_probability(eig.eigenvalues, _node_weights(eig, node), t, node)


def transfer_probability(eig: EigenSystem, t: float | np.ndarray) -> float | np.ndarray:
    """End-to-end probability P_N(t) as the complex spectral sum.

    The reference route: the sum over all N eigenpairs as written in
    the module docstring, with no use of the +-lambda pairing.
    """
    times, scalar = _as_times(t)
    phases = np.exp(-0.5j * np.multiply.outer(times, eig.eigenvalues))
    probs = np.abs(phases @ (eig.vectors[-1] * eig.vectors[0])) ** 2
    return float(probs[0]) if scalar else probs


def paired_transfer_probability(
    lam: np.ndarray, ends: np.ndarray, t: float | np.ndarray, node: int | None = None
) -> float | np.ndarray:
    """P_k(t) of node k (default N) from the positive half of the paired spectrum.

    lam and ends are (..., N): the descending eigenvalues and products
    c_j = u_1j * u_kj of one chain or a stack; spectra returns them for
    k = N.  Partner columns are (x, +-y) with x on the odd sites, so the
    +-lambda partners share c_j on an odd node and flip its sign on an
    even one, and the spectral sum folds into N/2 real terms, P = s^2
    with

        even k:  s = 2 * sum_j c_j sin(lambda_j t/2),
        odd k:   s = 2 * sum_j c_j cos(lambda_j t/2) + c_0,

    j over the positive eigenvalues and c_0 the product of the zero
    mode, which only an odd chain has.  t is a scalar or (..., T); the
    result is (..., T), or (...).  The terms are summed along their
    contiguous axis, not by a matrix product (BLAS rounds a row
    differently in products of other shapes), so each value has the
    bits of its own time, whatever batch or stack it sits in.
    """
    times, scalar = _as_times(t)
    n = lam.shape[-1]
    half = n // 2
    phases = 0.5 * times[..., :, None] * lam[..., None, :half]
    odd = (n if node is None else node) % 2 == 1
    terms = np.cos(phases, out=phases) if odd else np.sin(phases, out=phases)
    terms *= 2.0 * ends[..., None, :half]
    series = terms.sum(axis=-1)
    if odd and n % 2 == 1:
        series += ends[..., half, None]
    probs = np.square(series, out=series)
    if not scalar:
        return probs
    return float(probs[0]) if probs.ndim == 1 else probs[..., 0]


def paired_grid_probability(
    lam: np.ndarray, ends: np.ndarray, step: np.ndarray, first: np.ndarray, count: int
) -> np.ndarray:
    """P_N(k * step) for k = first..first+count-1 on each chain of a stack, by angle addition.

    The series of paired_transfer_probability on uniform grids: lam and
    ends (S, N), step and first (S,), result (S, count).  With k = K + r,
    block starts K = first + q*B and offsets 0 <= r < B, B about
    sqrt(count),

        sin(k a) = sin(K a) cos(r a) + cos(K a) sin(r a),
        cos(k a) = cos(K a) cos(r a) - sin(K a) sin(r a),

    so the series of a chain is two (count/B x N/2) @ (N/2 x B) products
    of a block-start and an offset table, about 2 sqrt(count) sines and
    cosines per level.  One broadcast product gives the phases of every
    chain, so a chain's row has the bits of its call alone.  The offsets
    round their phases differently from the direct series;
    rounding_bound bounds how far either lies from the series of their
    inputs.
    """
    n = lam.shape[-1]
    half, block = n // 2, math.isqrt(count - 1) + 1
    index = np.empty((len(lam), block + -(-count // block)))
    index[:, :block] = np.arange(block)
    index[:, block:] = first[:, None] + np.arange(0, count, block)
    phases = (step[:, None] * index)[..., None] * (0.5 * lam[:, None, :half])
    table = np.empty((2, *phases.shape))  # sines, cosines: offsets, then block starts
    np.sin(phases, out=table[0])
    np.cos(phases, out=table[1])
    weighted = 2.0 * ends[:, None, :half] * table[:, :, block:]  # 2 c sin, 2 c cos of starts
    lead = weighted if n % 2 == 0 else weighted[::-1]
    series, other = lead @ table[::-1, :, :block].swapaxes(-1, -2)  # cos, sin of the offsets
    if n % 2 == 0:
        series += other
    else:
        series -= other
        series += ends[:, half, None, None]
    probs = series.reshape(len(lam), -1)[:, :count]
    return np.square(probs, out=probs)


def paired_transfer_derivatives(lam: np.ndarray, ends: np.ndarray, t: float) -> tuple[float, float]:
    """(dP_N/dt, d^2P_N/dt^2) = (2 s s', 2 (s'^2 + s s'')) of one chain at one time.

    s is the series of paired_transfer_probability; its derivatives
    scale each level's term by lambda_j / 2 and turn sines into cosines.
    """
    half = lam.size // 2
    phases, c, rates = 0.5 * t * lam[:half], ends[:half], ends[:half] * lam[:half]
    sin, cos = np.sin(phases), np.cos(phases)
    if lam.size % 2 == 0:
        s, ds, dds = 2.0 * (sin @ c), cos @ rates, -0.5 * (sin @ (rates * lam[:half]))
    else:
        s, ds = 2.0 * (cos @ c) + ends[half], -(sin @ rates)
        dds = -0.5 * (cos @ (rates * lam[:half]))
    return float(2.0 * s * ds), float(2.0 * (ds * ds + s * dds))


def series_bounds(lam: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """(c0, a, b, S1, S2) of the series s of P_N = s^2, from the weights 2|c_j| of its levels.

    lam and ends are (..., N) as in paired_transfer_probability, each
    bound (...).  a is the slowest level's weight, b the sum of the
    others' and c0 = |c_0| the zero mode's (0 on an even chain): |s| <=
    c0 + a |f(lambda_min t/2)| + b, f = sin on an even chain and cos on
    an odd one, and c0 + a + b <= 1 (Cauchy-Schwarz on u_1 and u_N).
    S1 = sum_j |c_j| lambda_j and S2 = 1/2 sum_j |c_j| lambda_j^2 bound
    |s'| and |s''|, so |P''| <= 2 (S1^2 + S2): between samples d apart P
    exceeds the larger by at most (S1^2 + S2) d^2 / 4, and within h of
    a stationary point it lies at most (S1^2 + S2) h^2 below it.
    """
    half = lam.shape[-1] // 2
    weights = 2.0 * np.abs(ends[..., :half])
    rates = weights * lam[..., :half]
    zero = np.abs(ends[..., half]) if lam.shape[-1] % 2 else np.zeros(lam.shape[:-1])
    slow, fast = weights[..., half - 1], weights[..., :half - 1].sum(axis=-1)
    return zero, slow, fast, 0.5 * rates.sum(axis=-1), 0.25 * (rates * lam[..., :half]).sum(axis=-1)


def rounding_bound(n: int, size: float, s1: float, t: float) -> float:
    """How far P_N of an N-site chain, by either kernel at times up to t, lies from its series.

    The series of the kernels' float inputs at the float times, with
    size >= |s| and s1 = S1 (series_bounds).  With u = eps/2 the
    computed s lies within e = u (3 t S1 + (N + 12) size) of it, and
    P = s^2 within e (2 size + e) + u (size + e)^2 (Higham 2002, ch. 3).
    Phases: the direct series rounds lambda t/2 once; angle addition
    rounds step*K, step*r and both phases and is compared at fl(step*k),
    3 u t lambda/2 in all, 3 u t S1 over the weights 2|c_j|.  Per level,
    the sines and cosines (accurate to an ulp, 2 sqrt(2) u in angle
    addition's sin(Ka) cos(ra) + cos(Ka) sin(ra)) and the products by
    2 c_j and the offsets round; the sums over the levels add gamma_{N/2},
    and those of the two products and of c_0 u each.  The rest is slack,
    for second-order terms and comparisons with the bound.
    """
    u = 0.5 * _EPS
    e = u * (3.0 * t * s1 + (n + 12) * size)
    return e * (2.0 * size + e) + u * (size + e) ** 2


def sample_curve(
    eig: EigenSystem,
    t_max: float,
    n_samples: int,
    node: int | None = None,
) -> TransferCurve:
    """Uniform probability samples of one node (default N) on [0, t_max].

    The endpoints are included.  A node outside 1..N raises
    ValidationError, and a t_max beyond check_horizon HorizonError.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    node = eig.size if node is None else node
    weights = _node_weights(eig, node)
    check_horizon(t_max, float(np.max(np.abs(eig.eigenvalues))))
    times = np.linspace(0.0, float(t_max), int(n_samples))
    probs = paired_transfer_probability(eig.eigenvalues, weights, times, node)
    return TransferCurve(times=times, probabilities=probs, node=node)


def transfer_probability_even_form(
    spec: ChainSpec, roots: EvenRootSet, t: float | np.ndarray
) -> float | np.ndarray:
    """P_N(t) of an even chain as an (N/2)-term sine series.

    P = |2 * [sum_j A_j^2 (-1)^(j+1) sin^2(N x_j/2) sin(t lambda_j/2)
              + (-1)^(N/2+1) A_h^2 sinh^2(N y/2) sin(t lambda_h/2)]|^2.

    The coefficients are the products u_Nj * u_1j of the closed-form
    eigenvectors, so this must agree with the spectral sum to 1e-10.
    A hyperbolic level whose square rounds to <= 0, or whose
    normalisation would overflow, raises NumericError, as in
    eigensystem_even.
    """
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 0:
        raise ValidationError(f"even-chain form needs even N, got {n}")
    times, scalar = _as_times(t)

    xs = roots.x_roots
    y = roots.y_root
    if (n + 1) * y > 300.0:
        raise NumericError(f"hyperbolic normalisation would overflow for N={n}, delta={delta}")
    lam = np.empty(n // 2)
    coeff = np.empty(n // 2)
    if xs.size:
        lam[:-1] = np.sqrt(1.0 + delta * delta + 2.0 * delta * np.cos(xs))
        norm_sq = 2.0 / ((n + 1) - np.sin((n + 1) * xs) / np.sin(xs))
        signs = np.where(np.arange(1, xs.size + 1) % 2 == 1, 1.0, -1.0)
        coeff[:-1] = norm_sq * signs * np.sin(0.5 * n * xs) ** 2
    value = 1.0 + delta * delta - 2.0 * delta * math.cosh(y)
    if value <= 0.0:
        raise NumericError(f"hyperbolic eigenvalue collapsed (lambda^2={value:.3e})")
    lam[-1] = math.sqrt(value)
    norm_sq_h = 2.0 / (math.sinh((n + 1) * y) / math.sinh(y) - (n + 1))
    sign_h = 1.0 if (n // 2 + 1) % 2 == 0 else -1.0
    coeff[-1] = sign_h * norm_sq_h * math.sinh(0.5 * n * y) ** 2

    series = 2.0 * (np.sin(0.5 * np.multiply.outer(times, lam)) @ coeff)
    probs = series**2
    return float(probs[0]) if scalar else probs


def transfer_probability_odd_form(spec: ChainSpec, t: float | np.ndarray) -> float | np.ndarray:
    """P_N(t) of an odd chain as a cosine series plus a constant.

    P = |2 * sum_j A^2 (delta / lambda_j^2)
             * sin(2 pi j/(N+1)) sin(pi j (N-1)/(N+1)) cos(lambda_j t/2)
         + B^2 (-delta)^((N-1)/2)|^2,

    with A^2 = 2/(N+1) and B the zero-mode end weight.  The constant
    is the permanent imprint of the zero mode on both chain ends.
    """
    n, delta = spec.n_sites, spec.delta
    if n % 2 != 1:
        raise ValidationError(f"odd-chain form needs odd N, got {n}")
    times, scalar = _as_times(t)

    m = (n - 1) // 2
    j = np.arange(1, m + 1)
    theta = 2.0 * math.pi * j / (n + 1)
    lam_sq = 1.0 + 2.0 * delta * np.cos(theta) + delta * delta
    lam = np.sqrt(lam_sq)
    amp_sq = 2.0 / (n + 1)
    coeff = amp_sq * (delta / lam_sq) * np.sin(theta) * np.sin(
        math.pi * j * (n - 1) / (n + 1)
    )
    if abs(delta - 1.0) < 1e-8:
        weight_sq = 2.0 / (n + 1)
    else:
        try:
            weight_sq = (delta * delta - 1.0) / (delta ** (n + 1) - 1.0)
        except OverflowError:
            weight_sq = 0.0
    try:
        constant = weight_sq * (-delta) ** ((n - 1) // 2)
    except OverflowError:
        constant = 0.0  # end weight decays as delta^(-(N-1)/2) for huge ratios

    series = 2.0 * (np.cos(0.5 * np.multiply.outer(times, lam)) @ coeff) + constant
    probs = series**2
    return float(probs[0]) if scalar else probs


def _full_space_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N spin Hamiltonian whose one-excitation block is D/2.

    Site n maps to bit n-1, and an excited site carries spin projection
    +1/2.  Each bond contributes hopping D_n/2 between basis states
    whose two bond bits differ.
    """
    dim = 1 << spec.n_sites
    states = np.arange(dim, dtype=np.int64)
    ham = np.zeros((dim, dim))
    for i, strength in enumerate(spec.couplings()):
        src = states[((states >> i) & 1) != ((states >> (i + 1)) & 1)]
        ham[src, src ^ ((1 << i) | (1 << (i + 1)))] = 0.5 * strength
    return ham


def _full_space_states(spec: ChainSpec, times: np.ndarray) -> np.ndarray:
    """2^N states at each time, shape (T, 2^N), from one excitation on site 1."""
    if spec.n_sites > _FULL_SPACE_MAX_SITES:
        raise ResourceError(
            f"full-space evolution is guarded at N <= {_FULL_SPACE_MAX_SITES}, "
            f"got N={spec.n_sites}"
        )
    energy, modes = np.linalg.eigh(_full_space_hamiltonian(spec))
    return (np.exp(-1j * np.multiply.outer(times, energy)) * modes[1]) @ modes.T


def full_space_amplitude(spec: ChainSpec, t: float | np.ndarray) -> complex | np.ndarray:
    """Brute-force end-to-end amplitude in the full 2^N spin space.

    A dense eigen-decomposition of the 2^N Hamiltonian, for N up to 10;
    larger sizes raise ResourceError.  |result|^2 must match
    transfer_probability, which validates the one-excitation reduction
    end to end.
    """
    times, scalar = _as_times(t)
    amps = _full_space_states(spec, times)[:, 1 << (spec.n_sites - 1)]
    return complex(amps[0]) if scalar else amps
