"""End-to-end consistency suite.

Runs every cross-check the library promises: analytic spectra against
the SVD engine, the values-only spectra of the searches against that
engine's eigensystems, the searches' peaks against the reference
probability route at their own ratio and time, reduced probability forms
against the spectral sum, the subspace dynamics against the full
Hilbert-space propagator, probability caps against sampled curves, and
determinism of the ratio search.  Checks run in order and the first
violation aborts with the offending parameters in the message.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, TextIO

import numpy as np

from .bounds import bound_report
from .chain import ChainSpec, build_coupling_matrix
from .dynamics import (
    full_space_amplitude,
    node_probability,
    transfer_probability,
    transfer_probability_even_form,
    transfer_probability_odd_form,
)
from .errors import NumericError, VerificationError
from .ideal4 import ideal_solutions, n4_frequencies, n4_probability
from .search import first_peak, fixed_time_optimize, optimize_delta
from .spectral import (
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    eigensystem_odd,
    solve_even_roots,
    spectra,
)

_EVEN_GRID = [(n, d) for n in range(4, 17, 2) for d in (2.0, 2.38, 3.0)]
_ODD_GRID = [(n, d) for n in range(3, 16, 2) for d in (1.0, 1.5, 2.0)]
_TRIADS = [(4, 2.272), (6, 2.373), (8, 2.557)]
_ROUTE_PEAKS = [(4, 2.272), (8, 2.557), (9, 2.38)]
_ROUTE_ARRIVALS = [(8, 60.0, 2.0, 3.0), (5, 37.5, 1.7, 2.1)]


def _fail(name: str, detail: str):
    raise VerificationError(f"{name}: {detail}")


def _check_columns_match(name: str, a: np.ndarray, b: np.ndarray, tol: float, ctx: str):
    for col in range(a.shape[1]):
        u, v = a[:, col], b[:, col]
        diff = min(float(abs(u - v).max()), float(abs(u + v).max()))
        if not diff <= tol:
            _fail(name, f"{ctx}: column {col + 1} differs by {diff:.3e} (tol {tol:.0e})")


def _eigen_agreement(name: str, grid, analytic: Callable[[ChainSpec], object]):
    for n, d in grid:
        spec = ChainSpec(n, d)
        ana = analytic(spec)
        num = eigensystem_numeric(build_coupling_matrix(spec))
        lam_diff = float(abs(ana.eigenvalues - num.eigenvalues).max())
        if not lam_diff <= 1e-9:
            _fail(name, f"N={n} delta={d}: eigenvalues differ by {lam_diff:.3e}")
        _check_columns_match(name, ana.vectors, num.vectors, 1e-8, f"N={n} delta={d}")


def check_even_agreement() -> None:
    _eigen_agreement("even-agreement", _EVEN_GRID, eigensystem_even)


def check_odd_agreement() -> None:
    _eigen_agreement("odd-agreement", _ODD_GRID, eigensystem_odd)


def check_even_root_count() -> None:
    for n, d in _EVEN_GRID:
        try:
            solve_even_roots(ChainSpec(n, d))
        except NumericError as exc:
            _fail("even-root-count", f"N={n} delta={d}: {exc}")


def check_lambda_min_decreasing() -> None:
    previous = math.inf
    for n in range(4, 17, 2):
        eig = eigensystem_even(ChainSpec(n, 2.38))
        lam = eig.smallest_positive()
        if not lam < previous:
            _fail(
                "lambda-min-decreasing",
                f"N={n} delta=2.38: lambda_min {lam:.6e} not below {previous:.6e}",
            )
        previous = lam


def check_spectral_negation() -> None:
    for n, d in _EVEN_GRID + _ODD_GRID:
        eig = eigensystem_for(ChainSpec(n, d))
        lam = np.sort(eig.eigenvalues)
        diff = float(abs(lam + lam[::-1]).max())
        if not diff <= 1e-10:
            _fail("spectral-negation", f"N={n} delta={d}: asymmetry {diff:.3e}")


def check_spectra_route() -> None:
    """spectra, the route of every search number, against eigensystem_for.

    Both parities and one long chain: the levels must be bit-equal and
    the end products within 1e-12 of u_1j * u_Nj from the singular
    vectors; a stack that spectra refuses fails the check.
    """
    deltas = np.array([0.5, 2.38])
    for n in (8, 9, 64):
        try:
            lam, ends = spectra(n, deltas)
        except NumericError as exc:
            _fail("spectra-route", f"N={n}: {exc}")
        for i, delta in enumerate(deltas):
            eig = eigensystem_for(ChainSpec(n, float(delta)))
            if not np.array_equal(lam[i], eig.eigenvalues):
                _fail("spectra-route", f"N={n} delta={delta}: levels differ from eigensystem_for")
            diff = float(np.max(np.abs(ends[i] - eig.vectors[0] * eig.vectors[-1])))
            if not diff <= 1e-12:
                _fail("spectra-route", f"N={n} delta={delta}: end products off by {diff:.3e}")


def check_form_equivalence() -> None:
    """Closed-form reduced series against the spectral sum of the SVD engine."""
    times = np.linspace(0.0, 80.0, 1000)
    for n, d in [(4, 2.38), (6, 2.373), (8, 2.557), (12, 2.38)]:
        spec = ChainSpec(n, d)
        reference = transfer_probability(eigensystem_for(spec), times)
        roots = solve_even_roots(spec)
        reduced = transfer_probability_even_form(spec, roots, times)
        diff = float(abs(reference - reduced).max())
        if not diff <= 1e-10:
            _fail("form-equivalence", f"even N={n} delta={d}: deviation {diff:.3e}")
    for n, d in [(3, 1.0), (5, 1.0), (5, 2.0), (9, 1.5), (15, 2.0)]:
        spec = ChainSpec(n, d)
        reference = transfer_probability(eigensystem_for(spec), times)
        reduced = transfer_probability_odd_form(spec, times)
        diff = float(abs(reference - reduced).max())
        if not diff <= 1e-10:
            _fail("form-equivalence", f"odd N={n} delta={d}: deviation {diff:.3e}")


def check_unitarity() -> None:
    times = np.linspace(0.0, 60.0, 200)
    cases = [
        ChainSpec(4, 2.38),
        ChainSpec(5, 1.0),
        ChainSpec(8, 0.8),
        ChainSpec(11, 2.0),
    ]
    for spec in cases:
        eig = eigensystem_for(spec)
        total = sum(node_probability(eig, node, times) for node in range(1, spec.n_sites + 1))
        diff = float(abs(total - 1.0).max())
        if not diff <= 1e-10:
            _fail(
                "unitarity",
                f"N={spec.n_sites} delta={spec.delta}: sum deviates by {diff:.3e}",
            )


def check_full_space_oracle() -> None:
    times = np.linspace(0.0, 30.0, 50)
    for n, d in [(n, 2.38) for n in range(2, 9)] + [(5, 0.7)]:
        spec = ChainSpec(n, d)
        eig = eigensystem_for(spec)
        subspace = transfer_probability(eig, times)
        full = np.abs(full_space_amplitude(spec, times)) ** 2
        worst = int(np.argmax(np.abs(full - subspace)))
        if not abs(full[worst] - subspace[worst]) <= 1e-8:
            _fail(
                "full-space-oracle",
                f"N={n} delta={d} t={times[worst]:.3f}: subspace {subspace[worst]:.12f} "
                f"vs full {full[worst]:.12f}",
            )


def check_bound_dominance() -> None:
    times = np.linspace(1e-3, 500.0, 50000)
    for n in (5, 7, 9):
        for d in (1.0, 1.5, 2.0):
            spec = ChainSpec(n, d)
            cap = bound_report(spec).p_bound
            peak = float(np.max(node_probability(eigensystem_for(spec), n, times)))
            if not peak <= cap + 1e-9:
                _fail(
                    "bound-dominance",
                    f"N={n} delta={d}: sampled max {peak:.9f} exceeds cap {cap:.9f}",
                )


def check_cosine_identity() -> None:
    for n in range(3, 16, 2):
        total = sum(
            math.cos(2.0 * math.pi * j / (n + 1)) for j in range(1, (n - 1) // 2 + 1)
        )
        if not abs(total) <= 1e-12:
            _fail("cosine-identity", f"N={n}: partial sum {total:.3e}")


def check_f2_limit() -> None:
    for n in range(3, 16, 2):
        value = bound_report(ChainSpec(n, 1.0 + 1e-9)).f2_value
        limit = 2.0 / (n + 1)
        if not abs(value - limit) <= 1e-8:
            _fail("f2-limit", f"N={n}: {value:.12f} vs limit {limit:.12f}")


def check_ideal_family() -> None:
    solutions = ideal_solutions(100)
    if not solutions:
        _fail("ideal-family", "no solutions emitted for max_product=100")
    for sol in solutions:
        p = n4_probability(sol.delta_bar, sol.t_bar)
        if not p >= 1.0 - 1e-9:
            _fail("ideal-family", f"(a={sol.a}, b={sol.b}): P={p:.15f}")
        expected_t = math.pi * math.sqrt(sol.a * sol.b)
        if sol.t_bar != expected_t:
            _fail(
                "ideal-family",
                f"(a={sol.a}, b={sol.b}): t_bar {sol.t_bar!r} != pi*sqrt(ab)",
            )
        small, large = n4_frequencies(sol.delta_bar)
        if not abs(small * large - 1.0) <= 1e-12:
            _fail(
                "ideal-family",
                f"(a={sol.a}, b={sol.b}): frequency product {small * large:.15f}",
            )
    t_min = min(sol.t_bar for sol in solutions)
    if not abs(t_min - math.pi * math.sqrt(3.0)) <= 1e-12:
        _fail("ideal-family", f"min t_bar {t_min:.12f} != pi*sqrt(3)")


def check_peak_estimate() -> None:
    for n, d in _TRIADS:
        triad = first_peak(ChainSpec(n, d))
        rel = abs(triad.t_h - triad.lambda_min_estimate) / triad.t_h
        if not rel <= 0.10:
            _fail(
                "peak-estimate",
                f"N={n} delta={d}: t_h {triad.t_h:.4f} vs estimate "
                f"{triad.lambda_min_estimate:.4f} ({rel:.1%})",
            )


def check_search_route() -> None:
    """The searches' p_h against the reference route at their own (delta_h, t_h).

    first_peak on both parities and fixed_time_optimize on an even and
    an odd chain: p_h must lie within 1e-12 of transfer_probability on
    eigensystem_for at (delta_h, t_h), and a first-peak t_h inside its
    window (0, 1.3 pi / lambda_min], with a relative slack of 1e-12 for
    a peak at the window end.
    """
    cases = [(n, first_peak(ChainSpec(n, d)), True) for n, d in _ROUTE_PEAKS]
    cases += [(args[0], fixed_time_optimize(*args), False) for args in _ROUTE_ARRIVALS]
    for n, triad, peak in cases:
        eig = eigensystem_for(ChainSpec(n, triad.delta_h))
        ctx = f"N={n} delta_h={triad.delta_h:.12g} t_h={triad.t_h:.12g}"
        diff = abs(triad.p_h - float(transfer_probability(eig, triad.t_h)))
        if not diff <= 1e-12:
            _fail("search-route", f"{ctx}: p_h off the reference route by {diff:.3e}")
        window = 1.3 * math.pi / eig.smallest_positive()
        if peak and not 0.0 < triad.t_h <= window * (1.0 + 1e-12):
            _fail("search-route", f"{ctx}: t_h outside the peak window (0, {window:.12g}]")


def check_search_determinism() -> None:
    first = optimize_delta(4, 2.25, 2.29)
    rerun = optimize_delta(4, 2.25, 2.29)
    if repr(first) != repr(rerun):
        _fail("search-determinism", f"first run {first} vs rerun {rerun}")


def check_inner_nodes() -> None:
    for n, d in _TRIADS:
        spec = ChainSpec(n, d)
        eig = eigensystem_for(spec)
        t_h = first_peak(spec).t_h
        times = np.linspace(1e-4, 2.0 * t_h, 8000)
        for node in range(2, n):
            peak = float(np.max(node_probability(eig, node, times)))
            if not peak < 0.9:
                _fail(
                    "inner-nodes",
                    f"N={n} delta={d} node {node}: max P {peak:.4f} >= 0.9",
                )


def check_odd_amplitude_decay() -> None:
    times = np.linspace(1e-4, 50.0, 50000)
    peaks = {}
    for d in (1.0, 2.0):
        eig = eigensystem_for(ChainSpec(5, d))
        peaks[d] = float(np.max(node_probability(eig, 5, times)))
    if not peaks[2.0] < peaks[1.0]:
        _fail(
            "odd-amplitude-decay",
            f"N=5: max at delta=2 ({peaks[2.0]:.6f}) not below "
            f"delta=1 ({peaks[1.0]:.6f})",
        )


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("even-agreement", check_even_agreement),
    ("odd-agreement", check_odd_agreement),
    ("even-root-count", check_even_root_count),
    ("lambda-min-decreasing", check_lambda_min_decreasing),
    ("spectral-negation", check_spectral_negation),
    ("spectra-route", check_spectra_route),
    ("form-equivalence", check_form_equivalence),
    ("unitarity", check_unitarity),
    ("full-space-oracle", check_full_space_oracle),
    ("bound-dominance", check_bound_dominance),
    ("cosine-identity", check_cosine_identity),
    ("f2-limit", check_f2_limit),
    ("ideal-family", check_ideal_family),
    ("peak-estimate", check_peak_estimate),
    ("search-route", check_search_route),
    ("search-determinism", check_search_determinism),
    ("inner-nodes", check_inner_nodes),
    ("odd-amplitude-decay", check_odd_amplitude_decay),
]


def run_all(stream: TextIO | None = None, checks: Iterable[str] | None = None) -> None:
    """Run the suite, printing one status line per check.

    Raises VerificationError on the first failing check; the message
    carries the check name and the offending parameters.
    """
    wanted = None if checks is None else set(checks)
    known = {name for name, _ in CHECKS}
    if wanted is not None and not wanted <= known:
        raise VerificationError(f"unknown checks: {sorted(wanted - known)}")
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        if stream is not None:
            stream.write(f"{name:<24s} ")
            stream.flush()
        try:
            fn()
        except VerificationError:
            if stream is not None:
                stream.write("FAIL\n")
            raise
        if stream is not None:
            stream.write("ok\n")
