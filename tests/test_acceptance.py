"""Acceptance gate: the published target numbers at their stated tolerances.

Each criterion is one test; run with `pytest tests/test_acceptance.py -v -s`
to see one pass/fail line per criterion with timing.  Reference values and
tolerances live next to each test.

Criterion 4 checks the fixed-ratio sweep at ratio 2.380 twice over.  Every
row must be the maximum of P_N over the search window (0, 1.3*pi/lambda_min]
that an independent oracle finds: a finer scan and a root of dP/dt, on the
eigen route the sweep does not take (the SVD engine where the sweep uses
the closed form, the closed form where it uses the SVD engine).  Four of the
seven published (t, P) pairs, N = 4, 6, 8 and 12, are that maximum and are
asserted at 0.5 % in t and 0.01 in P.  The other three are not, and each is
pinned as the disagreement it is, at the same tolerances:

- N = 10, published (131.278, 0.939): off the curve.  The full 2^N
  propagator gives P(131.278) = 0.4471, between the local peaks at 128.655
  (0.961, the sweep row) and 134.12 (0.825).
- N = 14, published (721.119, 0.962): the sweep at ratio 2.390 gives
  (721.009, 0.9618); at 2.380 the window maximum is (718.472, 0.9515).
- N = 16, published (1403.554, 0.901): a real local peak of the 2.380
  curve, (1403.553, 0.9013) on the closed form, but lower by more than the
  0.01 tolerance than the window maximum (1882.201, 0.9148) at
  1.14*pi/lambda_min.  The published pair is the earliest peak above 0.9,
  not the highest.

The test prints one verdict per row, passing or not, so the three
disagreements stay visible under `-s`.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

from altchain import (
    PROVENANCE_NUMERIC,
    ChainSpec,
    bound_report,
    build_coupling_matrix,
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    fixed_time_optimize,
    first_peak,
    full_space_amplitude,
    ideal_solutions,
    n4_probability,
    table1_sweep,
    transfer_probability,
)
from altchain import verify as verify_mod


@contextmanager
def criterion(label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[{label}] FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{label}] PASS ({elapsed:.2f} s)")
    assert elapsed < budget_s, f"{label} exceeded its {budget_s} s budget"


def _peak_case(n, delta, t_peak, p_expected, positive_expected):
    eig = eigensystem_for(ChainSpec(n, delta))
    p = float(transfer_probability(eig, t_peak))
    assert p == pytest.approx(p_expected, abs=1e-3), f"P({t_peak})={p:.6f}"
    positive = eig.eigenvalues[eig.eigenvalues > 0.0]
    assert np.allclose(positive, positive_expected, atol=2e-3, rtol=0.0), (
        f"positive eigenvalues {positive}"
    )


def test_criterion_01_four_site_peak():
    with criterion("C01 four-site peak", 1.0):
        _peak_case(4, 2.272, 8.303, 0.999, (2.649, 0.377))


def test_criterion_02_six_site_peak():
    with criterion("C02 six-site peak", 1.0):
        _peak_case(6, 2.373, 21.428, 0.997, (3.060, 2.208, 0.148))


def test_criterion_03_eight_site_peak():
    with criterion("C03 eight-site peak", 1.0):
        _peak_case(8, 2.557, 58.966, 0.989, (3.366, 2.828, 2.070, 0.051))


TABLE1_TARGETS = {
    4: (8.084, 0.990),
    6: (21.378, 0.997),
    8: (57.654, 0.957),
    10: (131.278, 0.939),
    12: (265.631, 0.949),
    14: (721.119, 0.962),
    16: (1403.554, 0.901),
}


def _matches_published(t, p, t_ref, p_ref):
    return abs(t - t_ref) / t_ref <= 0.005 and abs(p - p_ref) <= 0.01


def _other_route(spec):
    """Eigensystem of spec by the route first_peak does not take."""
    if eigensystem_for(spec).provenance == PROVENANCE_NUMERIC:
        return eigensystem_even(spec)
    return eigensystem_numeric(build_coupling_matrix(spec))


def _window_end(eig):
    """End of first_peak's documented search window, 1.3*pi/lambda_min."""
    return 1.3 * math.pi / eig.smallest_positive()


def _end_amplitude(eig, times):
    """Amplitude on the last site and its time derivative."""
    weights = eig.vectors[-1] * eig.vectors[0]
    phases = np.exp(-0.5j * np.multiply.outer(times, eig.eigenvalues))
    return phases @ weights, phases @ (-0.5j * eig.eigenvalues * weights)


def _highest_peak(eig, lo, hi):
    """(t, P) of the highest local maximum of P_N on (lo, hi], None if at an edge.

    Scans at half the coarsest step first_peak promises (0.01, and a
    fiftieth of the fastest half-period), then solves dP/dt = 0 between
    the neighbours of the best sample.
    """
    step = 0.5 * min(0.01, math.pi / (50.0 * eig.eigenvalues[0]))
    count = int(math.ceil((hi - lo) / step))
    step = (hi - lo) / count
    best_p, best_t = -1.0, lo
    for start in range(1, count + 1, 65536):
        times = lo + step * np.arange(start, min(start + 65536, count + 1))
        probs = np.abs(_end_amplitude(eig, times)[0]) ** 2
        k = int(np.argmax(probs))
        if probs[k] > best_p:
            best_p, best_t = float(probs[k]), float(times[k])

    def slope(t):
        amp, rate = _end_amplitude(eig, np.array([t]))
        return float(2.0 * np.real(np.conj(amp[0]) * rate[0]))

    left, right = best_t - step, best_t + step
    if not (left >= lo and right <= hi and slope(left) > 0.0 > slope(right)):
        return None
    t = brentq(slope, left, right, xtol=1e-12)
    return t, float(np.abs(_end_amplitude(eig, np.array([t]))[0][0]) ** 2)


def _off_the_curve(row, t_ref, p_ref):
    p = abs(full_space_amplitude(ChainSpec(row.n_sites, row.delta), t_ref)) ** 2
    return p < p_ref - 0.01, f"off the curve: full-space P({t_ref}) = {p:.4f}"


def _other_ratio(row, t_ref, p_ref):
    (other,) = table1_sweep(2.390, [row.n_sites])
    found = _matches_published(other.t_h1, other.p_h1, t_ref, p_ref)
    return found, f"the sweep at ratio 2.390: ({other.t_h1:.3f}, {other.p_h1:.4f})"


def _lower_peak(row, t_ref, p_ref):
    eig = _other_route(ChainSpec(row.n_sites, row.delta))
    peak = _highest_peak(eig, t_ref * 0.995, min(t_ref * 1.005, _window_end(eig)))
    if peak is None:
        return False, "no local peak of the curve near the published time"
    t, p = peak
    lower = _matches_published(t, p, t_ref, p_ref) and p < row.p_h1 - 0.01
    return lower, f"a lower local peak: ({t:.3f}, {p:.4f})"


# published rows that the window-maximum rule does not produce, and how
# each disagreement is checked instead (see the module docstring)
TABLE1_DISAGREEMENTS = {10: _off_the_curve, 14: _other_ratio, 16: _lower_peak}


def test_criterion_04_table_sweep():
    with criterion("C04 fixed-ratio sweep", 120.0):
        rows = table1_sweep(2.380, sorted(TABLE1_TARGETS))
        report = []
        misses = []
        for row in rows:
            t_ref, p_ref = TABLE1_TARGETS[row.n_sites]
            eig = _other_route(ChainSpec(row.n_sites, row.delta))
            peak = _highest_peak(eig, 0.0, _window_end(eig))
            is_max = (
                peak is not None
                and abs(row.t_h1 - peak[0]) <= 1e-6
                and abs(row.p_h1 - peak[1]) <= 1e-9
            )
            if row.n_sites in TABLE1_DISAGREEMENTS:
                agrees, verdict = TABLE1_DISAGREEMENTS[row.n_sites](row, t_ref, p_ref)
            else:
                agrees = _matches_published(row.t_h1, row.p_h1, t_ref, p_ref)
                verdict = "reproduced" if agrees else "MISSED"
            oracle = "none" if peak is None else f"({peak[0]:.3f}, {peak[1]:.4f})"
            report.append(
                f"N={row.n_sites:2d}: got ({row.t_h1:9.3f}, {row.p_h1:.4f}) "
                f"window max {oracle} on {eig.provenance} "
                f"[{'ok' if is_max else 'MISS'}]; "
                f"published ({t_ref:9.3f}, {p_ref:.3f}) {verdict} "
                f"[{'ok' if agrees else 'MISS'}]"
            )
            if not (is_max and agrees):
                misses.append(row.n_sites)
        print("\n".join(report))
        assert not misses, (
            f"sweep rows N={misses} break the window-maximum rule or the "
            "published comparison:\n" + "\n".join(report)
        )


def test_criterion_05_fixed_time():
    with criterion("C05 fixed-time ratio", 30.0):
        triad = fixed_time_optimize(8, 60.0, 2.0, 3.0)
        assert triad.delta_h == pytest.approx(2.510, abs=0.01)
        assert triad.p_h == pytest.approx(0.973, abs=2e-3)


def test_criterion_06_ideal_four_site_family():
    with criterion("C06 perfect-transfer family", 1.0):
        t_min = math.pi * math.sqrt(3.0)
        assert n4_probability(2.0 / math.sqrt(3.0), t_min) >= 1.0 - 1e-6
        assert t_min == pytest.approx(5.441, abs=1e-3)
        for sol in ideal_solutions(120):
            assert sol.probability >= 1.0 - 1e-9, (sol.a, sol.b)


def test_criterion_07_five_site_peaks():
    with criterion("C07 five-site peaks", 1.0):
        eig = eigensystem_for(ChainSpec(5, 1.0))
        assert float(transfer_probability(eig, 6.764)) == pytest.approx(
            0.942, abs=1e-3
        )
        assert float(transfer_probability(eig, 43.757)) == pytest.approx(
            0.987, abs=1e-3
        )


def test_criterion_08_five_site_bound():
    with criterion("C08 five-site cap", 5.0):
        spec = ChainSpec(5, 2.0)
        report = bound_report(spec)
        assert abs(report.delta_max - 6.0 / 7.0) <= 1e-12
        assert abs(report.p_bound - 361.0 / 441.0) <= 1e-12
        times = np.linspace(1e-3, 500.0, 100000)
        sampled = float(np.max(transfer_probability(eigensystem_for(spec), times)))
        assert sampled <= report.p_bound


def test_criterion_09_peak_estimate():
    with criterion("C09 first-peak estimate", 5.0):
        for n, delta in [(4, 2.272), (6, 2.373), (8, 2.557)]:
            triad = first_peak(ChainSpec(n, delta))
            rel = abs(triad.t_h - triad.lambda_min_estimate) / triad.t_h
            assert rel <= 0.10, f"N={n}: {rel:.1%}"


def test_criterion_10_property_suite(tmp_path):
    with criterion("C10 property suite", 180.0):
        verify_mod.run_all(checks=[
            "even-agreement", "odd-agreement", "form-equivalence",
            "unitarity", "full-space-oracle", "inner-nodes",
        ])
        outputs = []
        for name in ("first.csv", "second.csv"):
            target = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "altchain.cli",
                    "table1", "--delta", "2.380", "--n", "4,6,8",
                    "--output", str(target),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
