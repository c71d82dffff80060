"""Transfer probabilities: spectral sum, reduced forms, full-space oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altchain import (
    ChainSpec,
    HorizonError,
    NumericError,
    ResourceError,
    ValidationError,
    build_coupling_matrix,
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    eigensystem_odd,
    full_space_amplitude,
    node_probability,
    paired_transfer_probability,
    sample_curve,
    solve_even_roots,
    spectra,
    transfer_probability,
    transfer_probability_even_form,
    transfer_probability_odd_form,
)
from altchain import dynamics, search
from altchain.dynamics import (
    _full_space_states,
    check_horizon,
    paired_grid_probability,
    paired_transfer_derivatives,
    rounding_bound,
    series_bounds,
)
from altchain.search import _peak_grid
from test_verify import _kernel, _scaled, _without_zero_mode, assert_seeded_defect_fails

P_8303 = 0.9999853660555051  # four sites, ratio 2.272
P_N5_EARLY = 0.9423883339086744  # five sites, uniform, first high peak
P_N5_LATE = 0.9873483492828586  # five sites, uniform, revival near 43.757


def complex_node_probability(eig, node, times):
    """P_node as the complex sum over all N eigenpairs, without the pairing."""
    phases = np.exp(-0.5j * np.multiply.outer(times, eig.eigenvalues))
    return np.abs(phases @ (eig.vectors[node - 1] * eig.vectors[0])) ** 2


def full_space_state(spec, t):
    """The 2^N state at one time, from one excitation on site 1."""
    return _full_space_states(spec, np.array([t]))[0]


def z_projection_expectation(state):
    """Expectation of the total spin-z projection in a 2^N state."""
    n = state.size.bit_length() - 1
    excited = sum((np.arange(state.size) >> i) & 1 for i in range(n))
    return float(np.abs(state) ** 2 @ (excited - 0.5 * n))


def test_four_site_peak(eig_n4_peak):
    assert transfer_probability(eig_n4_peak, 8.303) == pytest.approx(P_8303, abs=1e-12)


def test_five_site_peaks(eig_n5_uniform):
    assert transfer_probability(eig_n5_uniform, 6.764) == pytest.approx(
        P_N5_EARLY, abs=1e-12
    )
    assert transfer_probability(eig_n5_uniform, 43.757) == pytest.approx(
        P_N5_LATE, abs=1e-12
    )


def test_starts_at_the_first_node(eig_n4_peak):
    for node in range(1, 5):
        expected = 1.0 if node == 1 else 0.0
        assert node_probability(eig_n4_peak, node, 0.0) == pytest.approx(
            expected, abs=1e-14
        )


def test_scalar_in_scalar_out(eig_n4_peak):
    value = transfer_probability(eig_n4_peak, 5.0)
    assert isinstance(value, float)
    array = transfer_probability(eig_n4_peak, np.array([5.0, 6.0]))
    assert array.shape == (2,)


def test_negative_time_rejected(eig_n4_peak):
    with pytest.raises(ValidationError):
        transfer_probability(eig_n4_peak, -1.0)


def test_node_out_of_range(eig_n4_peak):
    with pytest.raises(ValidationError):
        node_probability(eig_n4_peak, 5, 1.0)
    with pytest.raises(ValidationError):
        node_probability(eig_n4_peak, 0, 1.0)


def test_stacked_probability_matches_each_chain():
    # a stack of chains at one time gives each chain's own P_N(t)
    for n in (6, 7):
        eigs = [eigensystem_for(ChainSpec(n, d)) for d in (1.2, 2.0, 2.9)]
        lam = np.array([e.eigenvalues for e in eigs])
        ends = np.array([e.vectors[0] * e.vectors[-1] for e in eigs])
        probs = paired_transfer_probability(lam, ends, 7.5)
        assert probs.shape == (3,)
        assert paired_transfer_probability(lam, ends, np.array([[7.5]] * 3))[:, 0].tolist() == (
            probs.tolist()
        )
        expected = [transfer_probability(e, 7.5) for e in eigs]
        assert np.max(np.abs(probs - expected)) <= 1e-14


def test_even_form_equals_spectral_sum():
    times = np.linspace(0.0, 80.0, 1000)
    for n, delta in [(4, 2.272), (6, 2.373), (8, 2.557), (12, 2.38)]:
        spec = ChainSpec(n, delta)
        reference = transfer_probability(eigensystem_for(spec), times)
        reduced = transfer_probability_even_form(spec, solve_even_roots(spec), times)
        assert np.max(np.abs(reference - reduced)) < 1e-10


def test_odd_form_equals_spectral_sum():
    times = np.linspace(0.0, 80.0, 1000)
    for n, delta in [(3, 1.0), (5, 1.0), (5, 2.0), (9, 1.5), (15, 2.0)]:
        spec = ChainSpec(n, delta)
        reference = transfer_probability(eigensystem_for(spec), times)
        reduced = transfer_probability_odd_form(spec, times)
        assert np.max(np.abs(reference - reduced)) < 1e-10


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=12),
    delta=st.floats(min_value=0.3, max_value=3.5),
    t=st.floats(min_value=0.0, max_value=200.0),
)
def test_probabilities_stay_physical(n, delta, t):
    eig = eigensystem_for(ChainSpec(n, delta))
    probs = np.array([node_probability(eig, node, t) for node in range(1, n + 1)])
    assert np.all(probs >= 0.0)
    assert np.all(probs <= 1.0 + 1e-12)
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=14),
    delta=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=200.0),
)
def test_node_kernel_matches_complex_sum(n, delta, t):
    # the paired series at every node: the complex sum to 1e-13, a
    # conserved total, and exactly nothing on the even sites at t = 0
    eig = eigensystem_for(ChainSpec(n, delta))
    times = np.array([0.0, t])
    nodes = range(1, n + 1)
    probs = np.array([node_probability(eig, node, times) for node in nodes])
    reference = np.array([complex_node_probability(eig, node, times) for node in nodes])
    assert np.max(np.abs(probs - reference)) <= 1e-13
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all(probs[1::2, 0] == 0.0)


def test_full_space_oracle_small_chains():
    times = np.linspace(0.0, 30.0, 50)
    for n in range(2, 9):
        spec = ChainSpec(n, 2.38)
        subspace = transfer_probability(eigensystem_for(spec), times)
        full = np.abs(full_space_amplitude(spec, times)) ** 2
        assert np.max(np.abs(full - subspace)) < 1e-8


def test_full_space_oracle_ten_sites():
    # ten sites, the largest chain the 2^N oracle takes
    spec = ChainSpec(10, 2.38)
    eig = eigensystem_for(spec)
    for t in (3.0, 17.5):
        full = abs(full_space_amplitude(spec, t)) ** 2
        assert full == pytest.approx(float(transfer_probability(eig, t)), abs=1e-10)


@pytest.mark.parametrize("n, delta", [(18, 8.0), (20, 8.0), (464, 5.0)])
def test_even_form_refuses_unrepresentable_hyperbolic_level(n, delta):
    # at delta = 8, 1 + delta^2 - 2 delta cosh(y) rounds below zero; at
    # (464, 5), sinh((N+1) y) overflows
    spec = ChainSpec(n, delta)
    with pytest.raises(NumericError):
        transfer_probability_even_form(spec, solve_even_roots(spec), 1.0)


def test_full_space_size_cap():
    for n in (11, 13):
        with pytest.raises(ResourceError):
            full_space_amplitude(ChainSpec(n, 2.0), 1.0)


def test_z_projection_is_conserved():
    spec = ChainSpec(6, 2.38)
    values = [
        z_projection_expectation(full_space_state(spec, t)) for t in (0.0, 4.0, 9.0)
    ]
    assert np.allclose(values, values[0], atol=1e-12)
    # one excited site against five aligned ones
    assert values[0] == pytest.approx(-2.0, abs=1e-12)


def test_sample_curve_shape_and_peak(eig_n4_peak):
    curve = sample_curve(eig_n4_peak, 30.0, 3000)
    assert curve.times[0] == 0.0
    assert curve.times[-1] == 30.0
    assert curve.node == 4
    peak = int(np.argmax(curve.probabilities))
    assert curve.times[peak] == pytest.approx(8.303, abs=0.02)
    assert curve.probabilities[peak] == pytest.approx(0.999, abs=0.002)


def test_sample_curve_node_selects_intermediate(eig_n4_peak):
    curve = sample_curve(eig_n4_peak, 30.0, 500, node=2)
    assert curve.node == 2
    assert float(np.max(curve.probabilities)) < 0.9


def test_curve_rejects_bad_window(eig_n4_peak):
    with pytest.raises(ValidationError):
        sample_curve(eig_n4_peak, -5.0, 100)
    with pytest.raises(ValidationError):
        sample_curve(eig_n4_peak, 10.0, 1)
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            sample_curve(eig_n4_peak, t_max, 100)


def test_curve_refuses_times_beyond_the_horizon(eig_n4_peak):
    # t * lambda_max * eps above 1e-9: the phases have no digits left
    with pytest.raises(HorizonError):
        sample_curve(eig_n4_peak, 1e300, 3)
    with pytest.raises(HorizonError):
        sample_curve(eig_n4_peak, 2e6, 3)
    assert sample_curve(eig_n4_peak, 1e6, 3).probabilities.shape == (3,)


@pytest.mark.parametrize(
    "n,delta,route",
    [
        (4, 2.272, "analytic-even"),
        (8, 2.557, "analytic-even"),
        (5, 2.38, "analytic-odd"),
        (9, 2.38, "analytic-odd"),
        (14, 1.05, "numeric"),
        (16, 2.38, "numeric"),
        (4, 1.2, "numeric"),  # even chain below the threshold (N+2)/N
    ],
)
def test_paired_series_matches_spectral_sum(n, delta, route):
    spec = ChainSpec(n, delta)
    if route == "analytic-even":
        eig = eigensystem_even(spec)
    elif route == "analytic-odd":
        eig = eigensystem_odd(spec)
    else:
        eig = eigensystem_numeric(build_coupling_matrix(spec))
    assert eig.provenance == route
    times = np.linspace(0.0, 300.0, 30001)
    lam, ends = eig.eigenvalues, eig.vectors[0] * eig.vectors[-1]
    paired = paired_transfer_probability(lam, ends, times)
    assert np.max(np.abs(paired - transfer_probability(eig, times))) <= 1e-13
    assert paired_transfer_probability(lam, ends, 8.303) == pytest.approx(
        transfer_probability(eig, 8.303), abs=1e-13
    )


def grid_call(lam, ends, step, start, stop):
    """P_N(k * step) for k = start..stop-1 of one chain, from a stack of one."""
    return paired_grid_probability(lam[None], ends[None], np.array([step]), np.array([start]), stop - start)[0]


GRID_SHAPES = [
    pytest.param(1, 101, id="count-below-block"),
    pytest.param(1, 1001, id="count-not-a-block-multiple"),
    pytest.param(5000, 5000 + 3 * 256 + 17, id="offset-start-several-blocks"),
]


@pytest.mark.parametrize("start,stop", GRID_SHAPES)
@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 14, 20])
@pytest.mark.parametrize("delta", [1.2, 2.38, 2.5])
def test_grid_kernel_matches_paired_series(n, delta, start, stop):
    # the first-peak scan grid of the chain: step min(0.01, pi/(50 lambda_max))
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    step = min(0.01, math.pi / (50.0 * lam[0]))
    direct = paired_transfer_probability(lam, ends, np.arange(start, stop) * step)
    blocked = grid_call(lam, ends, step, start, stop)
    assert blocked.shape == direct.shape
    assert np.max(np.abs(blocked - direct)) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 14, 20])
def test_grid_kernel_over_several_chunks(n):
    # 3.2 chunks of the scan; the two evaluations round each phase
    # lambda t / 2 differently, so they may part by a few eps * t * lambda_max
    lam, ends = (x[0] for x in spectra(n, np.array([2.38])))
    step = min(0.01, math.pi / (50.0 * lam[0]))
    stop = 1 + 3 * 65536 + 77
    direct = paired_transfer_probability(lam, ends, np.arange(1, stop) * step)
    blocked = grid_call(lam, ends, step, 1, stop)
    rounding = np.finfo(float).eps * (stop * step) * lam[0]
    assert np.max(np.abs(blocked - direct)) <= 8.0 * rounding


@pytest.mark.parametrize("rows", [2, 3, 5])
@pytest.mark.parametrize("n", range(3, 26))
def test_stacked_grid_kernel_equals_each_row_alone(n, rows):
    # rows of different ratios, steps and first samples, equal counts: a
    # stacked call returns each row's call alone, to the bit
    rng = np.random.default_rng(1000 * n + rows)
    lam, ends = spectra(n, rng.uniform(1.2, 3.0, rows))
    step = rng.uniform(0.001, 0.01, rows)
    first = rng.integers(1, 5000, rows)
    stacked = paired_grid_probability(lam, ends, step, first, 301)
    for i in range(rows):
        assert np.array_equal(stacked[i], grid_call(lam[i], ends[i], step[i], first[i], first[i] + 301))


def allocating_grid_probability(lam, ends, step, start, stop):
    """paired_grid_probability of one chain as written with a new array for each product."""
    half, count = lam.size // 2, stop - start
    rate = 0.5 * lam[:half]
    block = math.isqrt(count - 1) + 1
    rows = -(-count // block)
    starts = np.multiply.outer((start + block * np.arange(rows)) * step, rate)
    offsets = np.multiply.outer(np.arange(block) * step, rate)
    sin_q, cos_q = 2.0 * ends[:half] * np.sin(starts), 2.0 * ends[:half] * np.cos(starts)
    sin_r, cos_r = np.sin(offsets).T, np.cos(offsets).T
    if lam.size % 2 == 0:
        series = sin_q @ cos_r + cos_q @ sin_r
    else:
        series = cos_q @ cos_r - sin_q @ sin_r + ends[half]
    return series.ravel()[:count] ** 2


# (start, stop): a few samples, a partial last block, and about 200 000
# and 65 536 samples
KERNEL_RANGES = [(1, 101), (7, 7 + 3 * 256 + 17), (5, 5 + 256 * 85 * 3 + 256), (1, 65537)]


@pytest.mark.parametrize("n", [3, 4, 9, 10, 20, 24, 25])
def test_grid_kernel_keeps_the_bits_of_the_allocating_expression(n):
    lam, ends = (x[0] for x in spectra(n, np.array([2.38])))
    step = min(0.01, math.pi / (50.0 * lam[0]))
    for start, stop in KERNEL_RANGES:
        expected = allocating_grid_probability(lam, ends, step, start, stop)
        assert np.array_equal(grid_call(lam, ends, step, start, stop), expected)


@pytest.mark.parametrize("n", range(4, 65, 4))
def test_sample_series_keeps_each_bit_whatever_its_batch(n):
    # every probability of the paired series, at the end node (70 000 times)
    # and at inner nodes of both parities (the first 9 000): a time's value
    # is the same in a batch of 1 or of 70 000, wherever the batch starts,
    # and for a scalar time
    for size in (n, n + 1):
        lam, ends = (x[0] for x in spectra(size, np.array([2.38])))
        eig = eigensystem_for(ChainSpec(size, 2.38))
        window = 1.3 * math.pi / lam[size // 2 - 1]
        times = np.random.default_rng(size).uniform(0.0, window, 70000)
        nodes = [(None, ends, times)]
        nodes += [(k, eig.vectors[0] * eig.vectors[k - 1], times[:9000]) for k in (2, 3)]
        for node, weights, at in nodes:
            whole = paired_transfer_probability(lam, weights, at, node)
            for batch in (1, 2, 3, 7, 64, 255, 4097, 70000):
                for start in range(0, at.size - batch + 1, max(batch, 9000)):
                    part = paired_transfer_probability(lam, weights, at[start:start + batch], node)
                    assert np.array_equal(part, whole[start:start + batch])
            for i in (0, 1, at.size - 1):
                assert paired_transfer_probability(lam, weights, float(at[i]), node) == whole[i]
        # a stack of chains, at one time each and at a scalar time
        stack = np.stack([lam, lam]), np.stack([ends, ends])
        whole = paired_transfer_probability(lam, ends, times)
        stacked = paired_transfer_probability(*stack, np.stack([times[:5], times[5:10]]))
        assert np.array_equal(stacked.ravel(), whole[:10])
        assert paired_transfer_probability(*stack, float(times[3])).tolist() == [whole[3]] * 2
        # the complex reference route to rounding, at 9 000 times inside the horizon
        reach = min(window, 0.5e-9 / (lam[0] * np.finfo(float).eps))
        check_horizon(reach, float(lam[0]))
        inside = times[:9000] * (reach / window)
        reference = transfer_probability(eig, inside)
        assert np.max(np.abs(paired_transfer_probability(lam, ends, inside) - reference)) <= 1e-13


@pytest.mark.parametrize("defect", [_without_zero_mode, _scaled], ids=["zero-mode", "scaled"])
def test_verify_guards_the_kernel(defect):
    # the unitarity check sums P over every node of odd and even chains,
    # so a defect seeded in the one kernel fails it
    assert_seeded_defect_fails("unitarity", _kernel(dynamics, defect))


@pytest.mark.parametrize("defect", [_without_zero_mode, _scaled], ids=["zero-mode", "scaled"])
def test_verify_guards_the_search_route(defect):
    # the search-route check compares the p_h of first_peak and
    # fixed_time_optimize, odd and even chains, with the reference route,
    # so a defect seeded in the kernel the searches bind fails it
    assert_seeded_defect_fails("search-route", _kernel(search, defect))


def long_double_probability(lam, ends, times):
    """P_N of the paired series of lam and ends at the given float times, in long double."""
    lam, ends, times = (np.asarray(x, dtype=np.longdouble) for x in (lam, ends, times))
    half = lam.size // 2
    phases = np.multiply.outer(times, lam[:half]) / 2
    series = (np.cos(phases) if lam.size % 2 else np.sin(phases)) @ (2 * ends[:half])
    if lam.size % 2:
        series += ends[half]
    return series * series


@pytest.mark.skipif(
    not np.finfo(np.longdouble).eps < 1e-18, reason="long double is no wider than double here"
)
def test_kernels_lie_within_the_rounding_bound():
    # both kernels on 4096-sample chunks at the start, middle and end of
    # every first-peak window that _peak_grid lays out (113 of the 132),
    # against their own series in long double at the same float times:
    # each lies within rounding_bound, and the bound is not loose by more
    # than a factor of ten somewhere
    worst = 0.0
    for n in [*range(4, 33), 40, 48, 56, 64]:
        lam, ends = spectra(n, np.array([0.5, 1.0, 2.38, 8.0]))
        for row_lam, row_ends in zip(lam, ends):
            try:
                _, step, count = _peak_grid(row_lam)
            except NumericError:
                continue  # even N at 8 from N = 14, and at 2.38 from N = 32
            c0, a, b, s1, _ = (float(x) for x in series_bounds(row_lam, row_ends))
            size = min(count, 4096)
            for first in (1, max(1, (count - size) // 2), count - size + 1):
                times = np.arange(first, first + size) * step
                bound = rounding_bound(n, c0 + a + b, s1, float(times[-1]))
                exact = long_double_probability(row_lam, row_ends, times)
                grid = paired_grid_probability(
                    row_lam[None], row_ends[None], np.array([step]), np.array([first]), size
                )[0]
                for kernel in (grid, paired_transfer_probability(row_lam, row_ends, times)):
                    error = float(np.max(np.abs(kernel - exact)))
                    assert error <= bound
                    worst = max(worst, error / bound)
    assert worst >= 0.1


@pytest.mark.parametrize("n", [4, 5, 8, 9, 16])
def test_transfer_derivatives_match_difference_quotients(n):
    lam, ends = (x[0] for x in spectra(n, np.array([2.38])))
    h = 1e-4
    for t in (0.7, 3.1, 11.3):
        p = paired_transfer_probability(lam, ends, np.array([t - h, t, t + h]))
        slope, curvature = paired_transfer_derivatives(lam, ends, t)
        assert slope == pytest.approx((p[2] - p[0]) / (2 * h), abs=1e-7)
        assert curvature == pytest.approx((p[2] - 2 * p[1] + p[0]) / h**2, abs=1e-5)
