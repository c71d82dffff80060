"""Perfect-transfer family for the four-site chain."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from altchain import (
    ChainSpec,
    ResourceError,
    ValidationError,
    eigensystem_for,
    ideal_solutions,
    n4_frequencies,
    n4_probability,
    transfer_probability,
)

SQRT3 = math.sqrt(3.0)


def test_minimal_solution():
    # ratio 2/sqrt(3), arrival at pi*sqrt(3)
    p = n4_probability(2.0 / SQRT3, math.pi * SQRT3)
    assert p >= 1.0 - 1e-12


def test_minimal_time_value():
    assert math.pi * SQRT3 == pytest.approx(5.441, abs=1e-3)


def test_frequency_product_is_unity():
    for delta in (0.4, 1.0, 2.0 / SQRT3, 3.7):
        small, large = n4_frequencies(delta)
        assert 0.0 < small <= large
        assert small * large == pytest.approx(1.0, abs=1e-14)


def test_closed_form_matches_spectral_sum():
    for delta in (0.7, 1.1547, 2.272):
        eig = eigensystem_for(ChainSpec(4, delta))
        for t in (1.0, 5.441, 13.0):
            assert n4_probability(delta, t) == pytest.approx(
                float(transfer_probability(eig, t)), abs=1e-10
            )


def test_family_enumeration():
    solutions = ideal_solutions(60)
    assert all(sol.probability >= 1.0 - 1e-9 for sol in solutions)
    # sorted by arrival time, (3, 1) first
    assert (solutions[0].a, solutions[0].b) == (3, 1)
    assert solutions[0].delta_bar == pytest.approx(2.0 / SQRT3, abs=1e-12)
    assert solutions[0].t_bar == pytest.approx(math.pi * SQRT3, abs=1e-12)
    times = [sol.t_bar for sol in solutions]
    assert times == sorted(times)


def test_family_contains_inverted_ratio_pairs():
    # b > a gives ratios below one, a > b above one
    solutions = ideal_solutions(60)
    ratios = {(sol.a, sol.b): sol.delta_bar for sol in solutions}
    assert (3, 5) in ratios
    assert ratios[(3, 5)] == pytest.approx(2.0 / math.sqrt(15.0), abs=1e-12)
    assert (7, 1) in ratios
    assert ratios[(7, 1)] == pytest.approx(6.0 / math.sqrt(7.0), abs=1e-12)


def test_pair_grid_structure():
    for sol in ideal_solutions(80):
        assert sol.a % 4 == 3
        assert sol.b % 4 == 1
        assert sol.t_bar == pytest.approx(math.pi * math.sqrt(sol.a * sol.b), abs=0.0)


def test_max_product_bounds_enumeration():
    with pytest.raises(ValidationError):
        ideal_solutions(2)
    few = ideal_solutions(3)
    assert [(s.a, s.b) for s in few] == [(3, 1)]
    with pytest.raises(ResourceError, match="cap"):
        ideal_solutions(1_000_001)


@settings(deadline=None, max_examples=80)
@given(
    a_step=st.integers(min_value=0, max_value=12),
    b_step=st.integers(min_value=0, max_value=12),
)
def test_every_grid_pair_transfers_perfectly(a_step, b_step):
    """Arrival probability is exactly one on the whole (a, b) lattice."""
    a = 3 + 4 * a_step
    b = 1 + 4 * b_step
    delta = abs(a - b) / math.sqrt(a * b)
    t = math.pi * math.sqrt(a * b)
    assert n4_probability(delta, t) >= 1.0 - 1e-9
