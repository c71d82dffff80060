"""Probability cap for odd chains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altchain import (
    ChainSpec,
    ResourceError,
    ValidationError,
    bound_report,
    eigensystem_for,
    transfer_probability,
)


def test_worked_example_exact():
    # five sites at ratio two: everything rational
    report = bound_report(ChainSpec(5, 2.0))
    assert report.delta_max == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert report.p_bound == pytest.approx(361.0 / 441.0, abs=1e-12)
    assert report.f2_value == pytest.approx(4.0 / 21.0, abs=1e-12)
    assert report.f2_cap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_r_values_ordering():
    report = bound_report(ChainSpec(9, 1.8))
    # r decreases with the mode angle, so the first entry is the max
    assert report.r_values[0] == report.delta_max
    assert np.all(np.diff(report.r_values) <= 1e-15)


def test_uniform_chain_cap_is_one():
    report = bound_report(ChainSpec(7, 1.0))
    assert report.delta_max == pytest.approx(1.0, abs=1e-14)
    assert report.p_bound == pytest.approx(1.0, abs=1e-12)
    assert report.f2_value == pytest.approx(2.0 / 8.0, abs=1e-12)


def test_f2_never_exceeds_its_cap():
    for n in (3, 5, 7, 9, 11, 13, 15):
        for delta in (1.0, 1.2, 2.0, 5.0, 30.0):
            report = bound_report(ChainSpec(n, delta))
            assert report.f2_value <= report.f2_cap + 1e-12


def test_f2_limit_toward_uniform():
    for n in (3, 7, 15):
        report = bound_report(ChainSpec(n, 1.0 + 1e-9))
        assert report.f2_value == pytest.approx(2.0 / (n + 1), abs=1e-8)


def test_rejects_even_or_weak_coupling():
    with pytest.raises(ValidationError):
        bound_report(ChainSpec(4, 2.0))
    with pytest.raises(ValidationError, match="invert the ratio"):
        bound_report(ChainSpec(5, 0.5))


def test_names_an_overflowing_mirror():
    # 1/delta overflows below about 5.6e-309: the message says so, not "delta=inf"
    with pytest.raises(ValidationError, match="overflows") as info:
        bound_report(ChainSpec(5, 5e-324))
    assert "inf" not in str(info.value)


@pytest.mark.parametrize("n", [2**62 + 1, 10**20 + 1])
def test_refuses_chains_numpy_cannot_hold(n):
    # modes beyond the address space: refused before anything is allocated
    with pytest.raises(ResourceError, match="cannot hold"):
        bound_report(ChainSpec(n, 2.0))


def test_sampled_curve_stays_below_cap():
    times = np.linspace(1e-3, 500.0, 100000)
    for n, delta in [(5, 2.0), (7, 1.5), (9, 1.1)]:
        spec = ChainSpec(n, delta)
        cap = bound_report(spec).p_bound
        peak = float(np.max(transfer_probability(eigensystem_for(spec), times)))
        assert peak <= cap + 1e-9


@settings(deadline=None, max_examples=60)
@given(
    half=st.integers(min_value=1, max_value=7),
    delta=st.floats(min_value=1.0, max_value=6.0),
)
def test_cap_structure(half, delta):
    n = 2 * half + 1
    report = bound_report(ChainSpec(n, delta))
    assert 0.0 < report.delta_max <= 1.0
    assert 0.0 < report.p_bound <= 1.0 + 1e-12
    # cap components: mode tail plus zero-mode weight
    recomputed = ((report.delta_max * (n - 1) + 2.0) / (n + 1)) ** 2
    assert report.p_bound == pytest.approx(recomputed, abs=1e-12)

