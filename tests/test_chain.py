"""Chain description and coupling-matrix construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from altchain import ChainSpec, ResourceError, ValidationError, build_coupling_matrix
from altchain.chain import MAX_SITES, CouplingMatrix, alternating_couplings
from conftest import dense_matrix


def test_basic_fields():
    spec = ChainSpec(6, 2.5)
    assert [f.name for f in dataclasses.fields(spec)] == ["n_sites", "delta"]
    assert (spec.n_sites, spec.delta) == (6, 2.5)
    assert spec.even_regime_threshold() == pytest.approx(8.0 / 6.0)


def test_couplings_alternate():
    spec = ChainSpec(7, 3.0)
    bonds = spec.couplings()
    assert bonds.shape == (6,)
    # odd bonds carry 1, even bonds carry delta (1-based bond index)
    assert list(bonds) == [1.0, 3.0, 1.0, 3.0, 1.0, 3.0]


def test_stacked_layout_matches_each_chain():
    # one row per ratio: the same bonds and dense matrix as each ChainSpec
    deltas = np.array([0.5, 1.6, 2.38])
    for n in (2, 5, 8):
        bonds = alternating_couplings(n, deltas)
        for i, delta in enumerate(deltas):
            spec = ChainSpec(n, float(delta))
            assert np.array_equal(bonds[i], spec.couplings())
            dense = dense_matrix(CouplingMatrix(bonds[i]))
            assert np.array_equal(dense, dense_matrix(build_coupling_matrix(spec)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_sites=1, delta=2.0),
        dict(n_sites=4, delta=0.0),
        dict(n_sites=4, delta=-1.0),
        dict(n_sites=True, delta=2.0),
        dict(n_sites=4, delta=float("inf")),
        dict(n_sites=4, delta=float("nan")),
    ],
)
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        ChainSpec(**kwargs)


def test_n_sites_must_be_integral():
    with pytest.raises(ValidationError):
        ChainSpec(4.5, 2.0)


def test_matrix_is_exactly_symmetric():
    spec = ChainSpec(9, 1.7)
    dense = dense_matrix(build_coupling_matrix(spec))
    assert np.array_equal(dense, dense.T)


@given(st.integers(min_value=2, max_value=40), st.floats(0.1, 5.0))
def test_d2_count(n, delta):
    """floor((N-1)/2) off-diagonal entries equal delta = D2/D1."""
    matrix = build_coupling_matrix(ChainSpec(n, delta))
    hits = int(np.sum(matrix.offdiagonal == delta))
    if delta == 1.0:
        # degenerate: every bond matches
        assert hits == n - 1
    else:
        assert hits == (n - 1) // 2


def test_matrix_arrays_read_only():
    matrix = build_coupling_matrix(ChainSpec(4, 2.0))
    with pytest.raises(ValueError):
        matrix.offdiagonal[0] = 99.0



@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_apply_matches_dense_product(n):
    # the banded product sums two terms per row where the dense one sums N;
    # a non-unit band, as the engine accepts any positive bonds
    matrix = CouplingMatrix(0.7 * ChainSpec(n, 2.38).couplings())
    x = np.random.default_rng(n).standard_normal((n, 5))
    expected = dense_matrix(matrix) @ x
    assert np.max(np.abs(matrix.apply(x) - expected)) <= 4e-16 * np.max(np.abs(expected))


def test_longest_chain_builds_and_one_more_site_is_refused():
    assert alternating_couplings(MAX_SITES, 2.0).shape == (MAX_SITES - 1,)
    with pytest.raises(ResourceError, match=f"N={MAX_SITES + 1} is above the cap"):
        ChainSpec(MAX_SITES + 1, 2.0).couplings()
