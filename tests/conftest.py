import numpy as np
import pytest

from altchain import ChainSpec, eigensystem_for


def dense_matrix(matrix):
    """The N x N array of a CouplingMatrix, from its one band."""
    return np.diag(matrix.offdiagonal, 1) + np.diag(matrix.offdiagonal, -1)


@pytest.fixture(scope="session")
def eig_n4_peak():
    # the four-site chain used throughout: ratio 2.272
    return eigensystem_for(ChainSpec(4, 2.272))


@pytest.fixture(scope="session")
def eig_n5_uniform():
    return eigensystem_for(ChainSpec(5, 1.0))


@pytest.fixture(scope="session")
def time_grid():
    return np.linspace(0.0, 60.0, 600)
