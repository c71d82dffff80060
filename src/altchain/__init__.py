"""Excitation transfer along open spin-1/2 chains with alternating couplings.

The library works in the one-excitation sector, where the chain reduces
to a symmetric tridiagonal coupling matrix.  It provides eigensystems
from the SVD of the half-size bond bidiagonal, checked against the
closed forms for both parities of the chain length, transfer-probability dynamics with a full Hilbert-space
oracle, the four-site perfect-transfer family, probability caps for odd
chains, and deterministic searches for high-probability transfer
parameters.
"""

from __future__ import annotations

from .bounds import BoundReport, bound_report
from .chain import ChainSpec, CouplingMatrix, build_coupling_matrix
from .dynamics import (
    TransferCurve,
    full_space_amplitude,
    node_probability,
    paired_transfer_probability,
    sample_curve,
    transfer_probability,
    transfer_probability_even_form,
    transfer_probability_odd_form,
)
from .errors import (
    HorizonError,
    NumericError,
    RegimeError,
    ResourceError,
    ValidationError,
    VerificationError,
)
from .ideal4 import IdealSolution, ideal_solutions, n4_frequencies, n4_probability
from .search import (
    SweepRow,
    TransferTriad,
    first_peak,
    fixed_time_optimize,
    optimize_delta,
    table1_sweep,
)
from .spectral import (
    PROVENANCE_ANALYTIC_EVEN,
    PROVENANCE_ANALYTIC_ODD,
    PROVENANCE_NUMERIC,
    EigenSystem,
    EvenRootSet,
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    eigensystem_odd,
    solve_even_roots,
    spectra,
)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChainSpec",
    "CouplingMatrix",
    "EigenSystem",
    "EvenRootSet",
    "HorizonError",
    "IdealSolution",
    "NumericError",
    "PROVENANCE_ANALYTIC_EVEN",
    "PROVENANCE_ANALYTIC_ODD",
    "PROVENANCE_NUMERIC",
    "RegimeError",
    "ResourceError",
    "SweepRow",
    "TransferCurve",
    "TransferTriad",
    "ValidationError",
    "VerificationError",
    "bound_report",
    "build_coupling_matrix",
    "eigensystem_even",
    "eigensystem_for",
    "eigensystem_numeric",
    "eigensystem_odd",
    "first_peak",
    "fixed_time_optimize",
    "full_space_amplitude",
    "ideal_solutions",
    "n4_frequencies",
    "n4_probability",
    "node_probability",
    "optimize_delta",
    "paired_transfer_probability",
    "run_all",
    "sample_curve",
    "solve_even_roots",
    "spectra",
    "table1_sweep",
    "transfer_probability",
    "transfer_probability_even_form",
    "transfer_probability_odd_form",
    "__version__",
]
