"""Eigensolutions and dynamics of a two-laser-driven trapped ion.

The drive is kept beyond both the Lamb-Dicke and the rotating-wave
approximations: the full spin-motion problem is diagonalized over
displaced number bases, compared against the rotating-wave spectrum, and
used to build derived states (spin-motion cat states) and exact time
evolution.
"""

from .errors import (
    ConvergenceFailure,
    DomainError,
    FrameMismatch,
    IncompleteBasis,
    InvalidParam,
    NoConvergence,
    NormLoss,
    RabiSpectraError,
)
from .model import MAX_TRUNCATION, BasisSpec, ModelParams, validate
from .overlap import (
    OverlapMatrix,
    displaced_overlap,
    displaced_overlap_series,
    displacement_element,
    displacement_matrix,
    log_factorial,
    overlap_ab,
    overlap_ba,
    overlap_matrix,
)
from .hamiltonian import (
    RwaLevel,
    build_bare_rabi_hamiltonian,
    build_displaced_hamiltonian,
    build_intermediate_hamiltonian,
    build_lab_hamiltonian,
    build_rwa_hamiltonian,
    build_U_matrix,
    build_V_matrix,
    rwa_spectrum,
)
from .solver import (
    EigenDecomposition,
    LevelPairing,
    SpectralResult,
    classify_levels,
    eigh_hermitian,
    eigh_symmetric,
    parity_expectation,
    solve_spectrum,
    truncation_table,
)
from .states import (
    Frame,
    QuantumState,
    basis_state,
    eigvec_to_bare,
    evolve,
    expect_number,
    expect_sigma_x,
    expect_sigma_z,
    fidelity,
    hadamard_on_spin,
    ideal_cat_state,
    intermediate_to_lab,
    intermediate_to_working,
    lab_to_intermediate,
    propagate_observables,
    working_to_intermediate,
)

__version__ = "0.1.0"
