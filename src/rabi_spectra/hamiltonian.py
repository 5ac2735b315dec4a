"""Matrix representations of the driven trapped-ion Hamiltonian in its frames.

Four equivalent forms are built here:

* lab frame: detuning on the spin plus the traveling-wave couplings
  exp(±i·eta·x̂) between the internal levels (complex Hermitian);
* intermediate frame (tag ``H_I``): after the oscillator/spin rotation U,
  a driven Rabi form with the light shift on σ_z and the spin-motion
  coupling g(a† + a)σ_x + ε σ_x + g²;
* working frame (tag ``H_prime``): after the extra spin rotation V,
  -Ω/2 σ_x + a†a + g(a† + a)σ_z + ε σ_z + g², real symmetric in the bare
  number basis;
* displaced basis: the working frame rewritten over number states displaced
  by ±g, which is the form whose truncation converges fastest and is what
  the adaptive solver diagonalizes.

A rotating-wave-approximated comparison Hamiltonian and its closed-form
spectrum are also provided.

Basis layout is the same everywhere: the first n+1 indices are the
oscillator ladder attached to the upper spin state (or the +g-displaced
coefficient block), the next n+1 the lower spin state (or the -g-displaced
block). Blocks are never interleaved so coefficient tails stay contiguous.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np

from .model import ModelParams, _check_finite, _check_index
from .overlap import _table

__all__ = [
    "build_displaced_hamiltonian",
    "build_bare_rabi_hamiltonian",
    "build_intermediate_hamiltonian",
    "build_lab_hamiltonian",
    "build_U_matrix",
    "build_V_matrix",
    "build_rwa_hamiltonian",
    "RwaLevel",
    "rwa_spectrum",
]


def _ladder_x(dim: int) -> np.ndarray:
    """Position operator a† + a on a dim-dimensional number basis."""
    x = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return x + x.T


def _two_blocks(upper: np.ndarray, lower: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """The block matrix [[upper, coupling], [coupling†, lower]], filled in place."""
    dim = upper.shape[0]
    h = np.empty((2 * dim, 2 * dim), dtype=np.result_type(upper, lower, coupling))
    h[:dim, :dim] = upper
    h[dim:, dim:] = lower
    h[:dim, dim:] = coupling
    h[dim:, :dim] = coupling.conj().T
    return h


def build_displaced_hamiltonian(params: ModelParams, n: int) -> np.ndarray:
    """Eigenproblem matrix over the ±g-displaced number bases, dimension 2(n+1).

    Both displaced blocks are diagonal (m ± ε; the g² shift is absorbed by
    the displaced number operators). The drive couples the blocks through
    one displacement: entry (c_m, d_k) = -(Ω/2)⟨m|D(2g)|k⟩, real for real g.
    The (d, c) block is its transpose, so the result is exactly symmetric.
    """
    _check_index("n", n, low=1)
    m = np.arange(n + 1)
    off = -(params.omega / 2.0) * _table(2.0 * params.g, n)
    return _two_blocks(np.diag(m + params.epsilon), np.diag(m - params.epsilon), off)


def build_bare_rabi_hamiltonian(params: ModelParams, n: int) -> np.ndarray:
    """Working-frame Hamiltonian in the bare number ⊗ spin basis.

    -Ω/2 σ_x + a†a + g(a† + a)σ_z + ε σ_z + g²; real symmetric. Carries the
    explicit +g² scalar so its spectrum matches the displaced build in the
    untruncated limit. Slowly convergent in n; serves as the brute-force
    oracle for the displaced route.
    """
    _check_index("n", n)
    dim = n + 1
    k = np.arange(dim)
    g = params.g
    x = _ladder_x(dim)
    return _two_blocks(np.diag(k + params.epsilon + g * g) + g * x,
                       np.diag(k - params.epsilon + g * g) - g * x,
                       -(params.omega / 2.0) * np.eye(dim))


def build_intermediate_hamiltonian(params: ModelParams, n: int) -> np.ndarray:
    """Intermediate-frame Hamiltonian: Ω/2 σ_z + a†a + g(a† + a)σ_x + ε σ_x + g²."""
    _check_index("n", n)
    dim = n + 1
    k = np.arange(dim)
    g = params.g
    return _two_blocks(np.diag(params.omega / 2.0 + k + g * g),
                       np.diag(-params.omega / 2.0 + k + g * g),
                       g * _ladder_x(dim) + params.epsilon * np.eye(dim))


def build_lab_hamiltonian(params: ModelParams, n: int) -> np.ndarray:
    """Lab-frame Hamiltonian Δ/2 σ_z + a†a + Ω/2 (σ₊ e^{iηx̂} + σ₋ e^{-iηx̂}).

    Complex Hermitian by construction: the σ₊ block holds the matrix of
    exp(i·eta·x̂) = D(i·eta) and the σ₋ block its conjugate transpose. Its
    low-lying spectrum agrees with the working-frame builds up to the
    (slower) truncation error of the exponential coupling.
    """
    # Complex also at η = 0, where the table is the real identity.
    drive = complex(params.omega / 2.0) * _table(1j * params.eta, n)
    k = np.arange(n + 1)
    return _two_blocks(np.diag(params.delta / 2.0 + k), np.diag(-params.delta / 2.0 + k), drive)


def build_U_matrix(eta: float, n: int) -> np.ndarray:
    """Unitary taking the lab frame to the intermediate frame, dimension 2(n+1).

    Assembled from the quarter-cycle oscillator phase diag(i^k) and the
    half-coupling wave factors exp(±i·eta·x̂/2). Truncation breaks
    unitarity only near the top of the ladder; interior columns are
    unitary to the accuracy of the wave-factor tails.
    """
    _check_finite("eta", eta)
    f = _table(0.5j * eta, n)
    phase = (1.0j ** np.arange(n + 1))[:, None]
    phase_f_dag, phase_f = phase * f.conj().T, phase * f
    # + 0.0 turns each -0.0 of the products into the +0.0 a product with diag(i^k) gives.
    return (np.block([[phase_f_dag, phase_f], [-phase_f_dag, phase_f]]) + 0.0) / math.sqrt(2.0)


def build_V_matrix() -> np.ndarray:
    """Spin-only rotation taking the intermediate frame to the working frame."""
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    return np.array([[c, s], [-s, c]])


def build_rwa_hamiltonian(params: ModelParams, n: int) -> np.ndarray:
    """Rotating-wave comparison Hamiltonian Ω/2 σ_z + a†a + g(aσ₊ + a†σ₋) + g².

    Block-diagonal over the doublets {|e,k⟩, |g,k+1⟩} plus the uncoupled
    |g,0⟩; real symmetric in the same block layout as the other builders.
    """
    _check_index("n", n)
    dim = n + 1
    k = np.arange(dim)
    g = params.g
    # g·a σ₊ : ⟨e,k| H |g,k+1⟩ = g √(k+1)
    return _two_blocks(np.diag(params.omega / 2.0 + k + g * g),
                       np.diag(-params.omega / 2.0 + k + g * g),
                       g * np.diag(np.sqrt(np.arange(1.0, dim)), 1))


class RwaLevel(NamedTuple):
    label: str
    energy: float


def rwa_spectrum(params: ModelParams, n_max: int) -> List[RwaLevel]:
    """Closed-form rotating-wave energies: the uncoupled ground level plus doublet pairs.

    Ground: -Ω/2 + g². Doublet k: (k + g² + 1/2) ± (1/2)·sqrt((Ω-1)² + 4g²(k+1)),
    which reduces to the familiar (k + g² + 1/2) ± g·sqrt(k+1) at Ω = 1.
    The off-resonant form is obtained by diagonalizing each 2x2 doublet
    block directly and matches ``build_rwa_hamiltonian`` to rounding.
    """
    _check_index("n_max", n_max)
    g = params.g
    levels = [RwaLevel("ground", -params.omega / 2.0 + g * g)]
    for k in range(n_max + 1):
        center = k + g * g + 0.5
        half = 0.5 * math.sqrt((params.omega - 1.0) ** 2 + 4.0 * g * g * (k + 1))
        levels.append(RwaLevel(f"E-_{k}", center - half))
        levels.append(RwaLevel(f"E+_{k}", center + half))
    levels.sort(key=lambda lv: lv.energy)
    return levels
