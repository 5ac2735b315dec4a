"""Quantum states, basis and frame transforms, and spectral time evolution.

States carry an explicit frame tag so that mixing amplitudes written in
different rotating frames is a caught error rather than a silent one.
Dynamics are computed in the working frame only; lab-frame readout goes
through the explicit frame transforms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from .errors import DomainError, FrameMismatch, IncompleteBasis, NormLoss
from .hamiltonian import build_bare_rabi_hamiltonian, build_U_matrix, build_V_matrix
from .model import _check_finite, _check_index, _is_finite_number
from .overlap import _table

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SpectralResult

__all__ = [
    "Frame",
    "QuantumState",
    "basis_state",
    "eigvec_to_bare",
    "hadamard_on_spin",
    "ideal_cat_state",
    "fidelity",
    "evolve",
    "propagate_observables",
    "expect_sigma_z",
    "expect_sigma_x",
    "expect_number",
    "lab_to_intermediate",
    "intermediate_to_lab",
    "intermediate_to_working",
    "working_to_intermediate",
]

_NORM_FLOOR = 1.0 - 1e-6
_BAD_TIME = "time must be finite: a real number, not a bool or string"

# Times propagated together by propagate_observables. Larger blocks gain no
# speed and grow the per-block phase table and state block in memory.
_TIME_BLOCK = 64

# Spin axis order inside ``amps``: column 0 = upper level |e>, column 1 = lower level |g>.
_E, _G = 0, 1


class Frame(enum.Enum):
    """Rotating frame a state's amplitudes are written in."""

    LAB = "lab"
    INTERMEDIATE = "H_I"
    WORKING = "H_prime"
    RWA = "RWA"


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitudes over the bare number ⊗ spin basis.

    ``amps`` has shape (n+1, 2) with the spin column order (|e>, |g>).
    Construction normalizes; a zero or non-finite vector and a ``frame``
    that is not a :class:`Frame` are rejected with ValueError.
    """

    amps: np.ndarray
    frame: Frame

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise ValueError("amps must have shape (n+1, 2)")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amps must be finite")
        if not isinstance(self.frame, Frame):
            raise ValueError("frame must be a Frame")
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("state vector must be nonzero")
        object.__setattr__(self, "amps", amps / norm)
        self.amps.setflags(write=False)

    @property
    def n(self) -> int:
        return self.amps.shape[0] - 1

    def flat(self) -> np.ndarray:
        """Amplitudes flattened to the builders' block layout [e-block, g-block]."""
        return np.concatenate([self.amps[:, _E], self.amps[:, _G]])

    def fixed_phase(self) -> "QuantumState":
        """Copy with the first nonzero amplitude rotated to be real positive."""
        flat = self.flat()
        idx = np.flatnonzero(np.abs(flat) > 0)[0]
        phase = flat[idx] / abs(flat[idx])
        return QuantumState(self.amps / phase, self.frame)


def _from_flat(vec: np.ndarray, frame: Frame) -> QuantumState:
    dim = vec.shape[0] // 2
    amps = np.column_stack([vec[:dim], vec[dim:]])
    return QuantumState(amps, frame)


def basis_state(k: int, spin: str, n: int, frame: Frame = Frame.WORKING) -> QuantumState:
    """Bare product state |k⟩ ⊗ |spin⟩ at truncation n."""
    _check_index("k", k)
    _check_index("n", n)
    if k > n:
        raise ValueError("Fock index outside truncation")
    if spin not in ("e", "g"):
        raise ValueError("spin must be 'e' or 'g'")
    amps = np.zeros((n + 1, 2), dtype=complex)
    amps[k, _E if spin == "e" else _G] = 1.0
    return QuantumState(amps, frame)


def _to_bare(g: float, vectors: np.ndarray) -> np.ndarray:
    """Flat displaced vectors [c; d] (1-D, or one per column) as flat bare vectors.

    c lives over number states displaced by +g, so bare row ⟨k| picks up
    ⟨k|D(-g)|m⟩, and D(-g) = D(g)ᵀ for real g; d lives over states
    displaced by -g and picks up ⟨k|D(g)|m⟩. One table serves both. The
    result keeps the memory order of ``vectors``: products over these
    columns (the propagator's) round their last bit according to it.
    """
    _check_finite("g", g)
    dim = vectors.shape[0] // 2
    table = _table(g, dim - 1)
    bare = np.empty_like(vectors)
    bare[:dim] = table.T @ vectors[:dim]
    bare[dim:] = table @ vectors[dim:]
    return bare


def eigvec_to_bare(c: np.ndarray, d: np.ndarray, g: float) -> QuantumState:
    """Convert a displaced-basis coefficient pair to bare amplitudes.

    The upper-spin coefficients c map through D(-g) and the lower-spin
    ones d through D(+g) (see ``_to_bare``). Raises :class:`NormLoss` when
    the bare truncation keeps less than 1 - 1e-6 of the probability, which
    signals an unconverged input.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.shape != d.shape or c.ndim != 1:
        raise ValueError("coefficient blocks must be equal-length vectors")
    bare = _to_bare(g, np.concatenate([c, d]))
    kept = float(bare @ bare)
    if not kept >= _NORM_FLOOR:  # a nan coefficient fails too
        raise NormLoss(f"basis change lost {1 - kept:.3e} probability; truncation too small")
    return _from_flat(bare, Frame.WORKING)


def hadamard_on_spin(state: QuantumState) -> QuantumState:
    """Apply |g⟩ → (|g⟩+|e⟩)/√2, |e⟩ → (|g⟩-|e⟩)/√2 at every Fock index."""
    amps = np.empty_like(state.amps)
    amps[:, _E] = (state.amps[:, _G] - state.amps[:, _E]) / math.sqrt(2.0)
    amps[:, _G] = (state.amps[:, _E] + state.amps[:, _G]) / math.sqrt(2.0)
    return QuantumState(amps, state.frame)


def ideal_cat_state(g: float, n: int) -> QuantumState:
    """Spin-entangled superposition of the two oppositely displaced vacua.

    (1/2){[D†(g)|0⟩ + D†(-g)|0⟩]|g⟩ - [D†(g)|0⟩ - D†(-g)|0⟩]|e⟩}, i.e. the
    Hadamard image of the idealized zero-motion ground doublet. The two
    interference terms cancel, so the norm is exactly 1 for every g; the
    |g⟩ branch holds only even Fock components and the |e⟩ branch only odd
    ones.
    """
    _check_finite("g", g)
    table = _table(g, n)
    plus, minus = table[0], table[:, 0]
    amps = np.zeros((n + 1, 2), dtype=complex)
    amps[:, _G] = 0.5 * (plus + minus)
    amps[:, _E] = -0.5 * (plus - minus)
    if float(np.linalg.norm(amps)) ** 2 < _NORM_FLOOR:
        raise NormLoss(f"coherent tails exceed truncation n={n} for g={g}")
    return QuantumState(amps, Frame.WORKING)


def _check_compatible(a: QuantumState, b: QuantumState) -> None:
    if a.frame is not b.frame:
        raise FrameMismatch(f"{a.frame.value} vs {b.frame.value}")
    if a.n != b.n:
        raise FrameMismatch(f"truncation mismatch: {a.n} vs {b.n}")


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|⟨a|b⟩|² for states in the same frame and truncation."""
    _check_compatible(a, b)
    return float(abs(np.vdot(a.flat(), b.flat())) ** 2)


def _project(initial: QuantumState, result: "SpectralResult") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if initial.frame is not Frame.WORKING:
        raise FrameMismatch("time evolution is defined in the working frame")
    if not result.all_converged:
        raise DomainError("spectral result is not converged")
    if initial.n != result.n_final:
        raise FrameMismatch(f"state truncation {initial.n} != solver truncation {result.n_final}")
    energies = result.decomposition.eigenvalues
    columns = _to_bare(result.params.g, result.decomposition.eigenvectors)
    weights = columns.conj().T @ initial.flat()
    deficit = 1.0 - float(np.sum(np.abs(weights) ** 2))
    if deficit > 1e-8:
        raise IncompleteBasis(f"initial state leaks {deficit:.3e} outside the eigenbasis span")
    return energies, columns, weights


def _propagate(energies: np.ndarray, columns: np.ndarray, weights: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """Flat propagated vectors Σ_i e^{-i E_i t} |E_i⟩⟨E_i|ψ(0)⟩, one column per time."""
    phases = np.exp(-1j * np.multiply.outer(energies, times))
    return columns @ (phases * weights[:, None])


def evolve(initial: QuantumState, result: "SpectralResult", t: float) -> QuantumState:
    """Propagate through the eigendecomposition: Σ_i e^{-i E_i t} |E_i⟩⟨E_i|ψ(0)⟩.

    ``initial`` must be a working-frame state at the solver's truncation;
    time is in inverse trap-frequency units. Raises :class:`DomainError`
    unless ``t`` is a finite real number (not a bool or string), and
    :class:`IncompleteBasis` if the initial state is not contained in the
    converged span to 1e-8.
    """
    if not _is_finite_number(t):
        raise DomainError(_BAD_TIME)
    energies, columns, weights = _project(initial, result)
    vec = _propagate(energies, columns, weights, np.array([t], dtype=float))[:, 0]
    return _from_flat(vec, Frame.WORKING)


def propagate_observables(initial: QuantumState, result: "SpectralResult",
                          times: Iterable[float]) -> np.ndarray:
    """Time series (t, norm, ⟨H⟩, ⟨σ_z⟩, ⟨σ_x⟩, ⟨n⟩) along the spectral propagation.

    Returns a (len(times), 6) array. Norm and energy are measured on the raw
    propagated vectors, so the columns certify propagator unitarity instead
    of restating it. Times are propagated ``_TIME_BLOCK`` at a time, as
    matrix products in real arithmetic on [Re ψ | Im ψ]: the eigenbasis and H are real.
    Raises :class:`DomainError` unless ``times`` is a 1-D sequence of finite
    reals (no bools or strings), as :func:`evolve` does.
    """
    if not isinstance(times, np.ndarray):
        times = np.array(list(times))
    # The dtype kind rules out bools, strings, complex numbers and ints beyond 64 bits (object).
    if times.ndim != 1 or times.dtype.kind not in "iuf":
        raise DomainError(_BAD_TIME)
    with np.errstate(over="ignore"):  # a longdouble beyond a float becomes inf, rejected next
        times = times.astype(float, copy=False)
    if not np.isfinite(times).all():
        raise DomainError(_BAD_TIME)
    energies, columns, weights = _project(initial, result)
    h = build_bare_rabi_hamiltonian(result.params, result.n_final)
    dim = result.n_final + 1
    # Row weights that turn |ψ|² into norm², ⟨σ_z⟩ and ⟨n⟩.
    probe = np.stack([np.ones(2 * dim), np.repeat([1.0, -1.0], dim), np.tile(np.arange(dim), 2)])
    w_re, w_im = weights.real[:, None], weights.imag[:, None]
    out = np.empty((times.size, 6))
    out[:, 0] = times
    for start in range(0, times.size, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        angles = np.multiply.outer(energies, times[block])
        cos, sin = np.cos(angles), np.sin(angles)
        # e^{-iEt} w = (w_re cos + w_im sin) + i (w_im cos - w_re sin)
        vecs = columns @ np.hstack([w_re * cos + w_im * sin, w_im * cos - w_re * sin])
        per_part = probe @ (vecs * vecs)
        stats = np.vstack([per_part[0], np.einsum("ij,ij->j", vecs, h @ vecs), per_part[1],
                           2.0 * np.einsum("ij,ij->j", vecs[:dim], vecs[dim:]), per_part[2]])
        # Each observable is the sum of its Re ψ and Im ψ parts.
        out[block, 1:] = stats.reshape(5, 2, angles.shape[1]).sum(axis=1).T
    out[:, 1] = np.sqrt(out[:, 1])
    return out


def expect_sigma_z(state: QuantumState) -> float:
    """⟨σ_z⟩ with the convention σ_z |e⟩ = +|e⟩."""
    probs = np.abs(state.amps) ** 2
    return float(np.sum(probs[:, _E]) - np.sum(probs[:, _G]))


def expect_sigma_x(state: QuantumState) -> float:
    return float(2.0 * np.real(np.vdot(state.amps[:, _E], state.amps[:, _G])))


def expect_number(state: QuantumState) -> float:
    k = np.arange(state.n + 1)
    return float(np.sum(k * np.sum(np.abs(state.amps) ** 2, axis=1)))


def parity_overlap(state: QuantumState) -> float:
    """⟨σ_x ⊗ (-1)^(a†a)⟩, the conserved parity of the working frame at zero detuning."""
    signs = (-1.0) ** np.arange(state.n + 1)
    return float(2.0 * np.real(np.sum(signs * state.amps[:, _E].conj() * state.amps[:, _G])))


def lab_to_intermediate(state: QuantumState, eta: float) -> QuantumState:
    if state.frame is not Frame.LAB:
        raise FrameMismatch("expected a lab-frame state")
    u = build_U_matrix(eta, state.n)
    return _from_flat(u @ state.flat(), Frame.INTERMEDIATE)


def intermediate_to_lab(state: QuantumState, eta: float) -> QuantumState:
    if state.frame is not Frame.INTERMEDIATE:
        raise FrameMismatch("expected an intermediate-frame state")
    u = build_U_matrix(eta, state.n)
    return _from_flat(u.conj().T @ state.flat(), Frame.LAB)


def intermediate_to_working(state: QuantumState) -> QuantumState:
    if state.frame is not Frame.INTERMEDIATE:
        raise FrameMismatch("expected an intermediate-frame state")
    v = build_V_matrix()
    return QuantumState(state.amps @ v.T, Frame.WORKING)


def working_to_intermediate(state: QuantumState) -> QuantumState:
    if state.frame is not Frame.WORKING:
        raise FrameMismatch("expected a working-frame state")
    v = build_V_matrix()
    return QuantumState(state.amps @ v, Frame.INTERMEDIATE)
