"""Certified eigendecomposition, adaptive truncation, parity and level pairing.

At zero detuning the displaced-basis problem splits exactly into two
parity sectors, c = p·(-1)^m·d with p = ±1. Each is solved on its own and
the two are merged by energy (exact ties: parity +1 first), so parity is
an exact label, not a measured value. Each eigenvector's first
largest-magnitude entry is made positive; as |c_m| = |d_m| exactly, that
entry lies in c and its sign comes from the sector solve, not from noise.

Truncation control follows a belt-and-braces rule: a level counts as
converged only when both its coefficient tail weight (probability in the
last five basis indices) and its energy drift between successive
truncations are below tolerance. Drift alone can plateau spuriously when
newly added basis states are nearly orthogonal to the low levels, and a
tail coefficient can vanish accidentally, so neither test is trusted
alone. Because the truncated bases are nested, each tracked eigenvalue is
non-increasing as the basis grows, which the tests assert along the
iteration trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceFailure, DomainError, NoConvergence
from .hamiltonian import RwaLevel, build_displaced_hamiltonian
from .model import MAX_TRUNCATION, BasisSpec, ModelParams, _is_integer, validate
from . import states as _states

__all__ = [
    "EigenDecomposition",
    "eigh_symmetric",
    "eigh_hermitian",
    "SpectralResult",
    "solve_spectrum",
    "truncation_table",
    "parity_expectation",
    "LevelPairing",
    "classify_levels",
]

_TAIL_WINDOW = 5


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal column eigenvectors, certified residual."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _certified_eigh(a: np.ndarray, kind: str) -> EigenDecomposition:
    """Checked ``np.linalg.eigh`` with a fixed eigenvector phase and a certified residual."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("expected a square matrix of dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.conj().T):
        raise ValueError(f"matrix must be exactly {kind}")
    eigenvalues, vectors = np.linalg.eigh(a)
    # Rotate each column so its largest-magnitude component is real positive;
    # for real input this is a sign flip.
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(a.shape[0])]
    vectors = vectors * (np.abs(pivots) / pivots)
    residual = float(np.max(np.linalg.norm(a @ vectors - vectors * eigenvalues, axis=0)))
    bound = 1e-9 * (1.0 + float(np.max(np.abs(eigenvalues))))
    if residual > bound:
        raise NoConvergence(f"residual {residual:.3e} exceeds certified bound {bound:.3e}")
    return EigenDecomposition(eigenvalues, vectors, residual)


def eigh_symmetric(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric real matrix.

    Deterministic for identical input; eigenvalues ascending; each
    eigenvector's largest-magnitude component is positive. The residual
    max_i ‖A v_i - λ_i v_i‖ is computed and certified against
    1e-9 · (1 + max|λ|).
    """
    return _certified_eigh(np.asarray(matrix, dtype=float), "symmetric")


def eigh_hermitian(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly Hermitian complex matrix.

    Eigenvalues ascending; eigenvectors orthonormal, also inside degenerate
    clusters; each column's global phase is fixed so its largest-magnitude
    component is real positive. The residual is certified as in
    :func:`eigh_symmetric`.
    """
    return _certified_eigh(np.asarray(matrix, dtype=complex), "Hermitian")


@dataclass(frozen=True)
class SpectralResult:
    """Converged low-lying eigensolution of the displaced-basis eigenproblem.

    Coefficient rows ``coeff_c[i]`` / ``coeff_d[i]`` are the +g / -g
    displaced-block coefficients of level i at truncation ``n_final``.
    ``trace`` records (truncation, lowest-k energies) for every truncation
    visited, which is the raw material for monotonicity checks.
    ``parities`` holds the exact ±1.0 sector label of each level at zero
    detuning, where ``coeff_c[i] == parities[i] * (-1)^m * coeff_d[i]``
    holds bitwise, and is None otherwise.
    ``decomposition`` keeps the full spectrum at ``n_final`` for the
    spectral propagator.
    """

    params: ModelParams
    basis: BasisSpec
    n_final: int
    energies: np.ndarray
    coeff_c: np.ndarray
    coeff_d: np.ndarray
    tail_weights: np.ndarray
    drifts: np.ndarray
    parities: Optional[np.ndarray]
    converged: np.ndarray
    trace: Tuple[Tuple[int, np.ndarray], ...]
    decomposition: EigenDecomposition = field(repr=False)

    @property
    def levels(self) -> int:
        return self.energies.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    def vectors(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-level coefficient pairs (c, d)."""
        return [(self.coeff_c[i], self.coeff_d[i]) for i in range(self.levels)]


@dataclass(frozen=True)
class _Step:
    """One truncation's solve; ``drifts`` is against the walk's previous step (``inf`` first)."""

    n: int
    decomposition: EigenDecomposition
    energies: np.ndarray
    coeff_c: np.ndarray
    coeff_d: np.ndarray
    tail_weights: np.ndarray
    parities: Optional[np.ndarray]
    drifts: np.ndarray


def _solve_at(params: ModelParams, n: int, k: int, prev: Optional[_Step]) -> _Step:
    h = build_displaced_hamiltonian(params, n)
    dim = n + 1
    if params.delta != 0.0:
        dec, parities = eigh_symmetric(h), None
    else:
        # Parity sectors: (c, d) = (p·s·u, u)/√2 with s = (-1)^m turns h into
        # one (n+1)-dimensional problem per parity p.
        s = (-1.0) ** np.arange(dim)
        sectors = [eigh_symmetric(h[:dim, :dim] + p * s[:, None] * h[:dim, dim:])
                   for p in (1.0, -1.0)]
        labels = np.repeat([1.0, -1.0], dim)
        values = np.concatenate([sec.eigenvalues for sec in sectors])
        u = np.hstack([sec.eigenvectors for sec in sectors])
        # Exact ties put parity +1 first; |c_m| = |d_m| puts every pivot in c.
        order = np.lexsort((-labels, values))
        vectors = (np.vstack([labels * s[:, None] * u, u]) / np.sqrt(2.0))[:, order]
        pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(2 * dim)]
        dec = EigenDecomposition(values[order], vectors * np.sign(pivots),
                                 max(sec.residual_norm for sec in sectors))
        parities = labels[order][:k]
    c = dec.eigenvectors[:dim, :k].T.copy()
    d = dec.eigenvectors[dim:, :k].T.copy()
    window = min(_TAIL_WINDOW, dim)
    tails = np.sum(c[:, dim - window:] ** 2, axis=1) + np.sum(d[:, dim - window:] ** 2, axis=1)
    energies = dec.eigenvalues[:k].copy()
    drifts = np.full(k, np.inf) if prev is None else np.abs(energies - prev.energies)
    return _Step(n, dec, energies, c, d, tails, parities, drifts)


def _walk(params: ModelParams, n_list: Sequence[int], k: int) -> Iterator[_Step]:
    """Solve at each truncation in turn, each drift taken against the one before."""
    step = None
    for n in n_list:
        step = _solve_at(params, n, k, step)
        yield step


def solve_spectrum(params: ModelParams, basis: Optional[BasisSpec] = None) -> SpectralResult:
    """Adaptive eigensolution of the displaced-basis problem.

    Grows the truncation from ``n_start`` in steps of ``n_step`` until every
    requested level passes both the tail and the drift test, or raises
    :class:`ConvergenceFailure` (carrying the best result) at the hard cap.
    """
    params = validate(params)
    basis = basis if basis is not None else BasisSpec()
    trace: List[Tuple[int, np.ndarray]] = []
    n_list = [*range(basis.n_start, basis.n_max_hard, basis.n_step), basis.n_max_hard]
    for step in _walk(params, n_list, basis.levels_requested):
        trace.append((step.n, step.energies))
        converged = (step.tail_weights <= basis.tail_tol) & (step.drifts <= basis.drift_tol)
        if np.all(converged):
            break
    result = SpectralResult(
        params=params, basis=basis, n_final=step.n, energies=step.energies,
        coeff_c=step.coeff_c, coeff_d=step.coeff_d, tail_weights=step.tail_weights,
        drifts=step.drifts, parities=step.parities, converged=converged,
        trace=tuple(trace), decomposition=step.decomposition)
    if result.all_converged:
        return result
    tests = [("tail", step.tail_weights, basis.tail_tol), ("drift", step.drifts, basis.drift_tol)]
    failed = [f"{name} test fails at levels {', '.join(map(str, np.flatnonzero(~(values <= tol))))}"
              f" (max {name} {np.max(values):.3e})" for name, values, tol in tests
              if not np.all(values <= tol)]
    raise ConvergenceFailure(f"not converged at hard cap n={step.n}: " + "; ".join(failed),
                             result=result)


def truncation_table(params: ModelParams, n_list: Sequence[int], levels: int) -> List[dict]:
    """Fixed-truncation snapshots: per (n, level) energy, tail weight and drift.

    Drift compares each truncation against the previous entry of ``n_list``
    and is None for the first one. Truncations must be increasing integers
    at most ``MAX_TRUNCATION``, and ``levels`` an integer >= 1.
    """
    params = validate(params)
    if len(n_list) == 0 or not all(_is_integer(n) and n >= 1 for n in n_list):
        raise ValueError("n_list must hold integer truncations >= 1")
    if max(n_list) > MAX_TRUNCATION:
        raise ValueError(f"n_list must hold truncations <= {MAX_TRUNCATION}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if not _is_integer(levels) or levels < 1:
        raise ValueError("levels must be an integer >= 1")
    if levels > 2 * (min(n_list) + 1):
        raise ValueError("levels exceeds the smallest problem dimension")
    return [{"n": step.n, "level": i, "energy": float(step.energies[i]),
             "tail_weight": float(step.tail_weights[i]),
             "drift": None if step.n == n_list[0] else step.drifts[i]}
            for step in _walk(params, n_list, levels) for i in range(levels)]


def parity_expectation(c: np.ndarray, d: np.ndarray, params: ModelParams) -> float:
    """⟨σ_x ⊗ (-1)^(a†a)⟩ of a displaced-basis level, evaluated in the bare basis.

    Defined only at zero detuning, where the working-frame Hamiltonian
    commutes with the parity operator; raises :class:`DomainError`
    otherwise.
    """
    if params.delta != 0.0:
        raise DomainError("parity is conserved only at zero detuning")
    state = _states.eigvec_to_bare(np.asarray(c, dtype=float), np.asarray(d, dtype=float), params.g)
    return _states.parity_overlap(state)


@dataclass(frozen=True)
class LevelPairing:
    """One row of the level-assignment table against the rotating-wave spectrum."""

    level: int
    energy: float
    rwa_label: str
    rwa_energy: float
    gap: float
    nearest_label: str
    agrees: bool


def classify_levels(result: SpectralResult, rwa: Sequence[RwaLevel]) -> List[LevelPairing]:
    """Pair each computed level with its rotating-wave partner.

    The ground level is paired with the uncoupled RWA ground; excited level
    j is assigned to branch '-' of doublet (j-1)//2 when j is odd and
    branch '+' when j is even. The assignment is cross-checked against
    plain nearest-energy matching and any disagreement is flagged in the
    row, never silently reassigned.
    """
    by_label = {lv.label: lv.energy for lv in rwa}
    rows: List[LevelPairing] = []
    for j, energy in enumerate(result.energies):
        energy = float(energy)
        if j == 0:
            label = "ground"
        else:
            pair = (j - 1) // 2
            label = f"E-_{pair}" if j % 2 == 1 else f"E+_{pair}"
        if label not in by_label:
            raise ValueError(f"rwa spectrum too short: missing {label}")
        partner = by_label[label]
        nearest = min(rwa, key=lambda lv: (abs(lv.energy - energy), lv.label))
        rows.append(LevelPairing(
            level=j, energy=energy, rwa_label=label, rwa_energy=partner,
            gap=energy - partner, nearest_label=nearest.label,
            agrees=nearest.label == label,
        ))
    return rows
