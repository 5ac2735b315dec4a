"""Certified eigendecomposition, adaptive truncation, parity and level pairing.

At zero detuning the displaced-basis problem splits exactly into two
parity sectors, d = p·(-1)^m·c with p = ±1. Each sector is solved for c
on its own and the two are merged by energy (exact ties: parity +1
first), so parity is an exact label, not a measured value.

Sign rule: ``_certified_eigh`` makes each eigenvector's first
largest-magnitude entry positive, and it is the only place that chooses a
sign. A sector's eigenvectors are √2·c, and |c_m| = |d_m| exactly, so the
same entry is the first largest of the merged column (c; d).

Truncation control follows a belt-and-braces rule: a level counts as
converged only when both its coefficient tail weight (probability in the
last five basis indices) and its energy drift between successive
truncations are below tolerance. Drift alone can plateau spuriously when
newly added basis states are nearly orthogonal to the low levels, and a
tail coefficient can vanish accidentally, so neither test is trusted
alone. Because the truncated bases are nested, each tracked eigenvalue is
non-increasing as the basis grows, which the tests assert along the
iteration trace.

Both tests read zero on a truncation too small for the levels: D(2g)
couples the lowest k levels to displaced states out to about (η + √k)²
quanta, and below that the missing states leave no trace in the tails or
the drifts. The adaptive walk therefore starts at the first grid point at
or above that reach (never below ``n_start``). Since each drift is taken
against the step before, the walk from there takes the same steps as a
walk from ``n_start`` once past its first point, so every result that the
longer walk certifies past that point comes out bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceFailure, DomainError, InvalidParam, NoConvergence
from .hamiltonian import RwaLevel, build_displaced_hamiltonian
from .model import BasisSpec, ModelParams, _check_index
from . import overlap as _overlap
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
    """Ascending eigenvalues, orthonormal column eigenvectors, certified residual.

    ``eigenvectors`` is C-ordered from ``eigh_symmetric`` / ``eigh_hermitian``
    and F-ordered when ``solve_spectrum`` merges the two parity sectors at
    zero detuning. The order is kept on purpose: ``evolve`` multiplies the
    eigenbasis into every time block, and the last bits of its CSV depend on
    the memory order of that product's operand.
    """

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
    # for real input this is a sign flip. One matrix-sized temporary at a time
    # (128 MB at n = 2000): |V| laid out by column, so argmax copies nothing,
    # then A V − V Λ squared in place, the operations of np.linalg.norm.
    pivots = vectors[np.argmax(np.abs(vectors.T, order="C"), axis=1), np.arange(a.shape[0])]
    vectors *= np.abs(pivots) / pivots
    # An entry near the float limit overflows the norm to inf, which fails the bound.
    with np.errstate(over="ignore"):
        r = a @ vectors
        for i in range(0, len(r), 16):
            r[i:i + 16] -= vectors[i:i + 16] * eigenvalues
        np.multiply(r.conj(), r, out=r)
        residual = float(np.sqrt(np.max(np.add.reduce(r.real, axis=0))))
    bound = 1e-9 * (1.0 + float(np.max(np.abs(eigenvalues))))
    if not residual <= bound:
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
    detuning, where ``coeff_d[i] == parities[i] * (-1)^m * coeff_c[i]``
    holds bitwise, and is None otherwise.
    ``decomposition`` keeps the full spectrum at ``n_final`` for the
    spectral propagator; its eigenvectors are F-ordered at zero detuning and
    C-ordered otherwise, and ``evolve`` CSV bytes depend on that order.
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


def _solve_at(params: ModelParams, n: int, k: int, prev: Optional[np.ndarray]) -> _Step:
    h = build_displaced_hamiltonian(params, n)
    dim = n + 1
    if params.delta != 0.0:
        dec, parities = eigh_symmetric(h), None
    else:
        # Parity sectors: (c, d) = (v, p·s·v)/√2 with s = (-1)^m turns h into
        # one (n+1)-dimensional problem for c per parity p; exact ties put
        # parity +1 first.
        s = (-1.0) ** np.arange(dim)
        sectors = [eigh_symmetric(h[:dim, :dim] + p * h[:dim, dim:] * s) for p in (1.0, -1.0)]
        del h
        labels = np.repeat([1.0, -1.0], dim)
        values = np.concatenate([sec.eigenvalues for sec in sectors])
        order = np.lexsort((-labels, values))
        residual = max(sec.residual_norm for sec in sectors)
        v = np.hstack([sec.eigenvectors for sec in sectors])
        del sectors
        # (v, p·s·v)/√2 in one F-ordered matrix; the signs p·s are exact.
        vectors = np.empty((2 * dim, 2 * dim), order="F")
        np.divide(v[:, order], np.sqrt(2.0), out=vectors[:dim])
        del v
        np.multiply(vectors[:dim], labels[order] * s[:, None], out=vectors[dim:])
        dec = EigenDecomposition(values[order], vectors, residual)
        parities = labels[order][:k]
    c = dec.eigenvectors[:dim, :k].T.copy()
    d = dec.eigenvectors[dim:, :k].T.copy()
    window = min(_TAIL_WINDOW, dim)
    tails = np.sum(c[:, dim - window:] ** 2, axis=1) + np.sum(d[:, dim - window:] ** 2, axis=1)
    energies = dec.eigenvalues[:k].copy()
    drifts = np.full(k, np.inf) if prev is None else np.abs(energies - prev)
    return _Step(n, dec, energies, c, d, tails, parities, drifts)


def _reach(params: ModelParams, k: int) -> float:
    """(η + √k)²: D(2g) carries the lowest k levels out to about that many quanta.

    A smaller truncation cannot hold them. The square is a product so that a
    huge η gives inf rather than an OverflowError from ``**``.
    """
    reach = params.eta + math.sqrt(k)
    return reach * reach


def _grid(params: ModelParams, basis: BasisSpec) -> List[int]:
    """The truncations ``solve_spectrum`` may visit, in order.

    The grid points at or above the reach of the requested levels, or
    ``n_max_hard`` alone if none is that large.
    """
    reach = _reach(params, basis.levels_requested)
    return [n for n in (*range(basis.n_start, basis.n_max_hard, basis.n_step), basis.n_max_hard)
            if n >= reach] or [basis.n_max_hard]


def _table_size(n_list: Sequence[int]) -> int:
    """The truncation of the table of D(2g) that a walk over ``n_list`` asks for first.

    Its second truncation, or its only one: the first step's drifts are inf
    and cannot pass, so a walk always reaches the second.
    """
    return n_list[min(1, len(n_list) - 1)]


def _prefetch(points: Sequence[ModelParams], basis: BasisSpec) -> None:
    """Build the first table each point's walk under ``basis`` asks for, in one batched call.

    The tables are kept in the slot of ``overlap._table``, so the walks read
    them bitwise as they would build them. β = 0 and tables already kept
    are skipped. Never raises: a table that is not finite is not kept, and
    the walk of its point raises when it builds it.
    """
    _overlap._hold([(2.0 * p.g, _table_size(_grid(p, basis))) for p in points])


def _walk(params: ModelParams, n_list: Sequence[int], k: int,
          n_table: Optional[int] = None) -> Iterator[_Step]:
    """Solve at each truncation in turn, each drift taken against the one before.

    Before the first step the walk asks for the table of D(2g) at ``n_table``,
    by default ``_table_size(n_list)``. The call only fills the kept slot of
    ``overlap._table`` (or finds the table a sweep already put there); every
    step up to ``n_table`` then reads a leading block of that one table,
    bitwise the table a build at its own size gives.

    It keeps only the previous energies, and drops each step before the next.
    """
    if n_table is None:
        n_table = _table_size(n_list)
    _overlap._table(2.0 * params.g, n_table)
    energies = None
    for n in n_list:
        step = _solve_at(params, n, k, energies)
        energies = step.energies
        yield step
        del step


def solve_spectrum(params: ModelParams, basis: Optional[BasisSpec] = None) -> SpectralResult:
    """Adaptive eigensolution of the displaced-basis problem.

    Walks the grid ``n_start, n_start + n_step, …, n_max_hard`` until every
    requested level passes both the tail and the drift test, or raises
    :class:`ConvergenceFailure` (carrying the best result) at the hard cap.
    The walk skips the grid points below (η + √k)², k = ``levels_requested``,
    which cannot hold the levels; if none is that large it visits
    ``n_max_hard`` alone. ``trace`` lists the truncations visited.

    Each step but the last is dropped before the next is solved.
    """
    basis = basis if basis is not None else BasisSpec()
    trace: List[Tuple[int, np.ndarray]] = []
    n_list = _grid(params, basis)
    for step in _walk(params, n_list, basis.levels_requested):
        trace.append((step.n, step.energies))
        converged = (step.tail_weights <= basis.tail_tol) & (step.drifts <= basis.drift_tol)
        if np.all(converged) or step.n == n_list[-1]:
            break
        del step
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
    and is None for the first one. ``n_list`` holds increasing integers at most
    ``MAX_TRUNCATION``, ``levels`` an integer >= 1 that its smallest entry
    holds; :class:`InvalidParam` names the one that fails, before any solve.
    """
    for n in n_list:
        _check_index("n_list", n, low=1)
    if len(n_list) == 0 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParam("n_list", "must be non-empty and strictly increasing")
    _check_index("levels", levels, low=1)
    if levels > 2 * (min(n_list) + 1):
        raise InvalidParam("levels", "exceeds the smallest problem dimension")
    rows = []
    for step in _walk(params, n_list, levels, n_table=n_list[-1]):
        rows += [{"n": step.n, "level": i, "energy": float(step.energies[i]),
                  "tail_weight": float(step.tail_weights[i]),
                  "drift": None if step.n == n_list[0] else float(step.drifts[i])}
                 for i in range(levels)]
        del step
    return rows


def parity_expectation(c: np.ndarray, d: np.ndarray, params: ModelParams) -> float:
    """⟨σ_x ⊗ (-1)^(a†a)⟩ of a displaced-basis level, evaluated in the bare basis.

    Defined only at zero detuning, where the working-frame Hamiltonian
    commutes with the parity operator; raises :class:`DomainError`
    otherwise.
    """
    if params.delta != 0.0:
        raise DomainError("parity is conserved only at zero detuning")
    return _states.parity_overlap(_states.eigvec_to_bare(c, d, params.g))


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
