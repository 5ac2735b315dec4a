"""Eigensolver contract, adaptive truncation, parity, and level pairing."""

import math
import tracemalloc

import numpy as np
import pytest
from banded import bare_levels
from braak import g_zeros
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabi_spectra import (
    BasisSpec,
    ConvergenceFailure,
    DomainError,
    ModelParams,
    NoConvergence,
    build_bare_rabi_hamiltonian,
    build_displaced_hamiltonian,
    classify_levels,
    eigh_hermitian,
    eigh_symmetric,
    parity_expectation,
    rwa_spectrum,
    solve_spectrum,
    truncation_table,
    validate,
)
from rabi_spectra import overlap, solver
from rabi_spectra.model import MAX_TRUNCATION


def params_of(omega, eta, delta):
    return validate(ModelParams(omega=omega, eta=eta, delta=delta))


def random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a + a.T


class TestEighSymmetric:
    def test_identity(self):
        dec = eigh_symmetric(np.eye(7))
        assert np.allclose(dec.eigenvalues, 1.0, atol=1e-15)
        assert np.array_equal(dec.eigenvectors, np.eye(7))

    def test_two_by_two_block(self):
        dec = eigh_symmetric(np.array([[0.0, -0.5], [-0.5, 0.0]]))
        assert dec.eigenvalues == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_reconstruction(self):
        a = random_symmetric(50, seed=7)
        dec = eigh_symmetric(a)
        back = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(back - a)) <= 1e-10 * np.max(np.abs(a))

    def test_orthonormal_and_sorted(self):
        dec = eigh_symmetric(random_symmetric(40, seed=3))
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(40))) < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_sign_convention(self):
        dec = eigh_symmetric(random_symmetric(30, seed=11))
        for col in dec.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        a = random_symmetric(25, seed=5)
        d1 = eigh_symmetric(a)
        d2 = eigh_symmetric(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_residual_certified(self):
        dec = eigh_symmetric(random_symmetric(60, seed=2))
        assert dec.residual_norm <= 1e-9 * (1 + np.max(np.abs(dec.eigenvalues)))

    def test_failed_certificate_raises(self, perturbed_eigh):
        with pytest.raises(NoConvergence, match="exceeds certified bound"):
            eigh_symmetric(random_symmetric(20, seed=1))
        # The walk lets it through: a failed residual is not a truncation failure.
        with pytest.raises(NoConvergence) as info:
            solve_spectrum(params_of(1.0, 0.2, 0.0))
        assert not isinstance(info.value, ConvergenceFailure)

    @pytest.mark.parametrize("omega, delta", [(1e300, 0.0), (1.0, 1e300)])
    def test_overflowing_residual_raises(self, omega, delta):
        # The residual norm overflows to inf, which fails the bound without a numpy warning.
        with pytest.raises(NoConvergence, match="residual inf"):
            solve_spectrum(params_of(omega, 0.2, delta))

    @pytest.mark.parametrize("a, message", [
        ([[0.0, 1.0], [0.0, 0.0]], "symmetric"),
        ([1.0, 2.0], "square"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
        (np.empty((0, 0)), "square"),
    ], ids=["asymmetric", "one-dimensional", "non-square", "empty"])
    def test_rejects_non_square_or_asymmetric(self, a, message):
        with pytest.raises(ValueError, match=message):
            eigh_symmetric(np.array(a))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigh_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEighHermitian:
    def test_matches_lapack_values(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        a = a + a.conj().T
        dec = eigh_hermitian(a)
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(a))) < 1e-10

    def test_orthonormal_with_degeneracies(self):
        # decoupled lab Hamiltonian has exactly degenerate level pairs
        h = __import__("rabi_spectra").build_lab_hamiltonian(params_of(1, 0, 0), 20)
        dec = eigh_hermitian(h)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(dec.dim))) < 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        a = a + a.conj().T
        dec = eigh_hermitian(a)
        for col in dec.eigenvectors.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0


@pytest.mark.parametrize("dim", [1, 15, 16, 17, 70])
@pytest.mark.parametrize("eigh", [eigh_symmetric, eigh_hermitian])
def test_residual_is_the_largest_column_norm(eigh, dim):
    """The certificate forms the residual in place, V Λ a block of rows at a
    time, and still takes the operations of ``np.linalg.norm``, bit for bit."""
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    if eigh is eigh_hermitian:
        a = a + 1j * rng.standard_normal((dim, dim))
    a = a + a.conj().T
    dec = eigh(a)
    v = dec.eigenvectors
    assert dec.residual_norm == float(np.max(np.linalg.norm(a @ v - v * dec.eigenvalues, axis=0)))


class TestSolveSpectrum:
    def test_decoupled_exact(self, solve):
        result = solve(1.0, 0.0, 0.0)
        expected = [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5, 2.5, 3.5, 3.5, 4.5]
        assert np.max(np.abs(result.energies - expected)) < 1e-12

    def test_ground_energy_brackets(self, solve):
        result = solve(1.0, 0.2, 0.0)
        # second-order perturbation estimate
        g = 0.1
        perturbative = g * g - 0.5 - g * g / 2.0
        assert abs(result.energies[0] - perturbative) < 1e-3
        # banded bare-basis oracle
        oracle = bare_levels(params_of(1, 0.2, 0), 1)[0]
        assert abs(result.energies[0] - oracle) < 1e-8

    def test_truncation_plateau(self):
        rows = truncation_table(params_of(1, 0.2, 0), [40, 60], levels=5)
        e40 = [r["energy"] for r in rows if r["n"] == 40]
        e60 = [r["energy"] for r in rows if r["n"] == 60]
        assert np.max(np.abs(np.array(e40) - e60)) < 1e-10

    def test_normalization_and_orthogonality(self, solve):
        result = solve(1.0, 0.4, 0.0)
        flat = np.hstack([result.coeff_c, result.coeff_d])
        norms = np.sum(flat ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        gram = flat @ flat.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8

    def test_monotone_trace(self):
        basis = BasisSpec(n_start=10, n_step=10, levels_requested=5)
        result = solve_spectrum(params_of(1, 0.6, 0), basis)
        trace = result.trace
        assert len(trace) >= 2
        for (n_a, e_a), (n_b, e_b) in zip(trace, trace[1:]):
            assert n_b > n_a
            assert np.all(e_b - e_a <= 1e-12)

    def test_convergence_flags_require_both(self, solve):
        result = solve(1.0, 0.2, 0.0)
        assert result.all_converged
        assert np.all(result.tail_weights <= result.basis.tail_tol)
        assert np.all(result.drifts <= result.basis.drift_tol)

    def test_failure_carries_partial_result(self):
        basis = BasisSpec(n_start=2, n_step=1, n_max_hard=4, levels_requested=2)
        with pytest.raises(ConvergenceFailure) as err:
            solve_spectrum(params_of(1, 0.8, 0), basis)
        partial = err.value.result
        assert partial is not None
        assert partial.n_final == 4
        # No grid point reaches (0.8 + √2)² ≈ 4.9, so the walk visits n_max_hard alone.
        assert [n for n, _ in partial.trace] == [4]
        assert not partial.all_converged

    def test_deterministic_output(self):
        a = solve_spectrum(params_of(1, 0.3, 0.5))
        b = solve_spectrum(params_of(1, 0.3, 0.5))
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.coeff_c, b.coeff_c)
        assert np.array_equal(a.coeff_d, b.coeff_d)

    def test_vectors_accessor(self, solve):
        result = solve(1.0, 0.2, 0.0)
        c0, d0 = result.vectors()[0]
        assert np.array_equal(c0, result.coeff_c[0])
        assert np.array_equal(d0, result.coeff_d[0])


class TestParity:
    def test_zero_coupling_ground(self, solve):
        result = solve(1.0, 0.0, 0.0)
        assert result.parities[0] == pytest.approx(1.0, abs=1e-10)

    def test_all_levels_sharp(self, solve):
        result = solve(1.0, 0.4, 0.0)
        assert np.all(np.abs(result.parities) >= 1 - 1e-8)

    def test_first_excited_opposite_to_ground(self, solve):
        result = solve(1.0, 0.2, 0.0)
        assert result.parities[0] * result.parities[1] < 0

    def test_commutes_with_hamiltonian_at_zero_detuning(self):
        p = params_of(1, 0.4, 0)
        n = 40
        h = build_bare_rabi_hamiltonian(p, n)
        dim = n + 1
        parity_op = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]),
                            np.diag((-1.0) ** np.arange(dim)))
        comm = h @ parity_op - parity_op @ h
        assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))

    def test_domain_error_off_resonance(self, solve):
        result = solve(1.0, 0.2, 0.0)
        bad = params_of(1, 0.2, 0.5)
        with pytest.raises(DomainError):
            parity_expectation(result.coeff_c[0], result.coeff_d[0], bad)

    def test_unset_when_detuned(self, solve):
        result = solve(1.0, 0.2, 1.0)
        assert result.parities is None


@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("eta", [0.0, 0.2, 0.6, 2.0])
class TestParitySectors:
    """At zero detuning each level is solved inside one parity sector."""

    def test_labels_exact_and_match_bare_parity(self, solve, omega, eta):
        result = solve(omega, eta, 0.0)
        assert np.all(np.abs(result.parities) == 1.0)
        for c, d, label in zip(result.coeff_c, result.coeff_d, result.parities):
            assert abs(parity_expectation(c, d, result.params) - label) < 1e-8

    def test_blocks_related_by_parity(self, solve, omega, eta):
        result = solve(omega, eta, 0.0)
        signs = (-1.0) ** np.arange(result.n_final + 1)
        assert np.array_equal(result.coeff_c, result.parities[:, None] * signs * result.coeff_d)

    def test_sign_pivot_in_upper_block(self, solve, omega, eta):
        result = solve(omega, eta, 0.0)
        dim = result.n_final + 1
        for c, d in result.vectors():
            col = np.concatenate([c, d])
            pivot = int(np.argmax(np.abs(col)))
            assert pivot < dim
            assert col[pivot] > 0


def sector_reference(params, n):
    """Reference sector solve: solve A_p = h_uu + p·s·h_ud for u, lift to
    (c, d) = (p·s·u, u)/√2, then make each merged column's first largest entry positive."""
    h = build_displaced_hamiltonian(params, n)
    dim = n + 1
    s = (-1.0) ** np.arange(dim)
    sectors = [eigh_symmetric(h[:dim, :dim] + p * s[:, None] * h[:dim, dim:]) for p in (1.0, -1.0)]
    labels = np.repeat([1.0, -1.0], dim)
    values = np.concatenate([sec.eigenvalues for sec in sectors])
    u = np.hstack([sec.eigenvectors for sec in sectors])
    order = np.lexsort((-labels, values))
    vectors = (np.vstack([labels * s[:, None] * u, u]) / np.sqrt(2.0))[:, order]
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(2 * dim)]
    return (values[order], vectors * np.sign(pivots),
            max(sec.residual_norm for sec in sectors), labels[order])


@pytest.mark.parametrize("omega, eta, n", [(1.0, 0.2, 40), (2.0, 1.0, 60), (0.5, 3.0, 100),
                                           (1.0, 5.0, 140), (3.0, 8.0, 220)])
def test_sector_solve_matches_re_pivoted_reference(omega, eta, n):
    """Solving each sector for c signs it by the one rule in ``_certified_eigh``."""
    step = solver._solve_at(params_of(omega, eta, 0.0), n, 6, None)
    values, vectors, residual, labels = sector_reference(params_of(omega, eta, 0.0), n)
    dec = step.decomposition
    assert dec.eigenvalues.tobytes() == values.tobytes()
    # Equal as numbers; an exactly zero entry may carry either sign.
    assert np.array_equal(dec.eigenvectors, vectors)
    assert dec.residual_norm == residual
    assert np.array_equal(step.parities, labels[:6])
    assert dec.eigenvectors.flags.f_contiguous and vectors.flags.f_contiguous


_omega = st.floats(min_value=0.5, max_value=2.0)
_eta = st.floats(min_value=0.0, max_value=1.0)
_delta = st.floats(min_value=-2.0, max_value=2.0)


class TestSolverProperties:
    @settings(max_examples=25)
    @given(omega=_omega, eta=_eta, delta=_delta)
    def test_detuning_reflection(self, omega, eta, delta):
        plus = solve_spectrum(params_of(omega, eta, delta))
        minus = solve_spectrum(params_of(omega, eta, -delta))
        assert np.max(np.abs(plus.energies - minus.energies)) < 1e-10

    @settings(max_examples=25)
    @given(omega=_omega, eta=_eta, delta=_delta)
    def test_trace_non_increasing(self, omega, eta, delta):
        basis = BasisSpec(n_start=10, n_step=10, levels_requested=5)
        trace = solve_spectrum(params_of(omega, eta, delta), basis).trace
        for (_, e_a), (_, e_b) in zip(trace, trace[1:]):
            assert np.all(e_b - e_a <= 1e-12)


def full_walk(params, basis):
    """The walk from ``n_start`` over the whole grid, with the solver's stop rule."""
    grid = [*range(basis.n_start, basis.n_max_hard, basis.n_step), basis.n_max_hard]
    for step in solver._walk(params, grid, basis.levels_requested):
        converged = (step.tail_weights <= basis.tail_tol) & (step.drifts <= basis.drift_tol)
        if np.all(converged):
            break
    return step, converged


class TestWalkStart:
    """The walk starts at the first grid point that can hold the levels; for
    η <= 10 it ends bitwise where the walk from ``n_start`` ends."""

    @settings(max_examples=30)
    @given(omega=st.floats(min_value=0.3, max_value=2.0),
           eta=st.floats(min_value=0.0, max_value=10.0),
           delta=st.floats(min_value=-2.0, max_value=2.0),
           levels=st.integers(min_value=1, max_value=10))
    @example(omega=1.0, eta=6.0, delta=0.3, levels=10)
    @example(omega=1.0, eta=10.0, delta=0.0, levels=10)
    @example(omega=0.3, eta=0.5, delta=0.0, levels=1)
    def test_skips_only_points_that_decide_nothing(self, omega, eta, delta, levels):
        params = params_of(omega, eta, delta)
        basis = BasisSpec(levels_requested=levels)
        try:
            result = solve_spectrum(params, basis)
        except ConvergenceFailure as err:
            result = err.result
        step, converged = full_walk(params, basis)
        assert result.n_final == step.n
        for name in ("energies", "coeff_c", "coeff_d", "tail_weights", "drifts"):
            assert getattr(result, name).tobytes() == getattr(step, name).tobytes(), name
        assert np.array_equal(result.converged, converged)
        reach = (eta + math.sqrt(levels)) ** 2
        grid = range(basis.n_start, basis.n_max_hard + 1, basis.n_step)
        assert result.trace[0][0] == min(n for n in grid if n >= max(basis.n_start, reach))


# Hard cap the solver needs at each strong coupling: η = 20 walks 540, 560, 580.
_STRONG_CAPS = {12.0: 400, 14.0: 400, 20.0: 800}


@pytest.fixture(scope="module", params=sorted(_STRONG_CAPS))
def strong_point(request):
    """(η, lowest ten bare-basis energies from ``bare_levels``) at Ω = 1, δ = 0.3,
    solved once per η."""
    eta = request.param
    return eta, bare_levels(params_of(1.0, eta, 0.3), 10)


class TestLargeCoupling:
    """Above η ≈ 10.5 a walk from n = 40 certified wrong energies at n = 60,
    where the overlap table underflows and tails and drifts read zero."""

    def test_matches_bare_oracle(self, solve, strong_point):
        eta, oracle = strong_point
        result = solve(1.0, eta, 0.3, n_max_hard=_STRONG_CAPS[eta])
        assert result.all_converged
        assert np.max(np.abs(result.energies - oracle)) < 1e-10

    @pytest.mark.parametrize("point", [(1, 20, 0.3), (1, 30, 0)])
    def test_beyond_hard_cap_fails(self, point):
        with pytest.raises(ConvergenceFailure) as err:
            solve_spectrum(params_of(*point))
        assert not err.value.result.all_converged
        assert err.value.result.n_final == 400


class TestBraakOracle:
    """At δ = 0 every converged level is a zero of Braak's G-function, which
    truncates nothing, and its parity label p picks G_(-p)."""

    @settings(max_examples=20)
    @given(omega=st.floats(min_value=0.3, max_value=2.0),
           eta=st.floats(min_value=0.0, max_value=8.0))
    @example(omega=1.0, eta=0.2)
    @example(omega=1.0, eta=1.0)
    @example(omega=2.0, eta=3.0)
    @example(omega=0.5, eta=6.0)
    @example(omega=2.0, eta=8.0)
    def test_levels_are_zeros_of_g(self, omega, eta):
        # The decoupled limit is exceptional: at Ω = 1 levels of one parity
        # pair up into double zeros of G, and at Ω = 2 they sit on its poles.
        assume(eta >= 1e-3 or min(abs(omega - 1.0), abs(omega - 2.0)) >= 1e-3)
        params = params_of(omega, eta, 0.0)
        result = solve_spectrum(params)
        levels = result.energies[result.converged]
        parities = result.parities[result.converged]
        x_max = float(np.max(levels)) + 1.0
        zeros = {p: g_zeros(params.g, omega / 2.0, -p, x_max) for p in (1, -1)}
        for energy, parity in zip(levels, parities):
            assert np.min(np.abs(zeros[int(parity)] - energy)) < 1e-10


class TestBandedOracle:
    """Every level marked converged is a level of the bare basis, solved
    banded at a size it has been checked to converge at, over the domain."""

    @settings(max_examples=40)
    @given(log_omega=st.floats(min_value=math.log(0.05), max_value=math.log(60.0)),
           eta=st.floats(min_value=0.0, max_value=12.0),
           delta=st.floats(min_value=-20.0, max_value=20.0),
           levels=st.sampled_from([1, 5, 10, 20, 40]))
    # Corners of the domain; a walk that started below the reach of the
    # levels certified wrong energies at the first two.
    @example(log_omega=0.0, eta=12.0, delta=0.3, levels=10)
    @example(log_omega=math.log(0.05), eta=12.0, delta=20.0, levels=10)
    @example(log_omega=math.log(60.0), eta=12.0, delta=0.0, levels=40)
    def test_converged_levels_match(self, log_omega, eta, delta, levels):
        params = params_of(math.exp(log_omega), eta, delta)
        try:
            result = solve_spectrum(params, BasisSpec(levels_requested=levels))
        except ConvergenceFailure as failure:
            result = failure.result
        energies = result.energies[result.converged]
        oracle = bare_levels(params, levels)[result.converged]
        assert np.all(np.abs(energies - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))


class TestIntegerDetuningOracle:
    """At an integer detuning δ = M the working-frame H is the asymmetric
    quantum Rabi model with bias ε = −M/2, whose levels cross exactly. Where
    η² + Ω²/4 = |M| + 1, two levels sit at E = 1 + |M|/2; at δ = 0 this is
    the Juddian point 4g² + Δ² = 1 (Δ = Ω/2)."""

    @settings(max_examples=60)
    @given(m=st.integers(min_value=-4, max_value=4),
           fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_two_levels_at_the_crossing(self, m, fraction):
        # Ω = fraction · 2√(|M|+1) spans (0, 2√(|M|+1)); η closes the curve.
        omega = fraction * 2.0 * math.sqrt(abs(m) + 1)
        eta = math.sqrt(max(abs(m) + 1 - omega ** 2 / 4.0, 0.0))
        result = solve_spectrum(params_of(omega, eta, float(m)))
        levels = result.energies[result.converged]
        assert np.count_nonzero(np.abs(levels - (1.0 + abs(m) / 2.0)) <= 1e-12) >= 2


class TestClassifyLevels:
    def test_small_coupling_pairing(self, solve):
        result = solve(1.0, 0.1, 0.0)
        rwa = rwa_spectrum(result.params, 6)
        rows = classify_levels(result, rwa)
        assert rows[0].rwa_label == "ground"
        for row in rows[1:]:
            assert abs(row.gap) < 0.05
            assert row.agrees

    def test_short_rwa_list_rejected(self, solve):
        # Ten levels pair with labels up to E+_4; doublets 0 and 1 end at E+_1.
        result = solve(1.0, 0.2, 0.0)
        with pytest.raises(ValueError, match="missing E-_2"):
            classify_levels(result, rwa_spectrum(result.params, 1))

    def test_ground_gap_negative(self, solve):
        result = solve(1.0, 0.2, 0.0)
        rows = classify_levels(result, rwa_spectrum(result.params, 6))
        assert rows[0].gap < 0

    def test_alternating_branch_assignment(self, solve):
        result = solve(1.0, 0.1, 0.0)
        rows = classify_levels(result, rwa_spectrum(result.params, 6))
        assert [r.rwa_label for r in rows[:5]] == \
            ["ground", "E-_0", "E+_0", "E-_1", "E+_1"]

    def test_gaps_vanish_toward_lamb_dicke_limit(self, solve):
        etas = [0.2, 0.1, 0.05, 0.02]
        gaps = []
        for eta in etas:
            result = solve(1.0, eta, 0.0)
            rows = classify_levels(result, rwa_spectrum(result.params, 6))
            gaps.append([abs(r.gap) for r in rows])
        for level in range(10):
            series = [g[level] for g in gaps]
            assert all(a > b for a, b in zip(series, series[1:])), \
                f"level {level} gap not shrinking: {series}"


class TestTruncationTable:
    def test_energies_non_increasing(self):
        rows = truncation_table(params_of(1, 0.6, 0), [20, 40, 60], levels=6)
        for level in range(6):
            series = [r["energy"] for r in rows if r["level"] == level]
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_tails_positive_and_decreasing(self):
        rows = truncation_table(params_of(1, 0.2, 0), [20, 40, 60], levels=5)
        # Every number in a row is a Python float, the first drift None.
        for r in rows:
            assert type(r["energy"]) is type(r["tail_weight"]) is float
            assert type(r["drift"]) is (type(None) if r["n"] == 20 else float)
        for level in range(5):
            series = [r["tail_weight"] for r in rows if r["level"] == level]
            assert all(t > 0 for t in series)
            assert all(b < a for a, b in zip(series, series[1:]))

    def test_zero_coupling_drifts_vanish(self):
        rows = truncation_table(params_of(1, 0, 0), [20, 40], levels=10)
        for r in rows:
            if r["drift"] is not None:
                assert r["drift"] == 0.0

    def test_rejects_bad_lists(self):
        for n_list in ([40, 20], []):
            with pytest.raises(ValueError) as err:
                truncation_table(params_of(1, 0.2, 0), n_list, levels=5)
            assert err.value.field == "n_list"

    def test_rejects_truncation_above_cap(self, monkeypatch):
        # Without the cap the first solve allocates a dense (n+1)² overlap table.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the truncation cap")

        monkeypatch.setattr(solver, "_solve_at", unreachable)
        with pytest.raises(ValueError):
            truncation_table(params_of(1, 0.2, 0), [20, MAX_TRUNCATION + 1], levels=5)


    @pytest.mark.parametrize("n_list, levels", [
        ([20.5, 40], 2),
        ([20, 40.0], 2),
        ([True, 40], 2),
        ([20, 40], 2.0),
        ([20, 40], True),
        ([20, 40], 0),
        ([20, 40], -3),
    ])
    def test_rejects_non_integers_and_no_levels(self, monkeypatch, n_list, levels):
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the input checks")

        monkeypatch.setattr(solver, "_solve_at", unreachable)
        with pytest.raises(ValueError) as err:
            truncation_table(params_of(1, 0.2, 0), n_list, levels)
        # A list of plain ints is good, so the level count is the one named.
        assert err.value.field == ("levels" if all(type(n) is int for n in n_list) else "n_list")

    def test_accepts_numpy_integers(self):
        plain = truncation_table(params_of(1, 0.2, 0.3), [20, 40], 3)
        numpy = truncation_table(params_of(1, 0.2, 0.3), np.array([20, 40]), np.int64(3))
        assert [r["energy"] for r in numpy] == [r["energy"] for r in plain]
        assert [r["n"] for r in numpy] == [r["n"] for r in plain]

    @pytest.mark.parametrize("point", [(1, 0.6, 0), (1, 0.6, 0.3), (2, 1.0, -0.5)])
    def test_matches_solve_spectrum(self, point):
        # Both walk the same truncations through the same step, so they agree bitwise.
        basis = BasisSpec(n_start=10, n_step=10, levels_requested=5)
        result = solve_spectrum(params_of(*point), basis)
        assert len(result.trace) >= 2
        rows = truncation_table(params_of(*point), [n for n, _ in result.trace], 5)
        for n, energies in result.trace:
            assert [r["energy"] for r in rows if r["n"] == n] == energies.tolist()
        last = [r for r in rows if r["n"] == result.n_final]
        assert [r["tail_weight"] for r in last] == result.tail_weights.tolist()
        assert [r["drift"] for r in last] == result.drifts.tolist()


class TestTableBuilds:
    """A walk builds the table of D(2g) once; every step reads a leading block of it."""

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_two_step_solve_builds_once(self, table_builds, delta):
        result = solve_spectrum(params_of(1.0, 0.4137, delta))
        assert [n for n, _ in result.trace] == [40, 60]
        assert table_builds == [60]

    def test_single_truncation_walk_builds_once(self, table_builds):
        basis = BasisSpec(n_start=40, n_max_hard=40, levels_requested=3)
        with pytest.raises(ConvergenceFailure):
            solve_spectrum(params_of(1.0, 0.4137, 0.0), basis)
        assert table_builds == [40]

    def test_truncation_table_builds_at_largest(self, table_builds):
        rows = truncation_table(params_of(1.0, 0.5137, 0.3), [20, 40, 60, 80], 3)
        assert [r["n"] for r in rows[::3]] == [20, 40, 60, 80]
        assert table_builds == [80]


class TestPeakMemory:
    """A solve holds one truncation's matrices at a time.

    The previous step is released before the next ``eigh``, the certificate
    works in one matrix-sized temporary, and at δ = 0 the two sectors are
    merged into one allocation. The traced peak is counted in matrices of
    (2n+2)² doubles at the last truncation. It reads 3.36 at δ = 0.5 and
    2.35 at δ = 0; keeping the previous step alive adds about 0.8, each further
    temporary 1 (δ ≠ 0) or 0.25 per sector (δ = 0). ``tracemalloc`` sees
    numpy's arrays but not LAPACK's workspace.
    """

    @staticmethod
    def traced_peak(monkeypatch, run):
        monkeypatch.setattr(overlap, "_slot", {})  # the walk builds its own table
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("delta, bound", [(0.5, 3.75), (0.0, 2.75)])
    def test_solve_spectrum(self, monkeypatch, delta, bound):
        result, peak = self.traced_peak(
            monkeypatch, lambda: solve_spectrum(params_of(1.0, 8.0, delta)))
        assert [n for n, _ in result.trace] == [140, 160]
        assert peak < bound * (2 * 160 + 2) ** 2 * 8

    @pytest.mark.parametrize("delta, bound", [(0.5, 3.75), (0.0, 2.75)])
    def test_truncation_table(self, monkeypatch, delta, bound):
        _, peak = self.traced_peak(
            monkeypatch, lambda: truncation_table(params_of(1.0, 8.0, delta), [120, 140, 160], 3))
        assert peak < bound * (2 * 160 + 2) ** 2 * 8


class TestConvergenceFailureText:
    def failure(self, point, basis):
        with pytest.raises(ConvergenceFailure) as err:
            solve_spectrum(params_of(*point), basis)
        return str(err.value)

    def test_names_drift_levels_only(self):
        text = self.failure((1, 3, 0.5), BasisSpec(n_max_hard=45))
        assert text == ("not converged at hard cap n=45: "
                        "drift test fails at levels 8, 9 (max drift 2.000e-10)")

    def test_names_each_failing_test(self):
        basis = BasisSpec(n_start=6, n_step=1, n_max_hard=8, levels_requested=4)
        text = self.failure((1, 0.6, 0.2), basis)
        assert "tail test fails at levels 0, 1, 2, 3 (max tail 1.691e-03)" in text
        assert "drift test fails at levels 1, 2, 3 (max drift 1.187e-07)" in text

    def test_single_truncation_has_infinite_drift(self):
        basis = BasisSpec(n_start=40, n_max_hard=40, levels_requested=3)
        text = self.failure((1, 0.2, 0), basis)
        assert text == ("not converged at hard cap n=40: "
                        "drift test fails at levels 0, 1, 2 (max drift inf)")


class TestGroundStateClaims:
    @pytest.mark.parametrize("omega", [1.0, 2.0])
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.6, 1.0])
    def test_ground_below_rwa(self, solve, omega, eta):
        result = solve(omega, eta, 0.0)
        g = eta / 2.0
        assert result.energies[0] < -omega / 2.0 + g * g

    @pytest.mark.parametrize("omega", [1.0, 2.0])
    @pytest.mark.parametrize("eta", [0.1, 0.2])
    def test_small_coupling_gap_law(self, solve, omega, eta):
        result = solve(omega, eta, 0.0)
        g = eta / 2.0
        gap = result.energies[0] - (g * g - omega / 2.0)
        expected = -g * g / (omega + 1.0)
        assert abs(gap - expected) <= 0.2 * abs(expected)

    def test_ground_tends_to_rwa_ground(self, solve):
        # the gap collapses as the coupling is turned off
        gaps = []
        for eta in (0.2, 0.05, 0.01):
            result = solve(1.0, eta, 0.0)
            g = eta / 2.0
            gaps.append(abs(result.energies[0] - (-0.5 + g * g)))
        assert gaps[0] > gaps[1] > gaps[2]
        # at eta = 0.01 the gap is the perturbative g²/(Ω+1) ≈ 1.25e-5
        assert gaps[2] < 2e-5
