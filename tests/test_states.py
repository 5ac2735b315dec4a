"""State constructions, frame discipline, and spectral propagation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_spectra import (
    BasisSpec,
    ConvergenceFailure,
    DomainError,
    Frame,
    FrameMismatch,
    IncompleteBasis,
    ModelParams,
    NormLoss,
    QuantumState,
    basis_state,
    build_bare_rabi_hamiltonian,
    displacement_matrix,
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
    solve_spectrum,
    validate,
    working_to_intermediate,
)
from rabi_spectra.states import _TIME_BLOCK, _project


def params_of(omega, eta, delta):
    return validate(ModelParams(omega=omega, eta=eta, delta=delta))


def coherent_amps(beta, n):
    """Oracle column: ⟨k|D(beta)|0⟩ = e^{-|β|²/2} β^k / sqrt(k!)."""
    out = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        out[k] = (np.exp(-abs(beta) ** 2 / 2.0) * beta ** k
                  / math.sqrt(math.factorial(k)))
    return out


class TestQuantumState:
    def test_normalized_on_construction(self):
        amps = np.zeros((5, 2), dtype=complex)
        amps[0, 0] = 3.0
        state = QuantumState(amps, Frame.WORKING)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.zeros((4, 2), dtype=complex), Frame.WORKING)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_amplitudes_rejected(self, bad):
        amps = np.ones((3, 2), dtype=complex)
        amps[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            QuantumState(amps, Frame.WORKING)

    @pytest.mark.parametrize("frame", ["lab", "H_prime", None, 0])
    def test_frame_must_be_a_frame(self, frame):
        # Frames are compared by identity, so a string tag would pass as a frame of its own.
        with pytest.raises(ValueError, match="Frame"):
            QuantumState(np.ones((2, 2)), frame)

    def test_fixed_phase(self):
        amps = np.zeros((3, 2), dtype=complex)
        amps[1, 0] = 1.0j
        state = QuantumState(amps, Frame.WORKING).fixed_phase()
        assert state.amps[1, 0] == pytest.approx(1.0, abs=1e-15)


class TestEigvecToBare:
    def test_zero_coupling_passthrough(self):
        c = np.array([0.6, 0.8, 0.0])
        d = np.zeros(3)
        state = eigvec_to_bare(c, d, 0.0)
        assert np.allclose(state.amps[:, 0], c, atol=1e-15)
        assert np.allclose(state.amps[:, 1], d, atol=1e-15)

    def test_unit_coefficient_gives_displaced_vacuum(self):
        n, g = 30, 0.1
        c = np.zeros(n + 1)
        c[0] = 1.0
        state = eigvec_to_bare(c, np.zeros(n + 1), g)
        expected = coherent_amps(-g, n)
        assert np.max(np.abs(state.amps[:, 0] - expected)) < 1e-12

    def test_spin_dependent_displacement_directions(self):
        # the lower-spin block is displaced the opposite way
        n, g = 30, 0.1
        d = np.zeros(n + 1)
        d[0] = 1.0
        state = eigvec_to_bare(np.zeros(n + 1), d, g)
        expected = coherent_amps(+g, n)
        assert np.max(np.abs(state.amps[:, 1] - expected)) < 1e-12

    def test_round_trip_identity(self):
        n, g = 60, 0.2
        rng = np.random.default_rng(4)
        c = np.exp(-np.arange(n + 1.0)) * rng.standard_normal(n + 1)
        c /= np.linalg.norm(c)
        to_bare = displacement_matrix(-g, n).real
        back = to_bare.T @ (to_bare @ c)
        assert np.max(np.abs(back - c)) < 1e-9

    def test_norm_loss_signalled(self):
        n, g = 5, 0.5
        c = np.zeros(n + 1)
        c[n] = 1.0  # top state spills past the truncation once displaced
        with pytest.raises(NormLoss):
            eigvec_to_bare(c, np.zeros(n + 1), g)

    def test_nan_coefficient_fails_the_floor(self):
        # nan < floor is False, so the floor has to be tested as "not kept >= floor".
        with pytest.raises(NormLoss):
            eigvec_to_bare(np.array([math.nan, 0.0, 0.0]), np.zeros(3), 0.1)

    def test_infinite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eigvec_to_bare(np.array([math.inf, 0.0, 0.0]), np.zeros(3), 0.1)

    def test_norm_floor_is_on_probability(self):
        # Row 0 of D(0.56) at n = 5 keeps probability 1 - 1.01e-6, just under
        # the floor 1 - 1e-6; its norm alone would pass.
        n, g = 5, 0.56
        c = np.zeros(n + 1)
        c[0] = 1.0
        with pytest.raises(NormLoss):
            ideal_cat_state(g, n)
        with pytest.raises(NormLoss):
            eigvec_to_bare(c, np.zeros(n + 1), g)


class TestHadamard:
    def test_on_lower_spin_vacuum(self):
        state = hadamard_on_spin(basis_state(0, "g", 4))
        r = 1 / math.sqrt(2)
        assert state.amps[0, 0] == pytest.approx(r, abs=1e-15)
        assert state.amps[0, 1] == pytest.approx(r, abs=1e-15)

    def test_self_inverse(self):
        rng = np.random.default_rng(8)
        amps = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        state = QuantumState(amps, Frame.WORKING)
        twice = hadamard_on_spin(hadamard_on_spin(state))
        assert np.max(np.abs(twice.amps - state.amps)) < 1e-15

    def test_matrix_squares_to_identity(self):
        r = 1 / math.sqrt(2)
        h = np.array([[-r, r], [r, r]])  # rows/cols in (e, g) order
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_norm_preserved(self):
        state = basis_state(2, "e", 5)
        out = hadamard_on_spin(state)
        assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-15)


class TestIdealCat:
    @pytest.mark.parametrize("g", [0.0, 0.1, 0.3])
    def test_norm_exact(self, g):
        # oracle: rebuild the two branches from coherent columns
        n = 40
        plus = coherent_amps(-g, n).real
        minus = coherent_amps(+g, n).real
        raw_g = 0.5 * (plus + minus)
        raw_e = -0.5 * (plus - minus)
        raw_norm = math.sqrt(np.sum(raw_g ** 2) + np.sum(raw_e ** 2))
        assert raw_norm == pytest.approx(1.0, abs=1e-12)
        state = ideal_cat_state(g, n)
        assert np.max(np.abs(state.amps[:, 1].real - raw_g)) < 1e-12
        assert np.max(np.abs(state.amps[:, 0].real - raw_e)) < 1e-12

    def test_zero_coupling_collapses(self):
        state = ideal_cat_state(0.0, 10)
        assert state.amps[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(state.amps[1:, :])) == 0.0
        assert np.max(np.abs(state.amps[:, 0])) == 0.0

    def test_even_odd_branch_structure(self):
        state = ideal_cat_state(0.3, 50)
        evens = state.amps[0::2, :]
        odds = state.amps[1::2, :]
        assert np.max(np.abs(odds[:, 1])) < 1e-12   # lower spin: even only
        assert np.max(np.abs(evens[:, 0])) < 1e-12  # upper spin: odd only

    def test_mean_occupation(self):
        g = 0.3
        state = ideal_cat_state(g, 50)
        occupation = expect_number(state)
        # the two displaced branches average to exactly g² occupation
        assert occupation == pytest.approx(g * g, abs=1e-12)
        assert 0.0 < occupation <= 4 * g * g + 1


class TestFidelity:
    def test_self_and_orthogonal(self):
        a = basis_state(0, "g", 5)
        b = basis_state(1, "g", 5)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_frame_mismatch(self):
        a = basis_state(0, "g", 5, frame=Frame.WORKING)
        b = basis_state(0, "g", 5, frame=Frame.LAB)
        with pytest.raises(FrameMismatch):
            fidelity(a, b)

    def test_truncation_mismatch(self):
        a = basis_state(0, "g", 5)
        b = basis_state(0, "g", 6)
        with pytest.raises(FrameMismatch):
            fidelity(a, b)

    def test_cat_fidelity_decreases_with_coupling(self, solve):
        values = []
        for eta in (0.05, 0.4):
            result = solve(1.0, eta, 0.0)
            ground = eigvec_to_bare(result.coeff_c[0], result.coeff_d[0],
                                    result.params.g)
            had = hadamard_on_spin(ground)
            cat = ideal_cat_state(result.params.g, result.n_final)
            values.append(fidelity(had, cat))
        assert values[0] > values[1]
        assert all(0.0 <= v <= 1.0 for v in values)


class TestEvolve:
    def test_time_zero_is_identity(self, solve):
        result = solve(1.0, 0.2, 0.0)
        initial = basis_state(0, "g", result.n_final)
        final = evolve(initial, result, 0.0)
        assert fidelity(initial, final) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_stationarity(self, solve):
        result = solve(1.0, 0.2, 0.0)
        level = eigvec_to_bare(result.coeff_c[1], result.coeff_d[1],
                               result.params.g)
        later = evolve(level, result, 7.3)
        assert fidelity(level, later) == pytest.approx(1.0, abs=1e-10)
        assert expect_sigma_z(later) == pytest.approx(expect_sigma_z(level), abs=1e-10)
        assert expect_number(later) == pytest.approx(expect_number(level), abs=1e-10)

    def test_norm_and_energy_conserved(self, solve):
        result = solve(1.0, 0.2, 0.0)
        initial = basis_state(0, "g", result.n_final)
        times = np.linspace(0.0, 100.0, 101)
        table = propagate_observables(initial, result, times)
        norms = table[:, 1]
        energies = table[:, 2]
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert np.max(np.abs(energies - energies[0])) < 1e-10

    def test_random_span_state_conserved(self, solve):
        # random normalized combination of converged eigenstates stays
        # normalized and keeps its energy along the propagation
        result = solve(1.0, 0.4, 0.0)
        rng = np.random.default_rng(17)
        weights = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        amps = np.zeros((result.n_final + 1, 2), dtype=complex)
        for i in range(10):
            level = eigvec_to_bare(result.coeff_c[i], result.coeff_d[i],
                                   result.params.g)
            amps += weights[i] * level.amps
        state = QuantumState(amps, Frame.WORKING)
        table = propagate_observables(state, result, np.linspace(0.0, 100.0, 97))
        assert np.max(np.abs(table[:, 1] - 1.0)) < 1e-10
        assert np.max(np.abs(table[:, 2] - table[0, 2])) < 1e-10

    def test_incomplete_basis_raises(self, solve):
        result = solve(1.0, 0.2, 0.0)
        top = basis_state(result.n_final, "e", result.n_final)
        with pytest.raises(IncompleteBasis):
            evolve(top, result, 1.0)

    def test_frame_required(self, solve):
        result = solve(1.0, 0.2, 0.0)
        wrong = basis_state(0, "g", result.n_final, frame=Frame.LAB)
        with pytest.raises(FrameMismatch):
            evolve(wrong, result, 1.0)

    def test_unconverged_result_rejected(self):
        basis = BasisSpec(n_start=2, n_step=1, n_max_hard=4, levels_requested=2)
        with pytest.raises(ConvergenceFailure) as err:
            solve_spectrum(params_of(1, 0.8, 0), basis)
        partial = err.value.result
        initial = basis_state(0, "g", partial.n_final)
        with pytest.raises(DomainError):
            evolve(initial, partial, 1.0)

    def test_nonstationary_initial_state_oscillates(self, solve):
        result = solve(1.0, 0.2, 0.0)
        initial = basis_state(0, "g", result.n_final)
        table = propagate_observables(initial, result, [0.0, 1.0, 2.0])
        assert table[0, 3] == pytest.approx(-1.0, abs=1e-12)   # sigma_z at t=0
        assert table[0, 5] == pytest.approx(0.0, abs=1e-12)    # occupation at t=0
        assert abs(table[2, 3] - table[0, 3]) > 1e-3


def reference_table(initial, result, times):
    """Per-time loop: evolve at each t, norm and energy from the flat vector."""
    h = build_bare_rabi_hamiltonian(result.params, result.n_final)
    rows = []
    for t in times:
        state = evolve(initial, result, t)
        vec = state.flat()
        rows.append((t, np.linalg.norm(vec), np.real(np.vdot(vec, h @ vec)),
                     expect_sigma_z(state), expect_sigma_x(state), expect_number(state)))
    return np.array(rows).reshape(-1, 6)


class TestPropagateBlocks:
    """Blocked propagation against the per-time reference, across block edges."""

    @pytest.mark.parametrize("count", [0, 1, _TIME_BLOCK - 1, _TIME_BLOCK, _TIME_BLOCK + 1,
                                       2 * _TIME_BLOCK + 3])
    @pytest.mark.parametrize("point, initial", [
        ((1.0, 0.2, 0.0), "cat"),
        ((1.0, 0.4, 0.3), "fock"),
        ((1.0, 0.4, 0.3), "complex"),
    ])
    def test_matches_per_time_reference(self, solve, count, point, initial):
        result = solve(*point)
        n = result.n_final
        if initial == "cat":
            state = ideal_cat_state(result.params.g, n)
        elif initial == "fock":
            state = basis_state(0, "g", n)
        else:
            # (|0,g> + i|1,e>)/√2: weights with imaginary parts.
            state = QuantumState(basis_state(0, "g", n).amps + 1j * basis_state(1, "e", n).amps,
                                 Frame.WORKING)
        # Unsorted, and negative as well as positive times.
        times = np.random.default_rng(count).permutation(np.linspace(-30.0, 50.0, count))
        table = propagate_observables(state, result, times)
        assert table.shape == (count, 6)
        assert np.array_equal(table[:, 0], times)
        assert np.max(np.abs(table - reference_table(state, result, times)),
                      initial=0.0) <= 1e-12

    def test_generator_input(self, solve):
        result = solve(1.0, 0.2, 0.0)
        state = basis_state(0, "g", result.n_final)
        times = [0.1 * i for i in range(2 * _TIME_BLOCK + 3)]
        lazy = propagate_observables(state, result, (t for t in times))
        assert np.array_equal(lazy, propagate_observables(state, result, times))

    @pytest.mark.parametrize("times", [[], np.array([]), iter(())], ids=["list", "array", "iter"])
    def test_no_times(self, solve, times):
        result = solve(1.0, 0.2, 0.0)
        state = basis_state(0, "g", result.n_final)
        assert propagate_observables(state, result, times).shape == (0, 6)

    @pytest.mark.parametrize("times", [[0.0, math.inf, 1.0], np.array([0.0, 1.0, math.nan]),
                                       (t for t in (0.0, -math.inf))],
                             ids=["list", "array", "generator"])
    def test_non_finite_time_rejected(self, solve, times):
        result = solve(1.0, 0.2, 0.0)
        state = basis_state(0, "g", result.n_final)
        with pytest.raises(DomainError, match="time must be finite"):
            propagate_observables(state, result, times)

    def test_time_beyond_a_float_rejected(self, solve):
        # Finite as a longdouble (where that is wider than a float), inf once cast for propagation.
        result = solve(1.0, 0.2, 0.0)
        state = basis_state(0, "g", result.n_final)
        with pytest.raises(DomainError, match="time must be finite"):
            propagate_observables(state, result, np.array(["1e4000"]).astype(np.longdouble))

    @settings(max_examples=20)
    @given(omega=st.floats(min_value=0.5, max_value=2.0),
           eta=st.floats(min_value=0.0, max_value=1.0))
    def test_conservation_at_resonance(self, omega, eta):
        result = solve_spectrum(params_of(omega, eta, 0.0))
        state = basis_state(0, "g", result.n_final)
        table = propagate_observables(state, result, np.linspace(0.0, 100.0, 2 * _TIME_BLOCK + 3))
        assert np.max(np.abs(table[:, 1] - 1.0)) <= 1e-10
        assert np.max(np.abs(table[:, 2] - table[0, 2])) <= 1e-10


@pytest.mark.parametrize("point, order", [((1.0, 0.2, 0.0), "F"), ((2.0, 3.7, 0.0), "F"),
                                          ((1.0, 0.3, 0.5), "C")])
def test_bare_eigenbasis_keeps_memory_order(solve, point, order):
    """The propagator's products round their last bit by the eigenbasis's memory order."""
    result = solve(*point)
    initial = eigvec_to_bare(result.coeff_c[0], result.coeff_d[0], result.params.g)
    _, columns, _ = _project(initial, result)
    assert result.decomposition.eigenvectors.flags[f"{order}_CONTIGUOUS"]
    assert columns.flags[f"{order}_CONTIGUOUS"]


class TestExpectations:
    def test_basis_state_values(self):
        state = basis_state(0, "e", 4)
        assert expect_sigma_z(state) == 1.0
        assert expect_number(state) == 0.0

    def test_sigma_x_plus_state(self):
        amps = np.zeros((4, 2), dtype=complex)
        amps[0, :] = 1.0
        state = QuantumState(amps, Frame.WORKING)
        assert expect_sigma_x(state) == pytest.approx(1.0, abs=1e-15)

    def test_bounds(self, solve):
        result = solve(1.0, 0.4, 0.0)
        ground = eigvec_to_bare(result.coeff_c[0], result.coeff_d[0],
                                result.params.g)
        assert -1.0 <= expect_sigma_z(ground) <= 1.0
        assert -1.0 <= expect_sigma_x(ground) <= 1.0
        assert expect_number(ground) >= 0.0


class TestFrameTransforms:
    def test_lab_round_trip(self):
        n = 80
        amps = np.zeros((n + 1, 2), dtype=complex)
        amps[0, 1] = 1.0
        amps[2, 0] = 0.5
        state = QuantumState(amps, Frame.LAB)
        back = intermediate_to_lab(lab_to_intermediate(state, 0.2), 0.2)
        assert back.frame is Frame.LAB
        assert fidelity(state, back) == pytest.approx(1.0, abs=1e-8)

    def test_spin_rotation_round_trip(self):
        state = basis_state(1, "e", 6, frame=Frame.WORKING)
        back = intermediate_to_working(working_to_intermediate(state))
        assert np.max(np.abs(back.amps - state.amps)) < 1e-15

    def test_frame_tags_enforced(self):
        state = basis_state(0, "g", 5, frame=Frame.WORKING)
        with pytest.raises(FrameMismatch):
            lab_to_intermediate(state, 0.2)
        with pytest.raises(FrameMismatch):
            intermediate_to_working(state)

    def test_energy_preserved_across_u(self):
        # expectation of the lab Hamiltonian equals that of the rotated
        # Hamiltonian after the rotation, for interior-supported states
        from rabi_spectra import build_intermediate_hamiltonian, build_lab_hamiltonian
        p = params_of(1, 0.2, 0.5)
        n = 80
        amps = np.zeros((n + 1, 2), dtype=complex)
        amps[0, 1] = 1.0
        amps[1, 0] = 0.7j
        state = QuantumState(amps, Frame.LAB)
        rotated = lab_to_intermediate(state, p.eta)
        e_lab = np.real(state.flat().conj() @ build_lab_hamiltonian(p, n) @ state.flat())
        e_rot = np.real(rotated.flat().conj() @ build_intermediate_hamiltonian(p, n)
                        @ rotated.flat())
        assert e_rot == pytest.approx(e_lab, abs=1e-8)
