"""Builder tests: block structure, frame equivalences, closed-form spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_spectra import (
    ModelParams,
    build_bare_rabi_hamiltonian,
    build_displaced_hamiltonian,
    build_intermediate_hamiltonian,
    build_lab_hamiltonian,
    build_rwa_hamiltonian,
    build_U_matrix,
    build_V_matrix,
    displacement_matrix,
    rwa_spectrum,
    validate,
)


def params_of(omega, eta, delta):
    return validate(ModelParams(omega=omega, eta=eta, delta=delta))


class TestDisplacedBuilder:
    def test_dimension(self):
        h = build_displaced_hamiltonian(params_of(1, 0.2, 0), 10)
        assert h.shape == (22, 22)

    def test_exactly_symmetric(self):
        h = build_displaced_hamiltonian(params_of(2, 0.6, -1.3), 30)
        assert np.array_equal(h, h.T)

    def test_decoupled_spectrum(self):
        # at zero coupling each 2x2 block is [[m, -1/2], [-1/2, m]]
        h = build_displaced_hamiltonian(params_of(1, 0, 0), 20)
        w = np.linalg.eigvalsh(h)
        expected = np.sort(np.concatenate([np.arange(21) - 0.5, np.arange(21) + 0.5]))
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_drive_entry(self):
        # (c_0, d_1) entry equals Omega * g * exp(-2 g^2)
        h = build_displaced_hamiltonian(params_of(1, 0.2, 0), 12)
        expected = 0.1 * math.exp(-0.02)
        assert h[0, 13 + 1] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("omega, eta", [(1, 0.2), (2, 0.6), (0.5, 6.0), (1, 0.0)])
    @pytest.mark.parametrize("n", [1, 40])
    def test_coupling_is_displacement_by_2g(self, omega, eta, n):
        # c-d block -(Ω/2) D(2g); its transpose, the d-c block, is -(Ω/2) D(-2g)
        p = params_of(omega, eta, 0.3)
        h = build_displaced_hamiltonian(p, n)
        dim = n + 1
        coupling = -(omega / 2.0) * displacement_matrix(2.0 * p.g, n).real
        assert h[:dim, dim:].tobytes() == coupling.tobytes()
        reverse = -(omega / 2.0) * displacement_matrix(-2.0 * p.g, n).real
        assert np.array_equal(h[dim:, :dim], reverse)

    def test_bias_on_diagonals(self):
        h = build_displaced_hamiltonian(params_of(1, 0.2, 1.4), 8)
        eps = -0.7
        assert h[3, 3] == 3 + eps
        assert h[9 + 3, 9 + 3] == 3 - eps


class TestBareBuilder:
    def test_decoupled_spectrum(self):
        h = build_bare_rabi_hamiltonian(params_of(1, 0, 0), 20)
        w = np.linalg.eigvalsh(h)
        expected = np.sort(np.concatenate([np.arange(21) - 0.5, np.arange(21) + 0.5]))
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_upper_spin_diagonal(self):
        p = params_of(1, 0.4, -0.6)
        h = build_bare_rabi_hamiltonian(p, 10)
        for k in (0, 4, 10):
            assert h[k, k] == pytest.approx(k + p.epsilon + p.g ** 2, abs=1e-15)

    def test_is_brute_force_oracle_for_displaced(self):
        p = params_of(1, 0.2, 0)
        low = np.linalg.eigvalsh(build_displaced_hamiltonian(p, 60))[:10]
        ref = np.linalg.eigvalsh(build_bare_rabi_hamiltonian(p, 200))[:10]
        assert np.max(np.abs(low - ref)) < 1e-8

    @settings(max_examples=50)
    @given(omega=st.floats(min_value=0.01, max_value=10.0),
           eta=st.floats(min_value=0.0, max_value=10.0),
           delta=st.floats(min_value=-10.0, max_value=10.0),
           n=st.integers(min_value=1, max_value=80))
    def test_three_bands(self, omega, eta, delta, n):
        # propagate_observables reads <H> from these bands alone, and takes the
        # spin coupling at offset n+1 as one constant.
        h = build_bare_rabi_hamiltonian(params_of(omega, eta, delta), n)
        assert np.array_equal(h, h.T)
        bands = sum(np.diag(np.diag(h, k), k) for k in (0, 1, -1, n + 1, -(n + 1)))
        assert np.array_equal(h, bands)
        assert np.array_equal(np.diag(h, n + 1), np.full(n + 1, -omega / 2.0))

    def test_scalar_shift_linearity(self):
        p = params_of(2, 0.6, 1)
        h = build_bare_rabi_hamiltonian(p, 40)
        s = p.g ** 2
        shifted = h + s * np.eye(h.shape[0])
        w0 = np.linalg.eigvalsh(h)
        w1 = np.linalg.eigvalsh(shifted)
        assert np.max(np.abs(w1 - (w0 + s))) < 1e-12 * (1 + np.max(np.abs(w0)))


class TestLabBuilder:
    def test_exactly_hermitian(self):
        h = build_lab_hamiltonian(params_of(1, 0.4, 0.7), 40)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_zero_eta_blocks(self):
        # exp(i eta x) collapses to identity; 2x2 blocks give k ± sqrt(D²+Ω²)/2
        omega, delta = 1.0, 1.0
        h = build_lab_hamiltonian(params_of(omega, 0, delta), 30)
        w = np.linalg.eigvalsh(h)
        split = math.sqrt(delta ** 2 + omega ** 2) / 2.0
        expected = np.sort(np.concatenate([np.arange(31) - split, np.arange(31) + split]))
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_coupling_too_large_raises(self):
        with pytest.raises(OverflowError):
            build_lab_hamiltonian(params_of(1, 1e5, 0), 40)

    def test_matches_working_frame(self):
        p = params_of(1, 0.2, 0)
        lab = np.linalg.eigvalsh(build_lab_hamiltonian(p, 200))[:6]
        bare = np.linalg.eigvalsh(build_bare_rabi_hamiltonian(p, 200))[:6]
        assert np.max(np.abs(lab - bare)) < 1e-6


class TestFrameRotations:
    def test_v_matrix_values(self):
        v = build_V_matrix()
        r = math.sqrt(0.5)
        assert np.allclose(v, [[r, r], [-r, r]], atol=1e-15)
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-15)

    def test_v_conjugation_on_spin(self):
        v = build_V_matrix()
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(v @ sigma_x @ v.T, sigma_z, atol=1e-15)
        assert np.allclose(v @ sigma_z @ v.T, -sigma_x, atol=1e-15)

    def test_v_takes_intermediate_to_working(self):
        p = params_of(1, 0.2, 0.8)
        n = 40
        hi = build_intermediate_hamiltonian(p, n)
        hw = build_bare_rabi_hamiltonian(p, n)
        v_full = np.kron(build_V_matrix(), np.eye(n + 1))
        assert np.max(np.abs(v_full @ hi @ v_full.T - hw)) < 1e-13

    def test_u_structure_at_zero_eta(self):
        n = 6
        u = build_U_matrix(0.0, n)
        phases = np.diag(1.0j ** np.arange(n + 1))
        spin = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        expected = np.kron(spin, phases)
        assert np.max(np.abs(u - expected)) < 1e-15

    @pytest.mark.parametrize("eta", [0.0, 0.2, 1.0, 3.7])
    @pytest.mark.parametrize("n", [0, 5, 40, 120])
    def test_u_bitwise_matches_diagonal_products(self, eta, n):
        # Reference: the explicit products with diag(i^k), signed zeros included.
        phase = np.diag(1.0j ** np.arange(n + 1))
        f = displacement_matrix(0.5j * eta, n)
        f_dag = f.conj().T
        ref = np.block([[phase @ f_dag, phase @ f], [-phase @ f_dag, phase @ f]]) / math.sqrt(2.0)
        bits = build_U_matrix(eta, n).view(np.float64).view(np.uint64)
        assert np.array_equal(bits, ref.view(np.float64).view(np.uint64))

    def test_interior_unitarity(self):
        n = 120
        u = build_U_matrix(0.2, n)
        gram = u.conj().T @ u
        dim = n + 1
        interior = np.r_[0:dim // 2, dim:dim + dim // 2]
        block = (gram - np.eye(2 * dim))[np.ix_(interior, interior)]
        assert np.max(np.abs(block)) < 1e-8

    def test_u_conjugates_lab_to_intermediate(self):
        p = params_of(1, 0.2, 0.5)
        n = 120
        u = build_U_matrix(p.eta, n)
        lab = build_lab_hamiltonian(p, n)
        inter = build_intermediate_hamiltonian(p, n)
        conj = u @ lab @ u.conj().T
        dim = n + 1
        interior = np.r_[0:dim // 2, dim:dim + dim // 2]
        block = (conj - inter)[np.ix_(interior, interior)]
        assert np.max(np.abs(block)) < 1e-6


class TestRwa:
    @pytest.mark.parametrize("n_max", [2.5, 3.0, np.float64(3.0), True, -1])
    def test_bad_n_max_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            rwa_spectrum(params_of(1, 0.2, 0), n_max)

    def test_uncoupled_ground(self):
        p = params_of(1, 0.2, 0)
        w = np.linalg.eigvalsh(build_rwa_hamiltonian(p, 40))
        assert np.min(np.abs(w - (-0.5 + 0.01))) < 1e-12

    def test_first_doublet_values(self):
        p = params_of(1, 0.2, 0)
        w = np.linalg.eigvalsh(build_rwa_hamiltonian(p, 40))
        for target in (0.41, 0.61):
            assert np.min(np.abs(w - target)) < 1e-12

    def test_degenerate_at_zero_coupling(self):
        p = params_of(1, 0, 0)
        w = np.sort(np.linalg.eigvalsh(build_rwa_hamiltonian(p, 20)))
        # pairs n + 1/2 doubly degenerate, plus -1/2 ground
        assert w[0] == pytest.approx(-0.5, abs=1e-14)
        assert w[1] == pytest.approx(0.5, abs=1e-14)
        assert w[2] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("omega,eta", [(1, 0.2), (2, 0.2), (1, 0.6), (2, 0.8)])
    def test_closed_form_matches_matrix(self, omega, eta):
        p = params_of(omega, eta, 0)
        n = 30
        w = np.linalg.eigvalsh(build_rwa_hamiltonian(p, n))
        closed = sorted(lv.energy for lv in rwa_spectrum(p, n - 1))
        # compare the low half, away from the truncation edge
        take = n
        assert np.max(np.abs(np.sort(w)[:take] - np.array(closed)[:take])) < 1e-12

    def test_resonant_formula(self):
        p = params_of(1, 0.3, 0)
        g = p.g
        levels = {lv.label: lv.energy for lv in rwa_spectrum(p, 3)}
        for k in range(4):
            assert levels[f"E-_{k}"] == pytest.approx(k + g * g + 0.5 - g * math.sqrt(k + 1), abs=1e-15)
            assert levels[f"E+_{k}"] == pytest.approx(k + g * g + 0.5 + g * math.sqrt(k + 1), abs=1e-15)


class TestCrossFrameSpectra:
    @pytest.mark.parametrize("omega,eta,delta", [
        (1, 0.2, 0), (1, 0.4, -1), (2, 0.6, 2), (2, 0.2, 1),
    ])
    def test_displaced_vs_bare(self, omega, eta, delta):
        p = params_of(omega, eta, delta)
        low = np.linalg.eigvalsh(build_displaced_hamiltonian(p, 60))[:10]
        ref = np.linalg.eigvalsh(build_bare_rabi_hamiltonian(p, 200))[:10]
        assert np.max(np.abs(low - ref)) < 1e-8

    @pytest.mark.parametrize("delta", [0.7, 1.3, 2.0])
    def test_detuning_reflection_symmetry(self, delta):
        p_plus = params_of(2, 0.4, delta)
        p_minus = params_of(2, 0.4, -delta)
        w_plus = np.linalg.eigvalsh(build_displaced_hamiltonian(p_plus, 60))
        w_minus = np.linalg.eigvalsh(build_displaced_hamiltonian(p_minus, 60))
        assert np.max(np.abs(w_plus - w_minus)) < 1e-10

    @pytest.mark.parametrize("omega,eta,delta", [
        (1, 0, -1), (1, 0.4, 2), (2, 0.2, 0), (2, 0.6, -2),
    ])
    def test_lab_vs_working_across_grid(self, omega, eta, delta):
        p = params_of(omega, eta, delta)
        lab = np.linalg.eigvalsh(build_lab_hamiltonian(p, 200))[:6]
        bare = np.linalg.eigvalsh(build_bare_rabi_hamiltonian(p, 200))[:6]
        assert np.max(np.abs(lab - bare)) < 1e-6
