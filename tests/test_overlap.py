"""Overlap-layer tests: frozen high-precision references, independent oracles,
symmetries, and the dual evaluation paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rabi_spectra import (
    displaced_overlap,
    displaced_overlap_series,
    displacement_element,
    displacement_matrix,
    log_factorial,
    overlap_ab,
    overlap_ba,
    overlap_matrix,
)

# Frozen references: the alternating factorial sum evaluated at 60+ decimal
# digits, rounded to double precision.
GOLDEN = {
    (10, 0, 0.1): 5.2690528000104058e-11,
    (100, 100, 1.5): -0.088039523328497283,
    (100, 37, 1.5): -4.4589778054067326e-05,
    (73, 99, 1.2): 0.044955106023080399,
    (50, 50, 1.5): -0.095272549917382207,
    (30, 30, 1.0): -0.11772527779982434,
    (17, 64, 0.9): -4.3178766226505913e-12,
    (100, 0, 1.5): 5.9265025560369389e-34,
    (5, 3, 0.3): -0.45158516709981263,
    (12, 12, 0.5): 0.30096792728191972,
}

GOLDEN_DISPLACEMENT = {
    (0.5j, 3, 7): 0.057027515707032385 + 0.0j,
    (1 + 2j, 10, 4): -0.24184125170447148 - 0.090948846794843976j,
    (3.0 + 0.0j, 25, 25): -0.10502793426016207 + 0.0j,
    (-0.1 + 0.3j, 6, 6): 0.44872218943497449 + 0.0j,
}


def oscillator_ladder(dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return a, a.T


def expm_displacement(beta, dim=200):
    """Brute-force oracle: truncated matrix exponential of β a† - β* a."""
    a, ad = oscillator_ladder(dim)
    return expm(beta * ad - np.conj(beta) * a)


class TestLogFactorial:
    def test_trivial(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_ten(self):
        assert math.isclose(log_factorial(10), math.log(3628800), rel_tol=1e-13)

    def test_against_cumulative_sum(self):
        # exact reference: fsum of ln k
        acc = []
        for n in range(2, 401):
            acc.append(math.log(n))
            ref = math.fsum(acc)
            assert math.isclose(log_factorial(n), ref, rel_tol=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestDisplacedOverlap:
    def test_vacuum_value(self):
        assert math.isclose(displaced_overlap(0, 0, 0.1), math.exp(-0.02), abs_tol=1e-14)

    def test_zero_coupling_exact(self):
        for m in range(6):
            for n in range(6):
                expected = (-1.0) ** m if m == n else 0.0
                assert displaced_overlap(m, n, 0.0) == expected

    def test_one_one(self):
        expected = math.exp(-0.02) * (4 * 0.01 - 1.0)
        assert math.isclose(displaced_overlap(1, 1, 0.1), expected, abs_tol=1e-14)

    @pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
    def test_golden(self, key):
        m, n, g = key
        assert displaced_overlap(m, n, g) == pytest.approx(GOLDEN[key], abs=5e-13)

    def test_symmetry_exact(self):
        for g in (0.1, 0.7, 1.5, -0.9):
            for m in range(0, 101, 9):
                for n in range(0, 101, 9):
                    assert displaced_overlap(m, n, g) == displaced_overlap(n, m, g)

    def test_coupling_sign_law_exact(self):
        # flipping g multiplies by (-1)^(m+n), term by term
        for g in (0.2, 1.5):
            for m in range(0, 41, 5):
                for n in range(0, 41, 5):
                    assert displaced_overlap(m, n, -g) == \
                        (-1.0) ** (m + n) * displaced_overlap(m, n, g)

    def test_magnitude_bounded(self):
        for g in (0.1, 0.5, 1.5):
            for m in range(0, 101, 10):
                for n in range(0, 101, 10):
                    assert abs(displaced_overlap(m, n, g)) <= 1.0 + 1e-12

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            displaced_overlap(-1, 0, 0.1)

    def test_overflow_signalled_outside_domain(self):
        with pytest.raises(OverflowError):
            displaced_overlap(400, 400, 30.0)


class TestSeriesPath:
    """The alternating-sum path must agree with production where it is
    well conditioned (largest term not astronomically above the result)."""

    @pytest.mark.parametrize("g", [0.05, 0.1, 0.3, 0.5])
    def test_agreement_small_coupling(self, g):
        for m in range(0, 31, 3):
            for n in range(0, 31, 3):
                assert displaced_overlap_series(m, n, g) == \
                    pytest.approx(displaced_overlap(m, n, g), abs=1e-9)

    def test_agreement_unit_coupling_looser(self):
        # conditioning degrades at 2g = 2; the expm oracle is the binding
        # accuracy check there (acceptance criterion 1)
        for m in range(0, 31, 5):
            for n in range(0, 31, 5):
                assert displaced_overlap_series(m, n, 1.0) == \
                    pytest.approx(displaced_overlap(m, n, 1.0), abs=1e-7)

    def test_zero_coupling_exact(self):
        assert displaced_overlap_series(4, 4, 0.0) == 1.0
        assert displaced_overlap_series(3, 3, 0.0) == -1.0
        assert displaced_overlap_series(2, 3, 0.0) == 0.0


class TestSignedOverlaps:
    @pytest.mark.parametrize("g", [0.05, 0.25, 0.5])
    def test_ab_vacuum_column(self, g):
        expected = -2.0 * g * math.exp(-2.0 * g * g)
        assert overlap_ab(0, 1, g) == pytest.approx(expected, abs=1e-14)

    def test_ab_identity_at_zero(self):
        for m in range(5):
            for n in range(5):
                assert overlap_ab(m, n, 0.0) == (1.0 if m == n else 0.0)

    def test_ba_is_ab_transposed(self):
        for g in (0.1, 0.4):
            for m in range(0, 31, 4):
                for n in range(0, 31, 4):
                    assert overlap_ba(m, n, g) == overlap_ab(n, m, g)

    def test_sign_law(self):
        for m in range(0, 21, 3):
            for n in range(0, 21, 3):
                assert overlap_ba(m, n, 0.3) == \
                    (-1.0) ** (m + n) * overlap_ab(m, n, 0.3)

    def test_ab_equals_displacement_element(self):
        for g in (0.1, 0.5):
            for m in range(0, 21, 2):
                for n in range(0, 21, 2):
                    elem = displacement_element(2.0 * g, m, n)
                    assert elem.imag == 0.0
                    assert overlap_ab(m, n, g) == pytest.approx(elem.real, abs=1e-12)


class TestDisplacementElement:
    def test_identity(self):
        for m in range(4):
            for n in range(4):
                assert displacement_element(0.0, m, n) == (1.0 if m == n else 0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.5j, 1 - 1j, -2.0])
    def test_vacuum_expectation(self, beta):
        expected = math.exp(-abs(beta) ** 2 / 2.0)
        assert displacement_element(beta, 0, 0) == pytest.approx(expected, abs=1e-14)

    def test_vacuum_expectation_vs_expm(self):
        beta = 0.7 - 0.4j
        oracle = expm_displacement(beta)[0, 0]
        assert displacement_element(beta, 0, 0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("key", sorted(GOLDEN_DISPLACEMENT, key=str))
    def test_golden(self, key):
        beta, m, n = key
        value = displacement_element(beta, m, n)
        assert value == pytest.approx(GOLDEN_DISPLACEMENT[key], abs=5e-13)

    def test_unitarity_columns(self):
        # columns of the truncated matrix are near-orthonormal in the interior
        mat = displacement_matrix(0.4j, 60)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram[:30, :30] - np.eye(30))) < 1e-10


class TestDisplacementMatrix:
    @pytest.mark.parametrize("beta", [0.6, 0.25j, 0.3 - 0.2j])
    def test_matches_elementwise(self, beta):
        mat = displacement_matrix(beta, 25)
        for m in range(26):
            for n in range(26):
                assert mat[m, n] == displacement_element(beta, m, n)

    def test_expm_oracle(self):
        beta = 1j * 0.2
        oracle = expm_displacement(beta)
        mat = displacement_matrix(beta, 30)
        assert np.max(np.abs(mat - oracle[:31, :31])) < 1e-10


class TestOverlapMatrix:
    def test_zero_coupling_diagonal(self):
        table = overlap_matrix(8, 0.0)
        expected = np.diag((-1.0) ** np.arange(9))
        assert np.array_equal(table.values, expected)

    def test_bitwise_symmetric(self):
        table = overlap_matrix(40, 0.37)
        assert np.array_equal(table.values, table.values.T)

    def test_matches_scalar_exactly(self):
        table = overlap_matrix(30, 0.37)
        for m in range(31):
            for n in range(31):
                assert table.values[m, n] == displaced_overlap(m, n, 0.37)

    def test_matches_scalar_negative_coupling(self):
        table = overlap_matrix(20, -0.4)
        for m in range(21):
            for n in range(21):
                assert table.values[m, n] == displaced_overlap(m, n, -0.4)

    def test_read_only(self):
        table = overlap_matrix(5, 0.1)
        with pytest.raises(ValueError):
            table.values[0, 0] = 2.0

    def test_row_orthonormality(self):
        # the two displaced families are each orthonormal, so the signed
        # overlap table has orthonormal rows in the interior
        n, g = 60, 0.5
        table = overlap_matrix(n, g).values
        signs = (-1.0) ** np.arange(n + 1)
        ab = table * signs[None, :]
        gram = ab @ ab.T
        half = (n + 1) // 2
        assert np.max(np.abs(gram[:half, :half] - np.eye(half))) < 1e-8


    def test_rows_unit_norm_at_large_coupling(self):
        # Edge of the tested domain: eta = 2g = 10 at n = 400, where the low
        # rows of D(2g) lie well inside the table.
        table = overlap_matrix(400, 5.0).values
        norms = np.linalg.norm(table[:10], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestExpmOracle:
    """Production coefficients against the truncated matrix exponential."""

    @pytest.mark.parametrize("g", [0.1, 0.5])
    def test_agreement(self, g):
        oracle = expm_displacement(2.0 * g)
        signs = (-1.0) ** np.arange(31)
        block = oracle[:31, :31] * signs[None, :]
        ours = np.array([[displaced_overlap(m, n, g) for n in range(31)]
                         for m in range(31)])
        assert np.max(np.abs(ours - block)) < 1e-8


_radius = st.floats(min_value=0.0, max_value=3.0, allow_subnormal=False)
_real_beta = st.builds(lambda r, negative: complex(-r if negative else r), _radius, st.booleans())
_imag_beta = st.builds(lambda r, negative: complex(0.0, -r if negative else r), _radius, st.booleans())
_general_beta = st.builds(lambda r, angle: r * complex(math.cos(angle), math.sin(angle)),
                          _radius, st.floats(min_value=-math.pi, max_value=math.pi))
_beta = st.one_of(_real_beta, _imag_beta, _general_beta)
_truncation = st.integers(min_value=0, max_value=80)


class TestDisplacementProperties:
    """Invariants of the displacement table over |β| <= 3 and n <= 80."""

    @settings(max_examples=40)
    @given(beta=_beta, n=_truncation, data=st.data())
    def test_matrix_matches_element(self, beta, n, data):
        mat = displacement_matrix(beta, n)
        for _ in range(5):
            m = data.draw(st.integers(min_value=0, max_value=n))
            k = data.draw(st.integers(min_value=0, max_value=n))
            assert mat[m, k] == displacement_element(beta, m, k)

    @settings(max_examples=40)
    @given(r=_radius, n=_truncation)
    def test_reflection_is_transpose(self, r, n):
        assert np.array_equal(displacement_matrix(-r, n), displacement_matrix(r, n).T)

    @settings(max_examples=40)
    @given(beta=_beta, n=_truncation)
    def test_nested_truncations(self, beta, n):
        small = displacement_matrix(beta, n)
        large = displacement_matrix(beta, n + 20)
        assert np.array_equal(small, large[:n + 1, :n + 1])
        g = 0.5 * beta.real
        assert np.array_equal(overlap_matrix(n, g).values,
                              overlap_matrix(n + 20, g).values[:n + 1, :n + 1])

    @settings(max_examples=40)
    @given(beta=_real_beta, n=_truncation)
    def test_real_coupling_is_real(self, beta, n):
        assert np.all(displacement_matrix(beta, n).imag == 0.0)

    @settings(max_examples=15)
    @given(beta=_beta, n=_truncation)
    def test_expm_oracle(self, beta, n):
        # the oracle truncates the generator at 200 quanta, far above the
        # compared block, so its leading columns are exact to rounding
        oracle = expm_displacement(beta)
        mat = displacement_matrix(beta, n)
        assert np.max(np.abs(mat - oracle[:n + 1, :n + 1])) < 1e-10
