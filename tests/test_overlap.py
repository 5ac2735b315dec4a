"""Overlap-layer tests: frozen high-precision references, independent oracles,
symmetries, and the dual evaluation paths."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rabi_spectra import overlap
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

# Entries ⟨m|D(β)|k⟩ of ``_table(β, n)`` out to the edge of the tested
# domain: the closed Laguerre form evaluated at 80 decimal digits, rounded
# to double precision. Each sits well inside the Poisson hump or far out in
# its tail, where the recurrence must still keep relative accuracy.
DOMAIN_EDGE = {
    (14.0, 400): {
        (0, 196): 0.16877133691249963,
        (196, 196): -0.02756916735780876,
        (400, 0): 3.0700677242424643e-19,
        (120, 300): -0.018966056291751885,
        (37, 5): -3.212134757469585e-18,
    },
    (20.0, 800): {
        (0, 400): 0.14121954115855584,
        (800, 650): -0.017528791487051207,
        (250, 600): 0.0315448931850164,
        (3, 1): -8.971777452560114e-83,
    },
    (28.0, 1200): {
        (0, 784): 0.11935838561692091,
        (784, 784): -0.00854143167129582,
        (1200, 1100): -0.00018136118488133276,
        (500, 900): -0.01512772446348507,
        (60, 70): 2.1781942583135234e-76,
    },
    (36.0, 1650): {
        (0, 1296): 0.10526641189987147,
        (1296, 1296): -0.014279976354180697,
        (1650, 1650): -0.004445884145308012,
        (1650, 1400): 0.011420167191737125,
        (900, 1000): 0.0051499408070844735,
        (20, 25): -4.4866743715458284e-234,
        (1000, 1650): 0.009372603966753601,
    },
    (12 + 16j, 800): {
        (0, 400): 0.13811253956243258 - 0.029459891728391377j,
        (300, 500): -0.0020912788901930766 + 0.0002205577301394775j,
        (500, 300): -0.0020912788901930766 - 0.0002205577301394775j,
        (790, 800): -0.01951417784654781 - 0.0029857320571226743j,
    },
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

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, False, "3"])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            log_factorial(n)

    def test_numpy_integer_accepted(self):
        assert log_factorial(np.int64(10)) == log_factorial(10)


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

    @pytest.mark.parametrize("beta, n", [(1e5, 40), (40j, 400), (0.2, 1100)])
    def test_overflow_raises_without_warning(self, beta, n):
        # Outside the finite domain the kernel's entries turn to nan; the
        # table must say so, and not through a numpy warning. At small β
        # the cause is n: (0.2, 1019) is finite. The message names n and the
        # limits the module docstring states. A failed table is never kept,
        # so every call raises.
        kept = overlap._slot
        message = (rf"at n={n} is not representable: .*\(from n = 1020 at small "
                   r"\|beta\|; tested to n = 1650 at \|beta\| = 36\)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(OverflowError, match=message):
                    displacement_matrix(beta, n)
        assert overlap._slot is kept

    @pytest.mark.parametrize("beta", [0.0, 0.3, -0.3, 0.2j])
    @pytest.mark.parametrize("n", [-1, 2.0, True, np.float64(3.0)])
    def test_bad_truncation_rejected(self, beta, n):
        displacement_matrix(beta, 10)  # a kept table must not serve a bad n
        with pytest.raises(ValueError, match="truncation"):
            displacement_matrix(beta, n)

    def test_copy_is_fresh_and_writable(self):
        table = displacement_matrix(0.4, 10)
        assert table.dtype == complex and table.flags.writeable
        expected = table.copy()
        table[:] = 7.0
        assert np.array_equal(displacement_matrix(0.4, 10), expected)
        assert np.array_equal(displacement_matrix(0.4, 5), expected[:6, :6])


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

    @pytest.mark.parametrize("g", [0.37, -0.4, 0.0, 2.5, -5.0])
    @pytest.mark.parametrize("n", [0, 7, 60])
    def test_is_displacement_table_with_column_sign(self, g, n):
        values = overlap_matrix(n, g).values
        expected = displacement_matrix(2.0 * g, n).real * (-1.0) ** np.arange(n + 1)
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(values, values.T)

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
        # Up to the edge of the tested domain, eta = 2g = 14 at n = 400: the
        # low rows of D(2g) reach out to about (eta + 3)² < 400 quanta, so
        # they lie inside the table. At eta = 16 they no longer do.
        for g in (5.0, 7.0):
            table = overlap_matrix(400, g).values
            norms = np.linalg.norm(table[:10], axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestDomainEdge:
    @pytest.mark.parametrize("beta, n", list(DOMAIN_EDGE))
    def test_matches_references(self, beta, n):
        table = overlap._table(beta, n)
        for (m, k), ref in DOMAIN_EDGE[beta, n].items():
            assert abs(table[m, k] - ref) <= 1e-12 * abs(ref), (m, k)


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
        imag = displacement_matrix(beta, n).imag
        assert np.all(imag == 0.0) and not np.any(np.signbit(imag))

    @settings(max_examples=15)
    @given(beta=_beta, n=_truncation)
    def test_expm_oracle(self, beta, n):
        # the oracle truncates the generator at 200 quanta, far above the
        # compared block, so its leading columns are exact to rounding
        oracle = expm_displacement(beta)
        mat = displacement_matrix(beta, n)
        assert np.max(np.abs(mat - oracle[:n + 1, :n + 1])) < 1e-10


def _fresh(beta, n):
    """The table built from scratch, alone, bypassing the kept one."""
    return overlap._displacement([beta], n)[0] if beta != 0 else np.eye(n + 1)


# Members of a batched build: general β, exact duplicates of either sign, 0
# and a β so small that |β|² underflows.
_batch_beta = st.one_of(_beta, st.sampled_from([0.0, 0.4, -0.4, 1e-300, -1e-300, 0.3j]))


class TestTableSlot:
    """One kept table per β serves every smaller truncation, bit for bit."""

    @pytest.mark.parametrize("beta", [0.4, -0.4, 0.3j, 0.0])
    def test_read_only(self, beta):
        for n in (12, 6, 12):
            table = overlap._table(beta, n)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 2.0

    @pytest.mark.parametrize("g", [0.37, -1.1])
    def test_alternating_couplings(self, g):
        requests = [(g, 30), (2 * g, 20), (-g, 30), (g, 10), (2 * g, 40), (2 * g, 5),
                    (-g, 8), (g, 30), (1j * g, 25), (g, 12)]
        for beta, n in requests:
            table = overlap._table(beta, n)
            assert table.dtype == (complex if isinstance(beta, complex) else float)
            assert table.tobytes() == _fresh(beta, n).tobytes()

    @settings(max_examples=40)
    @given(beta=_beta, n=_truncation, large_first=st.booleans())
    def test_order_independent(self, beta, n, large_first):
        overlap._slot = (None, None)
        order = (n + 20, n) if large_first else (n, n + 20)
        tables = {size: overlap._table(beta, size).tobytes() for size in order}
        assert tables[n] == _fresh(beta, n).tobytes()
        assert tables[n + 20] == _fresh(beta, n + 20).tobytes()

    @settings(max_examples=25)
    @given(betas=st.lists(_batch_beta, min_size=1, max_size=6), n=_truncation,
           past_edge=st.booleans())
    def test_batched_build_is_fresh(self, betas, n, past_edge):
        # One kernel call builds every table; each is bitwise the table of its
        # β built alone. β = 38 is finite up to n = 326 only: at n = 400 it
        # drops out of the batch, which is then built at n = 400 and read at n.
        overlap._slot = (None, None)
        requests = [(beta, n) for beta in betas] + [(38.0, 400)] * past_edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overlap._hold(requests)
        slot = overlap._slot
        assert set(slot[0] or ()) == {complex(beta) for beta in betas if beta != 0}
        for beta in betas:
            assert overlap._table(beta, n).tobytes() == _fresh(beta, n).tobytes()
        assert overlap._slot is slot  # every table was served from the batch
        if past_edge:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=r"beta=\(38\+0j\) at n=400 is not "
                                   r"representable: .*tested to n = 1650 at \|beta\| = 36\)"):
                    overlap._table(38.0, 400)

    def test_batch_keeps_held_tables(self, table_builds):
        # A held table is not built again, and stays held beside the new ones;
        # a request past its size builds it anew.
        overlap._table(0.5, 40)
        overlap._hold([(0.5, 40), (0.7, 20), (0.0, 60), (0.7, 30)])
        assert overlap._slot[0] == (0.5, 0.7)
        overlap._hold([(0.7, 30), (0.5, 20)])
        assert table_builds == [40, 30]
        overlap._hold([(0.5, 60)])
        assert overlap._slot[0] == (0.5,) and table_builds == [40, 30, 60]


# sha256 of ``_table(β, n).tobytes()`` as first frozen: a rewrite of the kernel
# must move no bit of any entry.
TABLE_DIGESTS = {
    (0.2, 60): "8de9049d49d2c0647c8a7b4a9cfadbaa415e10a6018ddbbdb4cac39ecdef56f6",
    (1.0, 60): "dfb83cb6f8d1625d2c3075807de2e16ac69a7a191782c79e26a66881134d3444",
    (2.0, 60): "a8a9732d1b8c6ff576ec910efb80b586b894ff58429003fc4fe5f92ecc5b48b5",
    (-1.3, 80): "68a9eda2348ec77083910424d899485b87f8d082b5978de64e1abef15a04a554",
    (12.0, 220): "8f4080f7045f0116c4ac94262bf248801aeede5f74d280a833a67ea5dc5a6673",
    (0.5j, 40): "52b4f0658fc86dc975df40fdf0eb386b028bf1ea5bbc99fb28a00ab187b12ef5",
    (1 + 2j, 30): "adbd114da11fc9d862120c5f6e79003b38b4650f1be1e9842e8aef119f94d18d",
    (28.0, 1200): "fe4e183776728b717d1e5f4267eba48a9e88f7d2440fc26a5431511aaaabb138",
    (36.0, 1650): "baa40fc107955ee3f5a4cdae0ff4addca11c13b7ade9577e1b5613d4f24b012d",
}


class TestTableBits:
    @pytest.mark.parametrize("beta, n", list(TABLE_DIGESTS))
    def test_digest_frozen(self, monkeypatch, beta, n):
        monkeypatch.setattr(overlap, "_slot", (None, None))
        table = overlap._table(beta, n)
        assert hashlib.sha256(table.tobytes()).hexdigest() == TABLE_DIGESTS[beta, n]
