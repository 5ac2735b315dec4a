"""Acceptance gate: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the package contracts; nothing is
deferred to later calibration. Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.
"""

import itertools
import math
import time

import numpy as np
from banded import bare_levels
from scipy.linalg import expm

from rabi_spectra import (
    ModelParams,
    build_intermediate_hamiltonian,
    build_lab_hamiltonian,
    build_rwa_hamiltonian,
    build_U_matrix,
    classify_levels,
    displaced_overlap,
    eigh_hermitian,
    eigvec_to_bare,
    fidelity,
    hadamard_on_spin,
    ideal_cat_state,
    propagate_observables,
    basis_state,
    evolve,
    rwa_spectrum,
    validate,
)
from rabi_spectra.cli import main as cli_main


def params_of(omega, eta, delta):
    return validate(ModelParams(omega=omega, eta=eta, delta=delta))


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def test_criterion_01_overlap_formula_oracle():
    """Closed-form overlap coefficients vs truncated matrix exponential."""
    start = time.perf_counter()
    dim = 200
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ladder = a.T - a  # a† - a
    worst = 0.0
    for g in (0.05, 0.1, 0.3, 0.5, 1.0):
        oracle = expm(2.0 * g * ladder)
        signs = (-1.0) ** np.arange(31)
        reference = oracle[:31, :31] * signs[None, :]
        ours = np.array([[displaced_overlap(m, n, g) for n in range(31)]
                         for m in range(31)])
        worst = max(worst, float(np.max(np.abs(ours - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "overlap formula vs matrix-exponential oracle",
           f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_spectrum_equivalence(solve):
    """Converged displaced-basis energies vs the banded bare-basis oracle."""
    start = time.perf_counter()
    worst = 0.0
    grid = itertools.product((1.0, 2.0), (0.0, 0.2, 0.4, 0.6), (-2.0, -1.0, 0.0, 1.0, 2.0))
    for omega, eta, delta in grid:
        result = solve(omega, eta, delta)
        assert result.all_converged
        oracle = bare_levels(params_of(omega, eta, delta), 10)
        worst = max(worst, float(np.max(np.abs(result.energies - oracle))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst deviation {worst:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(2, "spectrum equivalence over the parameter grid",
           f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_lab_frame_equivalence():
    """Lab-frame Hermitian build against the working frame, plus conjugation."""
    worst = 0.0
    for eta, delta in itertools.product((0.2, 0.4), (0.0, 1.0)):
        p = params_of(1.0, eta, delta)
        lab = eigh_hermitian(build_lab_hamiltonian(p, 200)).eigenvalues[:6]
        ref = bare_levels(params_of(1.0, eta, delta), 6)
        worst = max(worst, float(np.max(np.abs(lab - ref))))
    assert worst <= 1e-6, f"worst spectral deviation {worst:.3e}"

    p = params_of(1.0, 0.2, 0.5)
    n = 120
    u = build_U_matrix(p.eta, n)
    conj = u @ build_lab_hamiltonian(p, n) @ u.conj().T
    direct = build_intermediate_hamiltonian(p, n)
    dim = n + 1
    interior = np.r_[0:dim // 2, dim:dim + dim // 2]
    dev = float(np.max(np.abs((conj - direct)[np.ix_(interior, interior)])))
    assert dev <= 1e-6, f"conjugation deviation {dev:.3e}"
    report(3, "lab-frame equivalence and rotation conjugation",
           f"spectra {worst:.2e}, conjugation {dev:.2e}")


def test_criterion_04_decoupled_limit(solve):
    """Exact closed forms at zero coupling, including the RWA module."""
    for omega, delta in ((1.0, 0.0), (1.0, 1.0), (2.0, -2.0), (2.0, 1.0)):
        result = solve(omega, 0.0, delta)
        split = math.sqrt(delta ** 2 + omega ** 2) / 2.0
        expected = np.sort(np.concatenate([np.arange(30) - split, np.arange(30) + split]))[:10]
        assert np.max(np.abs(result.energies - expected)) < 1e-12

    worst = 0.0
    for omega, eta in ((1.0, 0.0), (1.0, 0.2), (2.0, 0.2), (2.0, 0.6)):
        p = params_of(omega, eta, 0.0)
        closed = np.array(sorted(lv.energy for lv in rwa_spectrum(p, 29)))
        matrix = np.linalg.eigvalsh(build_rwa_hamiltonian(p, 30))
        worst = max(worst, float(np.max(np.abs(closed[:30] - matrix[:30]))))
        assert math.isclose(min(lv.energy for lv in rwa_spectrum(p, 5)),
                            -omega / 2.0 + p.g ** 2, abs_tol=1e-12)
    assert worst <= 1e-12

    spot = {lv.label: lv.energy for lv in rwa_spectrum(params_of(1.0, 0.2, 0.0), 1)}
    assert abs(spot["E-_0"] - 0.41) < 1e-12
    assert abs(spot["E+_0"] - 0.61) < 1e-12
    report(4, "decoupled-limit exactness", f"rwa closed form dev {worst:.2e}")


def test_criterion_05_lower_ground_state(solve):
    """The full ground level sits below the rotating-wave ground level."""
    margin_checked = 0
    for omega in (1.0, 2.0):
        for eta in (0.05, 0.1, 0.2, 0.4, 0.6, 1.0):
            result = solve(omega, eta, 0.0)
            g = eta / 2.0
            rwa_ground = -omega / 2.0 + g * g
            assert result.energies[0] < rwa_ground, (omega, eta)
            if eta <= 0.2:
                gap = result.energies[0] - rwa_ground
                predicted = -g * g / (omega + 1.0)
                assert abs(gap - predicted) <= 0.2 * abs(predicted), (omega, eta)
                margin_checked += 1
    assert margin_checked == 6
    report(5, "ground level below the rotating-wave ground level")


def test_criterion_06_level_pairing(solve):
    """Alternating assignment to the two rotating-wave branches."""
    for eta in (0.05, 0.1, 0.2):
        result = solve(1.0, eta, 0.0)
        rows = classify_levels(result, rwa_spectrum(result.params, 6))
        for row in rows[1:]:
            assert abs(row.gap) < 0.05, (eta, row)
    gap_series = []
    for eta in (0.2, 0.1, 0.05, 0.02):
        result = solve(1.0, eta, 0.0)
        rows = classify_levels(result, rwa_spectrum(result.params, 6))
        gap_series.append([abs(r.gap) for r in rows])
    for level in range(10):
        gaps = [row[level] for row in gap_series]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (level, gaps)
    report(6, "level pairing against the rotating-wave branches")


def test_criterion_07_convergence_discipline():
    """Variational monotonicity, shrinking tails, and truncation plateau."""
    from rabi_spectra import truncation_table

    for eta in (0.1, 0.2):
        fine = truncation_table(params_of(1.0, eta, 0.0), [20, 30, 40, 50, 60], levels=5)
        for level in range(5):
            energies = [r["energy"] for r in fine if r["level"] == level]
            assert all(b - a <= 1e-12 for a, b in zip(energies, energies[1:])), level
        # tails drop by ~20 orders per solver step (20); measure on that grid,
        # where the decrease is far above the eigensolver noise floor
        stepped = truncation_table(params_of(1.0, eta, 0.0), [20, 40, 60], levels=5)
        for level in range(5):
            series = [r for r in stepped if r["level"] == level]
            tails = [r["tail_weight"] for r in series]
            assert all(t > 0 for t in tails)
            assert all(b < a for a, b in zip(tails, tails[1:])), level
            by_n = {r["n"]: r["energy"] for r in series}
            assert abs(by_n[40] - by_n[60]) < 1e-10, level
    report(7, "convergence discipline (monotonicity, tails, plateau)")


def test_criterion_08_symmetry_suite(solve):
    """Detuning reflection, parity sharpness, and coefficient sign laws."""
    for omega, eta, delta in ((2.0, 0.4, 1.3), (1.0, 0.6, 2.0), (2.0, 0.6, 0.5)):
        plus = solve(omega, eta, delta)
        minus = solve(omega, eta, -delta)
        assert np.max(np.abs(plus.energies - minus.energies)) < 1e-10

    for omega, eta in ((1.0, 0.2), (1.0, 0.6), (2.0, 0.4)):
        result = solve(omega, eta, 0.0)
        assert np.all(np.abs(result.parities) >= 1 - 1e-8)

    for g in (0.3, 1.5):
        for m in range(0, 41, 4):
            for n in range(0, 41, 4):
                assert displaced_overlap(m, n, g) == displaced_overlap(n, m, g)
                assert displaced_overlap(m, n, -g) == \
                    (-1.0) ** (m + n) * displaced_overlap(m, n, g)
    report(8, "symmetry suite (reflection, parity, sign laws)")


def test_criterion_09_dynamics_and_states(solve):
    """Cat normalization and structure, propagator conservation, fidelity trend."""
    for g in (0.0, 0.1, 0.3):
        n = 40
        plus = np.array([math.exp(-g * g / 2.0) * (-g) ** k / math.sqrt(math.factorial(k))
                         for k in range(n + 1)])
        minus = np.array([math.exp(-g * g / 2.0) * g ** k / math.sqrt(math.factorial(k))
                          for k in range(n + 1)])
        raw_norm = math.sqrt(float(np.sum((0.5 * (plus + minus)) ** 2)
                                   + np.sum((0.5 * (plus - minus)) ** 2)))
        assert abs(raw_norm - 1.0) < 1e-12
        state = ideal_cat_state(g, n)
        assert np.max(np.abs(state.amps[1::2, 1])) < 1e-12
        assert np.max(np.abs(state.amps[0::2, 0])) < 1e-12

    result = solve(1.0, 0.2, 0.0)
    initial = basis_state(0, "g", result.n_final)
    table = propagate_observables(initial, result, np.linspace(0.0, 100.0, 1000))
    assert np.max(np.abs(table[:, 1] - 1.0)) < 1e-10
    assert np.max(np.abs(table[:, 2] - table[0, 2])) < 1e-10

    level = eigvec_to_bare(result.coeff_c[2], result.coeff_d[2], result.params.g)
    later = evolve(level, result, 42.0)
    assert fidelity(level, later) > 1 - 1e-10

    trend = []
    for eta in (0.05, 0.1, 0.2, 0.4):
        res = solve(1.0, eta, 0.0)
        ground = eigvec_to_bare(res.coeff_c[0], res.coeff_d[0], res.params.g)
        trend.append(fidelity(hadamard_on_spin(ground),
                              ideal_cat_state(res.params.g, res.n_final)))
    assert all(a > b for a, b in zip(trend, trend[1:])), trend
    report(9, "dynamics and derived states",
           f"cat fidelities {', '.join(f'{v:.4f}' for v in trend)}")


def test_criterion_10_reproduction_artifacts(tmp_path):
    """Preset sweeps: determinism, schema, splitting growth, reflection symmetry."""
    start = time.perf_counter()

    def run_preset(preset, tag):
        out = str(tmp_path / f"{preset}_{tag}.csv")
        assert cli_main(["sweep", "--preset", preset, "--out", out]) == 0
        with open(out, "rb") as fh:
            return out, fh.read()

    files = {}
    for preset in ("fig2", "fig3a", "fig3b", "fig3c"):
        path_a, payload_a = run_preset(preset, "a")
        _, payload_b = run_preset(preset, "b")
        assert payload_a == payload_b, f"{preset} not byte-identical"
        files[preset] = (path_a, payload_a)

    def parse(payload):
        lines = payload.decode().splitlines()
        assert lines[0] == "# schema=1"
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        return header, rows

    # coupling sweep: the split of the first excited pair grows with eta
    header, rows = parse(files["fig2"][1])
    idx_param, idx_level = header.index("param"), header.index("level")
    idx_energy = header.index("energy")
    split_by_eta = {}
    for row in rows:
        eta = float(row[idx_param])
        if eta > 0.6 + 1e-12:
            continue
        level = int(row[idx_level])
        if level in (1, 2):
            split_by_eta.setdefault(eta, {})[level] = float(row[idx_energy])
    etas = sorted(split_by_eta)
    splits = [split_by_eta[eta][2] - split_by_eta[eta][1] for eta in etas]
    assert splits[0] < 1e-9             # degenerate at zero coupling
    assert all(b > a - 1e-12 for a, b in zip(splits, splits[1:]))
    assert splits[-1] > 100 * max(splits[0], 1e-12)

    # detuning sweeps: spectra symmetric under reflection; the grid is
    # symmetric by position (endpoint floats are not bitwise negatives)
    for preset in ("fig3a", "fig3b", "fig3c"):
        header, rows = parse(files[preset][1])
        idx_param, idx_level = header.index("param"), header.index("level")
        idx_energy = header.index("energy")
        table = {}
        for row in rows:
            table[(float(row[idx_param]), int(row[idx_level]))] = float(row[idx_energy])
        deltas = sorted({key[0] for key in table})
        for i in range(len(deltas) // 2):
            left, right = deltas[i], deltas[-1 - i]
            assert abs(left + right) < 1e-12
            for level in range(10):
                assert abs(table[(left, level)] - table[(right, level)]) < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(10, "preset reproduction artifacts", f"{elapsed:.1f}s total")
