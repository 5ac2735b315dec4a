"""End-to-end CLI tests: flags, exit codes, file formats, determinism."""

import json
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_spectra import cli
from rabi_spectra.cli import main
from rabi_spectra.solver import LevelPairing, classify_levels


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSpectrum:
    def test_decoupled_energies(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        code = run(["spectrum", "--omega", "1", "--eta", "0", "--delta", "0",
                    "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        energies = [float(r[header.index("energy")]) for r in rows]
        assert energies[:4] == pytest.approx([-0.5, 0.5, 0.5, 1.5], abs=1e-12)

    def test_json_ground_gap_negative(self, tmp_path):
        out = str(tmp_path / "spec.json")
        code = run(["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--format", "json", "--out", out])
        assert code == 0
        doc = json.loads(read_bytes(out))
        assert doc["schema"] == 1
        assert doc["rwa"]["ground_gap_vs_rwa"] < 0
        assert doc["all_converged"] is True
        assert len(doc["levels"]) == 10
        assert len(doc["levels"][0]["coefficients"]["c"]) == doc["n_final"] + 1

    def test_invalid_omega_no_files(self, tmp_path):
        out = str(tmp_path / "never.csv")
        code = run(["spectrum", "--omega", "-3", "--eta", "0.2", "--delta", "0",
                    "--out", out])
        assert code == 2
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest.json")

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["spectrum", "--omega", "1", "--eta", "0", "--delta", "0",
                 "--no-such-flag"])
        assert err.value.code == 2

    def test_deterministic_payload(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run(["spectrum", "--omega", "1", "--eta", "0.3", "--delta", "0.5", "--out", a])
        run(["spectrum", "--omega", "1", "--eta", "0.3", "--delta", "0.5", "--out", b])
        assert read_bytes(a) == read_bytes(b)

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        run(["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0", "--out", out])
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["tool"] == "rabi-spectra"
        assert manifest["params"]["eta"] == 0.2
        assert manifest["basis"]["n_start"] == 40
        assert all(manifest["converged"])
        assert "created_utc" in manifest
        import hashlib
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert manifest["outputs"]["spec.csv"] == digest

    def test_convergence_failure_partial_output(self, tmp_path):
        out = str(tmp_path / "partial.csv")
        code = run(["spectrum", "--omega", "1", "--eta", "0.8", "--delta", "0",
                    "--levels", "2", "--n-start", "2", "--n-step", "1",
                    "--n-max-hard", "4", "--out", out])
        assert code == 3
        header, rows = read_csv(out)
        converged = [r[header.index("converged")] for r in rows]
        assert "false" in converged
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert not all(manifest["converged"])


class TestCompareRwa:
    def test_pairing_table(self, tmp_path):
        out = str(tmp_path / "rwa.csv")
        code = run(["compare-rwa", "--omega", "1", "--eta", "0.1", "--delta", "0",
                    "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("rwa_label")] == "ground"
        gaps = [abs(float(r[header.index("gap")])) for r in rows[1:]]
        assert max(gaps) < 0.05
        assert all(r[header.index("agrees")] == "true" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pairs_levels_once(self, tmp_path, monkeypatch, fmt):
        calls = []

        def counted(*args):
            calls.append(args)
            return classify_levels(*args)

        monkeypatch.setattr(cli, "classify_levels", counted)
        code = run(["compare-rwa", "--omega", "1", "--eta", "0.3", "--delta", "0.2",
                    "--format", fmt, "--out", str(tmp_path / f"rwa.{fmt}")])
        assert code == 0
        assert len(calls) == 1


def cell(text):
    """A CSV field as the JSON value it renders: blank is null, then bool, int, float, str."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


class TestCrossFormat:
    """The CSV and JSON renderings of one solve state the same facts."""

    POINTS = {
        "converged": (["--omega", "1", "--eta", "0.3", "--delta", "0"], 0),
        "partial": (["--omega", "1", "--eta", "3", "--delta", "0.5", "--n-max-hard", "45"], 3),
    }

    def outputs(self, tmp_path, point):
        flags, expected = self.POINTS[point]
        docs = {}
        for command in ("spectrum", "compare-rwa"):
            for fmt in ("csv", "json"):
                out = str(tmp_path / f"{command}.{fmt}")
                assert run([command, *flags, "--format", fmt, "--out", out]) == expected
                docs[command, fmt] = read_csv(out) if fmt == "csv" else json.loads(read_bytes(out))
        return docs

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_spectrum_csv_matches_json(self, tmp_path, point):
        docs = self.outputs(tmp_path, point)
        header, rows = docs["spectrum", "csv"]
        doc = docs["spectrum", "json"]
        pairing = doc["rwa"]["pairing"]
        assert len(rows) == len(doc["levels"]) == len(pairing)
        for row, level, pair in zip(rows, doc["levels"], pairing):
            record = dict(zip(header, map(cell, row)))
            assert record["level"] == level["index"] == pair["level"]
            for name in ("energy", "tail_weight", "drift", "parity", "converged"):
                assert record[name] == level[name], name
            for name in ("rwa_label", "rwa_energy", "gap"):
                assert record[name] == pair[name], name
        if point == "partial":
            assert doc["all_converged"] is False
            assert any(level["parity"] is None for level in doc["levels"])

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_compare_rwa_csv_matches_json(self, tmp_path, point):
        docs = self.outputs(tmp_path, point)
        header, rows = docs["compare-rwa", "csv"]
        doc = docs["compare-rwa", "json"]
        assert header == [f.name for f in fields(LevelPairing)]
        assert sorted(doc) == ["params", "rwa", "schema"]
        assert [dict(zip(header, map(cell, row))) for row in rows] == doc["rwa"]["pairing"]
        assert doc["rwa"] == docs["spectrum", "json"]["rwa"]


class TestSweep:
    def test_row_count_and_order(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        code = run(["sweep", "--param", "eta", "--from", "0", "--to", "0.2",
                    "--steps", "3", "--omega", "1", "--delta", "0", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        values = sorted({r[0] for r in rows}, key=float)
        assert len(values) == 3
        for value in values:
            level_rows = [r for r in rows if r[0] == value]
            assert len(level_rows) == 10
        # sorted by (param value, level)
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_eta_sweep_has_rwa_columns(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        run(["sweep", "--param", "eta", "--from", "0.05", "--to", "0.1",
             "--steps", "2", "--omega", "1", "--delta", "0", "--out", out])
        header, rows = read_csv(out)
        assert all(r[header.index("rwa_label")] for r in rows)
        assert all(r[header.index("rwa_energy")] for r in rows)

    def test_delta_sweep_blank_rwa_and_parity(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        run(["sweep", "--param", "delta", "--from", "-1", "--to", "1",
             "--steps", "3", "--omega", "2", "--eta", "0.2", "--out", out])
        header, rows = read_csv(out)
        middle = [r for r in rows if float(r[0]) == 0.0]
        edges = [r for r in rows if float(r[0]) != 0.0]
        assert all(r[header.index("rwa_label")] == "" for r in rows)
        assert all(r[header.index("parity")] == "" for r in edges)
        assert all(r[header.index("parity")] != "" for r in middle)

    def test_missing_fixed_param_rejected(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        code = run(["sweep", "--param", "eta", "--from", "0", "--to", "0.1",
                    "--steps", "2", "--omega", "1", "--out", out])
        assert code == 2
        assert not os.path.exists(out)

    def test_no_nans_in_converged_rows(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        run(["sweep", "--param", "eta", "--from", "0", "--to", "0.4",
             "--steps", "3", "--omega", "1", "--delta", "0", "--out", out])
        _, rows = read_csv(out)
        for row in rows:
            assert "nan" not in ",".join(row).lower()


class TestConverge:
    def test_energies_non_increasing(self, tmp_path):
        out = str(tmp_path / "cv.csv")
        code = run(["converge", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--n-list", "20,40,60", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        for level in range(10):
            series = [float(r[header.index("energy")]) for r in rows
                      if int(r[header.index("level")]) == level]
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_tails_positive_decreasing(self, tmp_path):
        out = str(tmp_path / "cv.csv")
        run(["converge", "--omega", "1", "--eta", "0.2", "--delta", "0",
             "--n-list", "20,40,60", "--out", out])
        header, rows = read_csv(out)
        for level in range(10):
            series = [float(r[header.index("tail_weight")]) for r in rows
                      if int(r[header.index("level")]) == level]
            assert all(t > 0 for t in series)
            assert all(b < a for a, b in zip(series, series[1:]))

    def test_zero_coupling_drifts(self, tmp_path):
        out = str(tmp_path / "cv.csv")
        run(["converge", "--omega", "1", "--eta", "0", "--delta", "0",
             "--n-list", "20,40", "--out", out])
        header, rows = read_csv(out)
        drift_col = header.index("drift")
        for row in rows:
            assert row[drift_col] in ("", "0")

    def test_bad_n_list(self, tmp_path):
        out = str(tmp_path / "cv.csv")
        code = run(["converge", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--n-list", "20,abc", "--out", out])
        assert code == 2


class TestCat:
    def test_payload(self, tmp_path):
        out = str(tmp_path / "cat.json")
        code = run(["cat", "--omega", "1", "--eta", "0", "--delta", "0",
                    "--out", out])
        assert code == 0
        doc = json.loads(read_bytes(out))
        assert 0.0 <= doc["fidelity"] <= 1.0
        assert doc["hadamard_ground_norm"] == pytest.approx(1.0, abs=1e-12)
        assert doc["ideal_cat_norm"] == pytest.approx(1.0, abs=1e-12)
        total = (np.sum(np.square(doc["ideal_cat"]["e"]))
                 + np.sum(np.square(doc["ideal_cat"]["g"])))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_ground_is_stationary(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        code = run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "10", "--dt", "0.1", "--initial", "ground",
                    "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        norms = np.array([float(r[header.index("norm")]) for r in rows])
        energies = np.array([float(r[header.index("energy")]) for r in rows])
        assert len(rows) == 101
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert np.max(np.abs(energies - energies[0])) < 1e-10

    def test_fock_initial_values(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
             "--t-max", "5", "--dt", "0.5", "--initial", "fock:0,g", "--out", out])
        header, rows = read_csv(out)
        first = rows[0]
        assert float(first[header.index("t")]) == 0.0
        assert float(first[header.index("sigma_z")]) == pytest.approx(-1.0, abs=1e-12)
        assert float(first[header.index("n")]) == pytest.approx(0.0, abs=1e-12)
        sz = [float(r[header.index("sigma_z")]) for r in rows]
        assert max(sz) - min(sz) > 1e-3  # non-stationary: visible precession

    def test_incomplete_basis_exit_code(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        code = run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "1", "--dt", "0.5", "--initial", "fock:60,e",
                    "--out", out])
        assert code == 4

    def test_bad_initial_spec(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        code = run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "1", "--dt", "0.5", "--initial", "banana",
                    "--out", out])
        assert code == 2


class TestExitContract:
    """Bad input ends in exit 2 with one ``error:`` line and no data file."""

    def assert_rejected(self, argv, tmp_path, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_coupling_too_large(self, tmp_path, capsys):
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "1e5", "--delta", "0",
                              "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--out", str(tmp_path / "missing" / "spec.csv")], tmp_path, capsys)

    def test_evolve_step_count_not_finite(self, tmp_path, capsys):
        self.assert_rejected(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--t-max", "1e300", "--dt", "1e-300",
                              "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)

    @pytest.mark.parametrize("n_list, levels", [
        ("40,20", "10"),    # not increasing
        ("0,10", "10"),     # truncation below 1
        (",", "10"),        # empty
        ("5", "50"),        # more levels than the smallest problem holds
        ("20", "-3"),       # no level requested
    ], ids=["descending", "zero", "empty", "levels-too-many", "levels-negative"])
    def test_converge_bad_truncations(self, tmp_path, capsys, n_list, levels):
        self.assert_rejected(["converge", "--omega", "1", "--eta", "0.5", "--delta", "0.3",
                              f"--n-list={n_list}", f"--levels={levels}",
                              "--out", str(tmp_path / "cv.csv")], tmp_path, capsys)

    def test_evolve_row_cap(self, tmp_path, capsys, monkeypatch):
        # Without the cap the solve runs and the time list takes 1e12 entries.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the row cap")

        monkeypatch.setattr(cli, "solve_spectrum", unreachable)
        self.assert_rejected(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--t-max", "1e6", "--dt", "1e-6",
                              "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)

    def test_sweep_row_cap(self, tmp_path, capsys, monkeypatch):
        # Without the cap the grid of 10**6 + 1 points is built and solved.
        def unreachable(*args, **kwargs):
            raise AssertionError("sweep reached past the row cap")

        monkeypatch.setattr(cli, "_basis_from_args", unreachable)
        self.assert_rejected(["sweep", "--param", "eta", "--from", "0", "--to", "1",
                              "--steps", str(10 ** 6 + 1), "--omega", "1", "--delta", "0",
                              "--out", str(tmp_path / "sw.csv")], tmp_path, capsys)
        assert (10 ** 6 + 1) * 10 > cli.MAX_ROWS  # ten levels per point

    @pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                         KeyboardInterrupt()])
    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch, failure):
        def fail(src, dst):
            raise failure

        monkeypatch.setattr(os, "replace", fail)
        argv = ["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0",
                "--out", str(tmp_path / "spec.csv")]
        if isinstance(failure, OSError):
            assert run(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                run(argv)
        assert os.listdir(tmp_path) == []

    @settings(max_examples=100)
    @given(omega=st.floats(min_value=-6.0, max_value=6.0),
           eta=st.floats(min_value=-6.0, max_value=6.0),
           delta=st.floats(min_value=-6.0, max_value=6.0),
           detuned=st.booleans(), negative=st.booleans())
    def test_spectrum_never_exits_one(self, omega, eta, delta, detuned, negative):
        # Ω, η and |δ| are log-uniform up to 1e6; δ may also be exactly 0.
        delta_value = (-1.0 if negative else 1.0) * 10.0 ** delta if detuned else 0.0
        with tempfile.TemporaryDirectory() as tmp:
            code = run(["spectrum", f"--omega={10.0 ** omega!r}", f"--eta={10.0 ** eta!r}",
                        f"--delta={delta_value!r}", "--n-max-hard", "60",
                        "--out", os.path.join(tmp, "spec.csv")])
        assert code in (0, 2, 3)

    @settings(max_examples=100)
    @given(n_list=st.lists(st.integers(min_value=-2, max_value=80), max_size=4),
           levels=st.integers(min_value=-2, max_value=200))
    def test_converge_never_exits_one(self, n_list, levels):
        with tempfile.TemporaryDirectory() as tmp:
            code = run(["converge", "--omega", "1", "--eta", "0.5", "--delta", "0.3",
                        f"--n-list={','.join(map(str, n_list))}", f"--levels={levels}",
                        "--out", os.path.join(tmp, "cv.csv")])
        assert code in (0, 2)
