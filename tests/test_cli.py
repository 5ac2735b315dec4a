"""End-to-end CLI tests: flags, exit codes, file formats, determinism."""

import hashlib
import json
import math
import os
import shlex
import tempfile
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rabi_spectra import ModelParams, cli, overlap, solve_spectrum, solver
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


POINT = ["--omega", "1", "--eta", "0.2", "--delta", "0"]
# A hard cap of n = 4 cannot hold two levels at eta = 0.8: every solve fails.
TINY_BASIS = ["--levels", "2", "--n-start", "2", "--n-step", "1", "--n-max-hard", "4"]


class TestSpectrum:
    def test_decoupled_energies(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        code = run(["spectrum", "--omega", "1", "--eta", "0", "--delta", "0",
                    "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        energies = [float(r[header.index("energy")]) for r in rows]
        assert energies[:4] == pytest.approx([-0.5, 0.5, 0.5, 1.5], abs=1e-12)
        # Most coefficients are exact zeros here; none is written as -0.0.
        out = str(tmp_path / "spec.json")
        assert run(["spectrum", "--omega", "1", "--eta", "0", "--delta", "0",
                    "--format", "json", "--out", out]) == 0
        zeros = [v for level in json.loads(read_bytes(out))["levels"]
                 for block in level["coefficients"].values() for v in block if v == 0.0]
        assert zeros and all(math.copysign(1.0, v) == 1.0 for v in zeros)

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

    def test_manifest_records_truncations(self, tmp_path):
        # The lowest ten levels reach (6 + √10)² ≈ 84 quanta at η = 6, so the
        # walk starts at 100, the first grid point above that.
        out = str(tmp_path / "spec.csv")
        assert run(["spectrum", "--omega", "1", "--eta", "6", "--delta", "0.3",
                    "--out", out]) == 0
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["truncations"][0] == 100
        assert manifest["truncations"][-1] == manifest["n_final"]

    @pytest.mark.parametrize("argv", [["--eta", "20", "--delta", "0.3"],
                                      ["--eta", "100", "--delta", "0", "--n-max-hard", "60"]])
    def test_large_coupling_never_certified(self, tmp_path, argv):
        # No grid point holds the levels, so the one truncation visited has no drift.
        out = str(tmp_path / "spec.csv")
        assert run(["spectrum", "--omega", "1", *argv, "--out", out]) == 3
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["truncations"] == [manifest["n_final"]]
        assert not any(manifest["converged"])


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

    @pytest.mark.parametrize("command", ["spectrum", "compare-rwa"])
    def test_rwa_ground_is_the_pairing_row(self, tmp_path, command):
        # g = 1.3795, where g ** 2 and g * g differ in the last bit.
        out = str(tmp_path / "doc.json")
        assert run([command, "--omega", "1", "--eta", "2.759", "--delta", "0",
                    "--format", "json", "--out", out]) == 0
        rwa = json.loads(read_bytes(out))["rwa"]
        assert rwa["ground_energy"] == rwa["pairing"][0]["rwa_energy"]
        assert rwa["ground_gap_vs_rwa"] == rwa["pairing"][0]["gap"]


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

    def test_delta_sweep_builds_each_table_once(self, tmp_path, table_builds):
        # Every point of a detuning sweep shares g, so D(2g) is built once
        # per truncation size, not once per point and truncation.
        assert run(["sweep", "--param", "delta", "--from", "-2", "--to", "2", "--steps", "9",
                    "--omega", "2", "--eta", "0.2", "--out", str(tmp_path / "sw.csv")]) == 0
        assert len(set(table_builds)) == len(table_builds) <= 2

    def test_eta_sweep_matches_point_solves(self, tmp_path, monkeypatch):
        # The batched tables give every point the energies and parities of a
        # solve that builds its own tables, bit for bit.
        out = str(tmp_path / "sw.csv")
        assert run(["sweep", "--param", "eta", "--from", "0", "--to", "1.2", "--steps", "11",
                    "--omega", "1", "--delta", "0", "--out", out]) == 0
        header, rows = read_csv(out)
        for value in dict.fromkeys(r[0] for r in rows):
            monkeypatch.setattr(overlap, "_slot", (None, None))
            result = solve_spectrum(ModelParams(omega=1.0, eta=float(value), delta=0.0))
            point = [r for r in rows if r[0] == value]
            assert [float(r[header.index("energy")]) for r in point] == result.energies.tolist()
            assert [float(r[header.index("parity")]) for r in point] == result.parities.tolist()

    def test_eta_sweep_builds_one_table_per_chunk(self, tmp_path, table_builds):
        # Each chunk of 8 points builds its tables in one call; the walks,
        # which stop at n = 60 here, build none.
        assert run(["sweep", "--param", "eta", "--from", "0", "--to", "1", "--steps", "11",
                    "--omega", "1", "--delta", "0", "--out", str(tmp_path / "sw.csv")]) == 0
        assert cli._SWEEP_CHUNK == 8
        assert table_builds == [60] * math.ceil(11 / 8)

    def test_missing_fixed_param_rejected(self, tmp_path):
        out = str(tmp_path / "sw.csv")
        code = run(["sweep", "--param", "eta", "--from", "0", "--to", "0.1",
                    "--steps", "2", "--omega", "1", "--out", out])
        assert code == 2
        assert not os.path.exists(out)

    def test_preset_with_basis_flags(self, tmp_path):
        # A preset sets the sweep and its fixed point, not the basis flags.
        out = str(tmp_path / "fig2.csv")
        assert run(["sweep", "--preset", "fig2", "--levels", "4", "--n-max-hard", "200",
                    "--out", out]) == 0
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        preset = dict(cli._PRESETS["fig2"])
        assert manifest["sweep"] == {"param": preset.pop("param"), "from": preset.pop("start"),
                                     "to": preset.pop("stop"), "steps": preset.pop("steps"),
                                     "fixed": preset}
        assert manifest["basis"]["levels_requested"] == 4
        assert manifest["basis"]["n_max_hard"] == 200
        assert len(read_csv(out)[1]) == 101 * 4

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

    @pytest.mark.parametrize("eta, below", [("20", [40, 60]), ("0.5", [])])
    def test_below_reach(self, tmp_path, capsys, eta, below):
        # (η + √levels)² = 458.6 at η = 20: tails and drifts read 0 on both rows.
        out = str(tmp_path / "cv.csv")
        code = run(["converge", "--omega", "1", "--eta", eta, "--delta", "0.3",
                    "--n-list", "40,60", "--levels", "2", "--out", out])
        assert code == 0
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            assert json.load(fh)["below_reach"] == below
        err = capsys.readouterr().err
        if below:
            assert err.count("\n") == 1 and err.startswith("warning: ")
            assert "40, 60" in err
        else:
            assert err == ""


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


@st.composite
def short_decimals(draw):
    """The double nearest +-m * 10**k, m of 1 to 16 digits, at a decimal exponent
    X = -28 .. 16. About 23% of them have fewer than 17 significant digits under
    ``'%.17g'``, at every count of digits; of raw bit patterns 10% do, mostly 16."""
    digits = draw(st.integers(1, 16))
    m = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    X = draw(st.integers(-28, 16))
    return float(f"{draw(st.sampled_from('+-'))}{m}e{X + 1 - digits}")


class TestWriteCsv:
    """An array is written a block of rows at a time, byte for byte as the
    per-value ``_fmt`` path writes the same rows."""

    HEADER = ("t", "norm", "energy", "sigma_z", "sigma_x", "n")

    def _both(self, tmp_path, table):
        fast, slow = str(tmp_path / "array.csv"), str(tmp_path / "rows.csv")
        digest = cli._write_text(fast, cli._csv(self.HEADER, table))
        assert digest == hashlib.sha256(read_bytes(fast)).hexdigest()
        assert cli._write_text(slow, cli._csv(self.HEADER, table.tolist())) == digest
        assert read_bytes(fast) == read_bytes(slow)
        # np.float64 values
        assert cli._write_text(slow, cli._csv(self.HEADER, list(table))) == digest
        assert read_bytes(fast) == read_bytes(slow)
        return read_bytes(fast)

    def test_special_values(self, tmp_path):
        special = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 2.0 ** 53 + 1, 0.1, -1.0 / 3.0]
        values = np.concatenate([special, np.random.default_rng(0).normal(size=6 * 20 - 9)])
        data = self._both(tmp_path, values.reshape(-1, 6))
        assert data.splitlines()[2] == (b"-0,4.9406564584124654e-324,"
                                        b"1.0000000000000001e+300,nan,inf,-inf")

    def test_header_only(self, tmp_path):
        header_only = b"# schema=1\nt,norm,energy,sigma_z,sigma_x,n\n"
        assert self._both(tmp_path, np.empty((0, 6))) == header_only

    def test_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
        data = self._both(tmp_path, np.random.default_rng(1).normal(size=(10, 6)))
        assert len(data.splitlines()) == 12

    def test_error_after_first_block_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
        render, blocks = cli._g17_block, []

        def fail_second_block(block):
            blocks.append(block)
            if len(blocks) == 2:
                raise ValueError("second block")
            return render(block)

        monkeypatch.setattr(cli, "_g17_block", fail_second_block)
        with pytest.raises(ValueError, match="second block"):
            cli._write_text(str(tmp_path / "evolve.csv"), cli._csv(self.HEADER, np.zeros((10, 6))))
        assert len(blocks) == 2
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _same_as_rows(table, block=None):
        """The array path and the per-value ``_fmt`` path give the same text."""
        with mock.patch.object(cli, "_CSV_BLOCK", block or cli._CSV_BLOCK):
            text = "".join(cli._csv_rows(table))
        assert text == "".join(cli._csv_rows(table.tolist()))
        assert text == "".join(cli._csv_rows(list(table)))  # numpy scalars
        return text

    # Every double: st.floats() favours the special values, raw bit patterns
    # cover the rest, and short decimals the significands of fewer than 17 digits.
    DOUBLES = st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))), short_decimals())

    @pytest.mark.parametrize("block", [3, None])
    @settings(max_examples=200)
    @given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                            elements=DOUBLES))
    def test_any_float64_block(self, block, table):
        self._same_as_rows(table, block)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    @settings(max_examples=50)
    @given(data=st.data())
    def test_other_dtypes(self, dtype, data):
        table = data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=2, max_dims=2,
                                                             max_side=12)))
        self._same_as_rows(table, 3)

    def test_edge_values(self):
        edges = [1e-06, 4.46100844333705e-06, 1234567890123456.25, 1234567890123456.75,
                 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 99999999999999999.0, 5e-324,
                 np.finfo(np.float64).max,
                 # The only exact decimal ties below 1e-6, at X = -7 and -8.
                 *[m * 2.0 ** -24 for m in range(3, 16, 2)], 2.0 ** -25, 3 * 2.0 ** -25,
                 # Less than 2**-54 from a tie: the remainder's leading double is an exact
                 # half, and only its low part says which way to round.
                 4.974148370910348e-09, 9.895086944612226e-10, 6.83280278535067e-11,
                 # Zero, 1e300 and the subnormal 1e-320, which take %; a half; 2e-18, below 1e-6.
                 0.0, 1e300, 1e-320, 0.5, 2e-18]
        # The powers include 1e-28, where the exact path ends, and 1e-14, whose
        # significand carries to 10**17.
        for exponent in range(-30, 21):
            power = float(f"1e{exponent}")
            edges += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
        values = np.array(edges + [-v for v in edges])
        table = np.concatenate([values, np.zeros(-len(values) % 6)]).reshape(-1, 6)
        lines = self._same_as_rows(table).replace("\n", ",").split(",")
        assert lines[:len(values)] == ["%.17g" % v for v in values]
        assert lines[:4] == ["9.9999999999999995e-07", "4.46100844333705e-06",
                             "1234567890123456.2", "1234567890123456.8"]
        assert lines[10] == "1.7881393432617188e-07"  # 3 * 2**-24, a tie rounded to even
        assert "1e-14" in lines and "9.9999999999999997e-29" in lines


class TestEvolve:
    @pytest.mark.parametrize("initial", ["cat", "ground", "fock:0,g"])
    def test_norm_and_energy_conserved(self, tmp_path, initial):
        out = str(tmp_path / "ev.csv")
        code = run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "10", "--dt", "0.1", "--initial", initial,
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
        assert os.listdir(tmp_path) == []

    def test_unconverged_writes_nothing(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        assert run(["evolve", "--omega", "1", "--eta", "0.8", "--delta", "0", *TINY_BASIS,
                    "--t-max", "1", "--dt", "0.1", "--out", out]) == 3
        assert os.listdir(tmp_path) == []

    def test_bad_initial_spec(self, tmp_path):
        out = str(tmp_path / "ev.csv")
        code = run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "1", "--dt", "0.5", "--initial", "banana",
                    "--out", out])
        assert code == 2

    @pytest.mark.parametrize("spec, message", [
        ("fock:61,g", "Fock index 61 exceeds the solver truncation n_final = 60"),
        ("fock:3,x", "invalid parameter 'spin'"),
        ("fock:-1,g", "invalid parameter 'k'"),
        ("fock:a,g", "cannot parse 'fock:a,g'"),
    ])
    def test_bad_fock_state(self, tmp_path, capsys, spec, message):
        # The solve at this point ends at n_final = 60.
        code = run(["evolve", *POINT, "--t-max", "1", "--dt", "0.5", "--initial", spec,
                    "--out", str(tmp_path / "ev.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_two_runs_byte_identical(self, tmp_path):
        outs = [str(tmp_path / f"ev{i}.csv") for i in range(2)]
        for out in outs:
            assert run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                        "--t-max", "20", "--dt", "0.01", "--initial", "cat",
                        "--out", out]) == 0
        assert read_bytes(outs[0]) == read_bytes(outs[1])

    # 0.37 has no exact decimal multiples, and 100 is no multiple of it.
    @pytest.mark.parametrize("dt", ["0.01", "0.1", "0.37"])
    def test_time_column_is_step_times_dt(self, tmp_path, dt):
        out = str(tmp_path / "ev.csv")
        assert run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "100", "--dt", dt, "--initial", "ground",
                    "--out", out]) == 0
        _, rows = read_csv(out)
        step = float(dt)
        assert len(rows) == round(100 / step) + 1
        assert [r[0] for r in rows] == [f"{i * step:.17g}" for i in range(len(rows))]
        # The sigma_z column holds rounding noise of 1e-21 .. 1e-16 around the parity zero,
        # which takes the renderer's path below 1e-6.
        assert [f for r in rows for f in r] == ["%.17g" % float(f) for r in rows for f in r]

    def test_no_times_writes_header_only(self, tmp_path, monkeypatch):
        propagate = cli.propagate_observables

        def no_times(initial, result, times):
            table = propagate(initial, result, times[:0])
            assert table.shape == (0, 6)
            return table

        monkeypatch.setattr(cli, "propagate_observables", no_times)
        out = str(tmp_path / "ev.csv")
        assert run(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                    "--t-max", "1", "--dt", "0.5", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "norm", "energy", "sigma_z", "sigma_x", "n"]
        assert rows == []


class TestManifest:
    """Every data file written gets a sidecar holding its SHA-256 digest."""

    def manifest_of(self, tmp_path, out):
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["schema"] == 1
        name = os.path.basename(out)
        assert manifest["outputs"] == {name: hashlib.sha256(read_bytes(out)).hexdigest()}
        assert sorted(os.listdir(tmp_path)) == [name, name + ".manifest.json"]
        return manifest

    @pytest.mark.parametrize("argv, name", [
        (["spectrum", *POINT], "spec.csv"),
        (["spectrum", *POINT, "--format", "json"], "spec.json"),
        (["compare-rwa", *POINT], "rwa.csv"),
        (["compare-rwa", *POINT, "--format", "json"], "rwa.json"),
        (["sweep", "--param", "delta", "--from", "-1", "--to", "1", "--steps", "3",
          "--omega", "2", "--eta", "0.2"], "sweep.csv"),
        (["converge", *POINT, "--n-list", "20,40"], "cv.csv"),
        (["cat", *POINT], "cat.json"),
        (["evolve", *POINT, "--t-max", "1", "--dt", "0.1"], "ev.csv"),
    ], ids=["spectrum-csv", "spectrum-json", "compare-rwa-csv", "compare-rwa-json", "sweep",
            "converge", "cat", "evolve"])
    def test_digest_of_data_file(self, tmp_path, argv, name):
        argv = [*argv, "--out", str(tmp_path / name)]
        assert run(argv) == 0
        manifest = self.manifest_of(tmp_path, argv[-1])
        assert manifest["command"] == " ".join(argv)

    def test_command_reruns(self, tmp_path):
        # The spin of a Fock state may follow a space; the command quotes it.
        argv = ["evolve", *POINT, "--t-max", "1", "--dt", "0.1", "--initial", "fock:0, g",
                "--out", str(tmp_path / "ev.csv")]
        assert run(argv) == 0
        assert shlex.split(self.manifest_of(tmp_path, argv[-1])["command"]) == argv

    def test_partial_spectrum_keeps_both_files(self, tmp_path):
        out = str(tmp_path / "partial.csv")
        assert run(["spectrum", "--omega", "1", "--eta", "0.8", "--delta", "0", *TINY_BASIS,
                    "--out", out]) == 3
        assert not any(self.manifest_of(tmp_path, out)["converged"])

    def test_failed_sweep_points_keep_both_files(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--param", "eta", "--from", "0.5", "--to", "0.8", "--steps", "3",
                    "--omega", "1", "--delta", "0", *TINY_BASIS, "--out", out]) == 3
        failed = self.manifest_of(tmp_path, out)["failed_points"]
        assert [p["value"] for p in failed] == [0.5, 0.65, 0.8]


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaves parse state
    behind: each command writes the bytes it writes first in a fresh parser."""

    COMMANDS = [
        # --preset fills the namespace; the sweep after it names its own point.
        ["sweep", "--preset", "fig2", "--levels", "2"],
        ["sweep", "--param", "delta", "--from", "-1", "--to", "1", "--steps", "3",
         "--omega", "2", "--eta", "0.2"],
        ["sweep", "--preset", "fig3a", "--steps", "3"],  # exit 2
        ["spectrum", "--omega", "x", "--eta", "0.2", "--delta", "0"],  # argparse exit 2
        ["spectrum", *POINT, "--format", "json"],
        ["spectrum", *POINT],
        ["evolve", *POINT, "--t-max", "1", "--dt", "0.1", "--initial", "cat"],
        ["evolve", *POINT, "--t-max", "1", "--dt", "0.1"],  # --initial back at ground
        ["converge", *POINT, "--n-list", "20,40"],
    ]

    def outputs(self, directory, order, fresh):
        directory.mkdir()
        outputs = {}
        for i in order:
            if fresh:
                cli._build_parser.cache_clear()
            out = directory / f"out{i}"
            try:
                code = run([*self.COMMANDS[i], "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            outputs[i] = (code, read_bytes(out) if out.exists() else None)
        return outputs

    def test_same_bytes_as_a_fresh_parser(self, tmp_path):
        order = range(len(self.COMMANDS))
        fresh = self.outputs(tmp_path / "fresh", order, fresh=True)
        cli._build_parser.cache_clear()
        # In reverse, so that state left by one command would reach another one.
        assert self.outputs(tmp_path / "reused", reversed(order), fresh=False) == fresh
        assert cli._build_parser.cache_info().misses == 1
        assert [fresh[i][0] for i in order] == [0, 0, 2, 2, 0, 0, 0, 0, 0]
        assert all(data for code, data in fresh.values() if code == 0)


class TestNegativeNumbers:
    """A flag's value may be any number ``float()`` reads, a negative one with an
    exponent too, given as the next token or after ``=``."""

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--omega", "1", "--eta", "0.2"], "--delta"),
        (["sweep", "--param", "delta", "--to", "1", "--steps", "2", "--omega", "2",
          "--eta", "0.2"], "--from"),
    ], ids=["spectrum", "sweep"])
    def test_exponent_as_next_token(self, tmp_path, argv, flag):
        spaced = [*argv, flag, "-1e-3", "--out", str(tmp_path / "spaced.csv")]
        joined = [*argv, f"{flag}=-1e-3", "--out", str(tmp_path / "joined.csv")]
        assert run(spaced) == run(joined) == 0
        assert read_bytes(spaced[-1]) == read_bytes(joined[-1])
        manifest = json.loads(read_bytes(spaced[-1] + ".manifest.json"))
        assert manifest["command"] == shlex.join(spaced)

    @pytest.mark.parametrize("token", ["-1e-3", "-1E2", "-.5e+1", "-2.", "-1_000", "-3",
                                       "-inf", "-nan"])
    def test_parses_as_float(self, token):
        args = cli._build_parser().parse_args(["spectrum", *POINT[:4], "--delta", token])
        assert repr(args.delta) == repr(float(token))


class TestExitContract:
    """Bad input ends in exit 2 with one ``error:`` line and no data file."""

    def assert_rejected(self, argv, tmp_path, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []
        return err

    def test_coupling_too_large(self, tmp_path, capsys):
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "1e5", "--delta", "0",
                              "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)

    def test_coupling_overflows_at_hard_cap(self, tmp_path, capsys):
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "100", "--delta", "0",
                              "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)

    def test_infinite_tolerance(self, tmp_path, capsys):
        # An infinite tolerance would pass every level at the first truncation.
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "3", "--delta", "0.5",
                              "--tail-tol", "inf", "--drift-tol", "inf",
                              "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--out", str(tmp_path / "missing" / "spec.csv")], tmp_path, capsys)

    def test_failed_residual_certificate(self, tmp_path, capsys, perturbed_eigh):
        self.assert_rejected(["spectrum", *POINT, "--out", str(tmp_path / "spec.csv")],
                             tmp_path, capsys)

    @pytest.mark.parametrize("omega, delta", [("1e300", "0"), ("1", "1e300")])
    def test_overflowing_residual(self, tmp_path, capsys, omega, delta):
        err = self.assert_rejected(["spectrum", "--omega", omega, "--eta", "0.2",
                                    "--delta", delta, "--out", str(tmp_path / "spec.csv")],
                                   tmp_path, capsys)
        assert "residual inf" in err and "Warning" not in err

    @pytest.mark.parametrize("t_max, dt, field", [
        ("1", "inf", "dt"), ("inf", "1", "t_max"), ("1", "nan", "dt"), ("nan", "0.1", "t_max"),
        ("0", "0.1", "t_max"), ("1", "-0.1", "dt"),
    ])
    def test_evolve_bad_time_flag(self, tmp_path, capsys, monkeypatch, t_max, dt, field):
        # Each time flag is checked by name before any solve, without a numpy warning.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the time checks")

        monkeypatch.setattr(cli, "solve_spectrum", unreachable)
        err = self.assert_rejected(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                                    "--t-max", t_max, "--dt", dt,
                                    "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)
        assert err.startswith(f"error: invalid parameter '{field}'")
        assert "Warning" not in err

    def test_table_overflow_names_tested_edge(self, tmp_path, capsys):
        err = self.assert_rejected(["spectrum", "--omega", "1", "--eta", "38", "--delta", "0.3",
                                    "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)
        assert "the table of D(beta) for beta=(38+0j) at n=400" in err
        assert "|beta| = 36" in err and "displacement_matrix" not in err

    def test_sweep_table_overflow(self, tmp_path, capsys):
        # The batched build drops the tables that overflow; the point's own
        # solve then builds its table alone and reports it.
        err = self.assert_rejected(["sweep", "--param", "eta", "--from", "0", "--to", "80",
                                    "--steps", "3", "--omega", "1", "--delta", "0",
                                    "--out", str(tmp_path / "sw.csv")], tmp_path, capsys)
        assert "the table of D(beta) for beta=(40+0j) at n=400 is not representable" in err

    def test_evolve_step_count_not_finite(self, tmp_path, capsys):
        self.assert_rejected(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--t-max", "1e300", "--dt", "1e-300",
                              "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)

    @pytest.mark.parametrize("n_list, levels, field", [
        ("40,20", "10", "n_list"),    # not increasing
        ("0,10", "10", "n_list"),     # truncation below 1
        (",", "10", "n_list"),        # empty
        ("5", "50", "levels"),        # more levels than the smallest problem holds
        ("20", "-3", "levels"),       # no level requested
    ], ids=["descending", "zero", "empty", "levels-too-many", "levels-negative"])
    def test_converge_bad_truncations(self, tmp_path, capsys, n_list, levels, field):
        err = self.assert_rejected(["converge", "--omega", "1", "--eta", "0.5", "--delta", "0.3",
                                    f"--n-list={n_list}", f"--levels={levels}",
                                    "--out", str(tmp_path / "cv.csv")], tmp_path, capsys)
        assert err.startswith(f"error: invalid parameter '{field}'")

    @pytest.mark.parametrize("flags, field", [
        (["--preset", "fig3a", "--omega", "5", "--steps", "3"], "steps"),
        (["--preset", "fig2", "--param", "delta", "--steps", "2"], "param"),
        (["--param", "eta", "--from", "0", "--to", "1", "--steps", "2",
          "--omega", "1", "--delta", "0", "--eta", "0.5"], "eta"),
        (["--preset", "fig2", "--eta", "0.5"], "eta"),
        (["--from", "0", "--to", "1", "--steps", "2", "--omega", "1", "--delta", "0"], "param"),
        (["--param", "eta", "--from", "0", "--to", "1", "--steps", "0",
          "--omega", "1", "--delta", "0"], "steps"),
    ], ids=["preset-and-point", "preset-and-param", "fixed-swept-param", "preset-and-swept-param",
            "no-param-or-preset", "zero-steps"])
    def test_sweep_flag_set_twice(self, tmp_path, capsys, flags, field):
        # A preset's flags and the swept parameter take no second value; without a preset
        # the sweep needs --param, and --steps of at least 1.
        err = self.assert_rejected(["sweep", *flags, "--out", str(tmp_path / "sw.csv")],
                                   tmp_path, capsys)
        assert err.startswith(f"error: invalid parameter '{field}'")

    @pytest.mark.parametrize("param, start, stop, field", [
        ("eta", "0", "inf", "stop"), ("eta", "nan", "1", "start"),
        ("delta", "-1e308", "1e308", "stop"),
    ], ids=["to-inf", "from-nan", "range-overflows"])
    def test_sweep_range_not_finite(self, tmp_path, capsys, param, start, stop, field):
        # Checked by name before np.linspace, which would warn and then fail on the swept value.
        fixed = {"eta": ["--delta", "0"], "delta": ["--eta", "0.2"]}[param]
        err = self.assert_rejected(["sweep", "--param", param, f"--from={start}", f"--to={stop}",
                                    "--steps", "3", "--omega", "1", *fixed,
                                    "--out", str(tmp_path / "sw.csv")], tmp_path, capsys)
        assert err.startswith(f"error: invalid parameter '{field}'")

    def test_evolve_row_cap(self, tmp_path, capsys, monkeypatch):
        # Without the cap the solve runs and the time list takes 1e12 entries.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the row cap")

        monkeypatch.setattr(cli, "solve_spectrum", unreachable)
        self.assert_rejected(["evolve", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--t-max", "1e6", "--dt", "1e-6",
                              "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)

    def test_evolve_phase_overflows(self, tmp_path, capsys):
        # Finite times whose phase max|E|·t overflows a float; checked after the solve.
        err = self.assert_rejected(["evolve", *POINT, "--t-max", "1e307", "--dt", "1e306",
                                    "--out", str(tmp_path / "ev.csv")], tmp_path, capsys)
        assert "phase" in err and "Warning" not in err

    def test_sweep_row_cap(self, tmp_path, capsys, monkeypatch):
        # Without the cap the grid of 10**6 + 1 points is built and solved.
        def unreachable(*args, **kwargs):
            raise AssertionError("sweep reached past the row cap")

        monkeypatch.setattr(cli, "_basis_from_args", unreachable)
        self.assert_rejected(["sweep", "--param", "eta", "--from", "0", "--to", "1",
                              "--steps", str(10 ** 6 + 1), "--omega", "1", "--delta", "0",
                              "--out", str(tmp_path / "sw.csv")], tmp_path, capsys)
        assert (10 ** 6 + 1) * 10 > cli.MAX_ROWS  # ten levels per point

    def test_spectrum_truncation_cap(self, tmp_path, capsys, monkeypatch):
        # Without the cap the solve allocates a dense (n+1)² table at n = 10**5.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the truncation cap")

        monkeypatch.setattr(cli, "solve_spectrum", unreachable)
        self.assert_rejected(["spectrum", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--n-start", "100000", "--n-max-hard", "100000",
                              "--out", str(tmp_path / "spec.csv")], tmp_path, capsys)

    def test_converge_truncation_cap(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached past the truncation cap")

        monkeypatch.setattr(solver, "_solve_at", unreachable)
        self.assert_rejected(["converge", "--omega", "1", "--eta", "0.2", "--delta", "0",
                              "--n-list", "100000", "--out", str(tmp_path / "cv.csv")],
                             tmp_path, capsys)

    def test_unwritable_manifest_leaves_nothing(self, tmp_path, capsys):
        # The data file's temp name just fits in a directory entry; the manifest's does not.
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        name = "a" * (name_max - len(f".{os.getpid()}.tmp") - len(".csv")) + ".csv"
        assert len(f"{name}.{os.getpid()}.tmp") == name_max < len(name + ".manifest.json")
        err = self.assert_rejected(["spectrum", *POINT, "--out", str(tmp_path / name)],
                                   tmp_path, capsys)
        assert ".manifest.json'" in err

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

    @pytest.mark.parametrize("failure", [KeyboardInterrupt(),
                                         OSError(28, "No space left on device")],
                             ids=["interrupt", "no-space"])
    @pytest.mark.parametrize("earlier", [False, True], ids=["first-run", "re-run"])
    def test_interrupted_manifest_leaves_nothing(self, tmp_path, monkeypatch, earlier, failure):
        # The data file is in place when the manifest's rename fails. On a re-run the
        # earlier manifest, whose digest names the data file just removed, goes too.
        argv = ["spectrum", *POINT, "--out", str(tmp_path / "spec.csv")]
        if earlier:
            assert run(argv) == 0
        replace = os.replace

        def fail_manifest(src, dst):
            if dst.endswith(".manifest.json"):
                assert sorted(os.listdir(tmp_path)) == sorted(
                    ["spec.csv", os.path.basename(src)] + earlier * ["spec.csv.manifest.json"])
                raise failure
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_manifest)
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
