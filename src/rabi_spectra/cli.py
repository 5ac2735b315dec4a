"""Command-line front end: spectra, sweeps, convergence studies, states, dynamics.

Output files are deterministic: floats are rendered with 17 significant
digits, rows are emitted in a fixed order, and timestamps live only in the
manifest sidecar, never in the data payload. Every data file gets a
``<out>.manifest.json`` companion recording the exact parameters,
convergence status and payload digest. Each ``_cmd_*`` handler writes its
data file and returns its exit code and its own manifest fields; ``main`` is
the one place that writes the manifest, so a handler that raises leaves none.

Exit codes: 0 success, 2 invalid flags or parameters, 3 convergence
failure (partial results are still written, flagged; evolve writes no data
file or manifest), 4 initial state outside the converged span (evolve).
Exit 2 includes an unwritable ``--out``; ``converge`` errors naming ``n_list``
(empty, not increasing, or a truncation below 1) or ``levels`` (below 1, or
more than the smallest truncation holds); a truncation or level count above
``model.MAX_TRUNCATION`` (``--n-max-hard``, a ``converge`` truncation or
``--levels``); a ``--tail-tol`` or ``--drift-tol`` that is not finite and > 0;
and a request for more than ``MAX_ROWS`` rows in one data file (``evolve``
time steps, ``sweep`` steps x levels). All are checked before any solve. Exit 2 also
ends a solve whose eigendecomposition fails its residual certificate
(``NoConvergence``); no file is written then either.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .errors import ConvergenceFailure, IncompleteBasis, InvalidParam, RabiSpectraError
from .hamiltonian import rwa_spectrum
from .model import BasisSpec, ModelParams, _is_finite_number
from .solver import (LevelPairing, SpectralResult, _reach, classify_levels, solve_spectrum,
                     truncation_table)
from .states import (
    basis_state,
    eigvec_to_bare,
    fidelity,
    hadamard_on_spin,
    ideal_cat_state,
    propagate_observables,
)

SCHEMA_VERSION = 1
# Most rows a flag may request in one data file, checked before any solve.
MAX_ROWS = 10_000_000
# Rows of a float table formatted and written per step, so a table of
# MAX_ROWS rows is never held as one string.
_CSV_BLOCK = 4096

_PRESETS = {
    # Coupling sweep at resonance; the two parity chains split as eta grows.
    "fig2": {"param": "eta", "start": 0.0, "stop": 1.0, "steps": 101,
             "omega": 1.0, "delta": 0.0},
    # Detuning sweeps at strong drive for three coupling strengths.
    "fig3a": {"param": "delta", "start": -2.0, "stop": 2.0, "steps": 161,
              "omega": 2.0, "eta": 0.2},
    "fig3b": {"param": "delta", "start": -2.0, "stop": 2.0, "steps": 161,
              "omega": 2.0, "eta": 0.4},
    "fig3c": {"param": "delta", "start": -2.0, "stop": 2.0, "steps": 161,
              "omega": 2.0, "eta": 0.6},
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in turn to a temp file, then ``os.replace`` it onto
    ``path``, so a crash or an error in a chunk leaves no partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidParam("out", f"cannot write '{path}': {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _csv_rows(rows: Union[np.ndarray, Iterable[Sequence]]) -> Iterator[str]:
    """Rows of ``_fmt`` values one line at a time, or a 2-D float array
    ``_CSV_BLOCK`` rows at a time, each block rendered by one %.17g format
    string with no Python call per row or value."""
    if isinstance(rows, np.ndarray):
        row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            yield row_fmt * block.shape[0] % tuple(block.ravel().tolist())
    else:
        for row in rows:
            yield ",".join(_fmt(v) for v in row) + "\n"


def _write_csv(path: str, header: Sequence[str],
               rows: Union[np.ndarray, Iterable[Sequence]]) -> None:
    _write_text(path, itertools.chain([f"# schema={SCHEMA_VERSION}\n{','.join(header)}\n"],
                                      _csv_rows(rows)))


def _write_json(path: str, doc: dict) -> None:
    doc = {"schema": SCHEMA_VERSION, **doc}
    _write_text(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, command: str, entries: dict) -> None:
    """Write ``<out_path>.manifest.json``: provenance, the digest of the data
    file as it lies on disk, and the command's own ``entries``."""
    _write_json(out_path + ".manifest.json", {
        "tool": "rabi-spectra",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {os.path.basename(out_path): _sha256(out_path)},
        **entries,
    })


def _add_point_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--omega", type=float, required=required, help="Rabi frequency (trap units)")
    parser.add_argument("--eta", type=float, required=required, help="Lamb-Dicke parameter")
    parser.add_argument("--delta", type=float, required=required, help="detuning (trap units)")


def _add_basis_flags(parser: argparse.ArgumentParser) -> None:
    spec = BasisSpec()
    parser.add_argument("--levels", type=int, default=spec.levels_requested,
                        help="number of lowest levels that must converge")
    parser.add_argument("--n-start", type=int, default=spec.n_start)
    parser.add_argument("--n-step", type=int, default=spec.n_step)
    parser.add_argument("--n-max-hard", type=int, default=spec.n_max_hard)
    parser.add_argument("--tail-tol", type=float, default=spec.tail_tol)
    parser.add_argument("--drift-tol", type=float, default=spec.drift_tol)


def _basis_from_args(args) -> BasisSpec:
    return BasisSpec(n_start=args.n_start, n_step=args.n_step, n_max_hard=args.n_max_hard,
                     tail_tol=args.tail_tol, drift_tol=args.drift_tol,
                     levels_requested=args.levels)


def _params_from_args(args) -> ModelParams:
    return ModelParams(omega=args.omega, eta=args.eta, delta=args.delta)


_PAIRING_HEADER = tuple(f.name for f in fields(LevelPairing))
# The spectrum and sweep CSVs carry each level's RWA partner: label, energy and gap.
_RWA_COLUMNS = _PAIRING_HEADER[2:5]


def _pairing(result: SpectralResult) -> List[LevelPairing]:
    rwa = rwa_spectrum(result.params, n_max=max(0, (result.levels + 1) // 2))
    return classify_levels(result, rwa)


def _rwa_columns(pairing: Optional[LevelPairing]) -> tuple:
    """The RWA partner columns of one level; blank without a pairing."""
    return tuple(None if pairing is None else getattr(pairing, name) for name in _RWA_COLUMNS)


def _level_records(result: SpectralResult) -> List[dict]:
    """Per-level fields shared by the spectrum CSV and JSON and the sweep rows."""
    return [{
        "level": i,
        "energy": float(result.energies[i]),
        "tail_weight": float(result.tail_weights[i]),
        "drift": float(result.drifts[i]) if np.isfinite(result.drifts[i]) else None,
        "parity": None if result.parities is None else float(result.parities[i]),
        "converged": bool(result.converged[i]),
    } for i in range(result.levels)]


def _rwa_payload(pairing: List[LevelPairing]) -> dict:
    # classify_levels pairs level 0 with the RWA ground, so its row holds both numbers.
    return {
        "ground_energy": pairing[0].rwa_energy,
        "ground_gap_vs_rwa": pairing[0].gap,
        "pairing": [asdict(p) for p in pairing],
    }


def _solve(params: ModelParams,
           basis: BasisSpec) -> Tuple[SpectralResult, Optional[ConvergenceFailure]]:
    """Solve; on convergence failure return the partial result and the failure."""
    try:
        return solve_spectrum(params, basis), None
    except ConvergenceFailure as failure:
        return failure.result, failure


def _solve_or_partial(params: ModelParams, basis: BasisSpec) -> Tuple[SpectralResult, int]:
    """Solve, or warn and fall back to the partial result with exit code 3."""
    result, failure = _solve(params, basis)
    if failure is None:
        return result, 0
    print(f"warning: {failure}", file=sys.stderr)
    return result, 3


def _solve_summary(result: SpectralResult) -> dict:
    """Manifest entries of one solve: its inputs, truncations and convergence."""
    return {"params": asdict(result.params), "basis": asdict(result.basis),
            "n_final": result.n_final, "truncations": [n for n, _ in result.trace],
            "converged": [bool(v) for v in result.converged]}


def _check_rows(name: str, rows: int) -> None:
    if rows > MAX_ROWS:
        raise InvalidParam(name, f"asks for more than {MAX_ROWS} rows in one data file")


def _cmd_spectrum(args) -> Tuple[int, dict]:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    pairing = _pairing(result)
    records = _level_records(result)
    if args.format == "json":
        for r in records:
            i = r.pop("level")
            # + 0.0 writes an exact zero as 0.0, whatever sign the solve left on it.
            r.update(index=i, coefficients={"c": (result.coeff_c[i] + 0.0).tolist(),
                                            "d": (result.coeff_d[i] + 0.0).tolist()})
        _write_json(args.out, {
            "params": asdict(result.params),
            "basis": asdict(result.basis),
            "n_final": result.n_final,
            "all_converged": result.all_converged,
            "levels": records,
            "rwa": _rwa_payload(pairing),
        })
    else:
        rows = [(*r.values(), *_rwa_columns(p)) for r, p in zip(records, pairing)]
        _write_csv(args.out, (*records[0], *_RWA_COLUMNS), rows)
    return exit_code, _solve_summary(result)


def _cmd_compare_rwa(args) -> Tuple[int, dict]:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    pairing = _pairing(result)
    if args.format == "json":
        _write_json(args.out, {"params": asdict(result.params),
                               "rwa": _rwa_payload(pairing)})
    else:
        _write_csv(args.out, _PAIRING_HEADER, [astuple(p) for p in pairing])
    return exit_code, _solve_summary(result)


_SWEEP_HEADER = ("param", "level", "energy", "parity", *_RWA_COLUMNS)


def _cmd_sweep(args) -> Tuple[int, dict]:
    if args.preset:
        preset = _PRESETS[args.preset]
        args.param = preset["param"]
        args.start, args.stop, args.steps = preset["start"], preset["stop"], preset["steps"]
        for name in ("omega", "eta", "delta"):
            if name in preset:
                setattr(args, name, preset[name])
    if args.param is None or args.start is None or args.stop is None or args.steps is None:
        raise InvalidParam("param", "sweep needs --param/--from/--to/--steps or --preset")
    if args.steps < 1:
        raise InvalidParam("steps", "must be >= 1")
    _check_rows("steps", args.steps * args.levels)
    fixed = {name: getattr(args, name) for name in ("omega", "eta", "delta") if name != args.param}
    for name, value in fixed.items():
        if value is None:
            raise InvalidParam(name, "fixed parameter required for sweep")
    basis = _basis_from_args(args)
    # Build the whole grid up front so bad flags fail before any work.
    grid = [ModelParams(**fixed, **{args.param: float(v)})
            for v in np.linspace(args.start, args.stop, args.steps)]

    with_rwa = args.param == "eta" and args.omega == 1.0
    rows = []
    failures = []
    for params in grid:
        value = getattr(params, args.param)
        result, failure = _solve(params, basis)
        if failure is not None:
            failures.append({"value": value, "error": str(failure)})
        pairing = _pairing(result) if with_rwa else [None] * result.levels
        for r, p in zip(_level_records(result), pairing):
            parity = r["parity"] if r["converged"] else None
            rows.append((value, r["level"], r["energy"], parity, *_rwa_columns(p)))
    _write_csv(args.out, _SWEEP_HEADER, rows)
    if failures:
        print(f"warning: {len(failures)} sweep point(s) did not converge", file=sys.stderr)
    return (3 if failures else 0), {
        "basis": asdict(basis), "failed_points": failures,
        "sweep": {"param": args.param, "from": args.start, "to": args.stop, "steps": args.steps,
                  "fixed": fixed}}


def _cmd_converge(args) -> Tuple[int, dict]:
    params = _params_from_args(args)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParam("n_list", str(exc)) from exc
    # truncation_table rejects the list and the level count before any solve.
    rows = truncation_table(params, n_list, args.levels)
    _write_csv(args.out, tuple(rows[0]), [r.values() for r in rows])
    reach = _reach(params, args.levels)
    below = [n for n in n_list if n < reach]
    if below:
        print(f"warning: truncation(s) {', '.join(map(str, below))} lie below (eta + "
              f"sqrt(levels))^2 = {reach:.6g}, where tails and drifts cannot show "
              "the missing states", file=sys.stderr)
    return 0, {"params": asdict(params), "n_list": n_list, "levels": args.levels,
               "below_reach": below}


def _cmd_cat(args) -> Tuple[int, dict]:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    ground = eigvec_to_bare(result.coeff_c[0], result.coeff_d[0], params.g).fixed_phase()
    had = hadamard_on_spin(ground).fixed_phase()
    cat = ideal_cat_state(params.g, result.n_final).fixed_phase()
    payload = {
        "params": asdict(params),
        "n": result.n_final,
        "fidelity": fidelity(had, cat),
        "hadamard_ground_norm": float(np.linalg.norm(had.amps)),
        "ideal_cat_norm": float(np.linalg.norm(cat.amps)),
        "hadamard_ground": {
            "e": [float(v) for v in had.amps[:, 0].real],
            "g": [float(v) for v in had.amps[:, 1].real],
        },
        "ideal_cat": {
            "e": [float(v) for v in cat.amps[:, 0].real],
            "g": [float(v) for v in cat.amps[:, 1].real],
        },
    }
    _write_json(args.out, payload)
    return exit_code, _solve_summary(result)


def _initial_state(spec: str, result: SpectralResult):
    params = result.params
    if spec == "ground":
        return eigvec_to_bare(result.coeff_c[0], result.coeff_d[0], params.g)
    if spec == "cat":
        return ideal_cat_state(params.g, result.n_final)
    if spec.startswith("fock:"):
        body = spec[len("fock:"):]
        try:
            k_str, spin = body.split(",")
            return basis_state(int(k_str), spin.strip(), result.n_final)
        except (ValueError, IndexError) as exc:
            raise InvalidParam("initial", f"cannot parse '{spec}'") from exc
    raise InvalidParam("initial", f"unknown initial state '{spec}'")


def _cmd_evolve(args) -> Tuple[int, dict]:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    for name, value in (("t_max", args.t_max), ("dt", args.dt)):
        if not (_is_finite_number(value) and value > 0):
            raise InvalidParam(name, "must be finite and > 0")
    if not _is_finite_number(args.t_max / args.dt):
        raise InvalidParam("dt", "t_max/dt must be finite")
    steps = int(round(args.t_max / args.dt))
    _check_rows("dt", steps + 1)
    result = solve_spectrum(params, basis)
    initial = _initial_state(args.initial, result)
    table = propagate_observables(initial, result, np.arange(steps + 1) * args.dt)
    _write_csv(args.out, ("t", "norm", "energy", "sigma_z", "sigma_x", "n"), table)
    return 0, {**_solve_summary(result), "initial": args.initial, "t_max": args.t_max,
               "dt": args.dt}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-spectra",
        description="Trapped-ion spectra beyond the Lamb-Dicke and rotating-wave approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="converged low-lying spectrum at one parameter point")
    _add_point_flags(sp)
    _add_basis_flags(sp)
    sp.add_argument("--out", default="spectrum.csv")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_spectrum)

    cr = sub.add_parser("compare-rwa", help="level pairing against the rotating-wave spectrum")
    _add_point_flags(cr)
    _add_basis_flags(cr)
    cr.add_argument("--out", default="compare_rwa.csv")
    cr.add_argument("--format", choices=("csv", "json"), default="csv")
    cr.set_defaults(func=_cmd_compare_rwa)

    sw = sub.add_parser("sweep", help="parameter sweep over eta or delta")
    _add_point_flags(sw, required=False)
    _add_basis_flags(sw)
    sw.add_argument("--param", choices=("eta", "delta"))
    sw.add_argument("--from", dest="start", type=float)
    sw.add_argument("--to", dest="stop", type=float)
    sw.add_argument("--steps", type=int)
    sw.add_argument("--preset", choices=sorted(_PRESETS))
    sw.add_argument("--out", default="sweep.csv")
    sw.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("converge", help="energies, tails, drifts over explicit truncations")
    _add_point_flags(cv)
    cv.add_argument("--n-list", required=True, help="comma-separated truncations, e.g. 20,40,60")
    cv.add_argument("--levels", type=int, default=10)
    cv.add_argument("--out", default="converge.csv")
    cv.set_defaults(func=_cmd_converge)

    ct = sub.add_parser("cat", help="spin-motion cat state from the exact ground state")
    _add_point_flags(ct)
    _add_basis_flags(ct)
    ct.add_argument("--out", default="cat.json")
    ct.set_defaults(func=_cmd_cat)

    ev = sub.add_parser("evolve", help="spectral time evolution of a chosen initial state")
    _add_point_flags(ev)
    _add_basis_flags(ev)
    ev.add_argument("--t-max", type=float, required=True)
    ev.add_argument("--dt", type=float, required=True)
    ev.add_argument("--initial", default="ground",
                    help="ground | cat | fock:<k>,<e|g>")
    ev.add_argument("--out", default="evolve.csv")
    ev.set_defaults(func=_cmd_evolve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = " ".join(argv if argv is not None else sys.argv[1:])
    try:
        exit_code, entries = args.func(args)
        _write_manifest(args.out, command, entries)
        return exit_code
    except IncompleteBasis as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RabiSpectraError, OverflowError) as exc:
        # OverflowError: a coupling too large for the overlap table to represent.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
