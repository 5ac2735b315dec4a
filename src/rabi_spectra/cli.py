"""Command-line front end: spectra, sweeps, convergence studies, states, dynamics.

Output files are deterministic: floats are rendered with 17 significant
digits, rows are emitted in a fixed order, and timestamps live only in the
manifest sidecar, never in the data payload. Every data file gets a
``<out>.manifest.json`` companion recording the exact parameters,
convergence status and payload digests.

Exit codes: 0 success, 2 invalid flags or parameters (an unwritable
``--out`` included), 3 convergence failure (partial results are still
written, flagged), 4 initial state outside the converged span (evolve).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import ConvergenceFailure, IncompleteBasis, InvalidParam, RabiSpectraError
from .hamiltonian import rwa_spectrum
from .model import BasisSpec, ModelParams, validate
from .solver import SpectralResult, classify_levels, solve_spectrum, truncation_table
from .states import (
    basis_state,
    eigvec_to_bare,
    fidelity,
    hadamard_on_spin,
    ideal_cat_state,
    propagate_observables,
)

SCHEMA_VERSION = 1

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


def _write_text(path: str, text: str) -> None:
    """Write via a temp file and ``os.replace``, so a crash leaves no partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidParam("out", f"cannot write '{path}': {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, doc: dict) -> None:
    doc = {"schema": SCHEMA_VERSION, **doc}
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _params_dict(params: ModelParams) -> dict:
    return {"omega": params.omega, "eta": params.eta, "delta": params.delta,
            "g": params.g, "epsilon": params.epsilon}


def _basis_dict(basis: BasisSpec) -> dict:
    return {"n_start": basis.n_start, "n_step": basis.n_step,
            "n_max_hard": basis.n_max_hard, "tail_tol": basis.tail_tol,
            "drift_tol": basis.drift_tol, "levels_requested": basis.levels_requested}


def _write_manifest(out_path: str, params: Optional[ModelParams], basis: Optional[BasisSpec],
                    command: str, extra: dict, outputs: List[str]) -> None:
    manifest = {
        "tool": "rabi-spectra",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    if params is not None:
        manifest["params"] = _params_dict(params)
    if basis is not None:
        manifest["basis"] = _basis_dict(basis)
    manifest.update(extra)
    _write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    return validate(ModelParams(omega=args.omega, eta=args.eta, delta=args.delta))


def _pairing_rows(result: SpectralResult):
    rwa = rwa_spectrum(result.params, n_max=max(0, (result.levels + 1) // 2))
    return classify_levels(result, rwa)


def _spectrum_payload(result: SpectralResult) -> dict:
    pairing = _pairing_rows(result)
    levels = []
    for i in range(result.levels):
        levels.append({
            "index": i,
            "energy": float(result.energies[i]),
            "tail_weight": float(result.tail_weights[i]),
            "drift": None if not np.isfinite(result.drifts[i]) else float(result.drifts[i]),
            "parity": None if result.parities is None else float(result.parities[i]),
            "converged": bool(result.converged[i]),
            "coefficients": {
                "c": [float(v) for v in result.coeff_c[i]],
                "d": [float(v) for v in result.coeff_d[i]],
            },
        })
    params = result.params
    return {
        "params": _params_dict(params),
        "basis": _basis_dict(result.basis),
        "n_final": result.n_final,
        "all_converged": result.all_converged,
        "levels": levels,
        "rwa": {
            "ground_energy": -params.omega / 2.0 + params.g ** 2,
            "ground_gap_vs_rwa": float(result.energies[0]) - (-params.omega / 2.0 + params.g ** 2),
            "pairing": [
                {"level": p.level, "energy": p.energy, "rwa_label": p.rwa_label,
                 "rwa_energy": p.rwa_energy, "gap": p.gap,
                 "nearest_label": p.nearest_label, "agrees": p.agrees}
                for p in pairing
            ],
        },
    }


def _spectrum_rows(result: SpectralResult):
    pairing = {p.level: p for p in _pairing_rows(result)}
    rows = []
    for i in range(result.levels):
        p = pairing[i]
        rows.append((
            i,
            float(result.energies[i]),
            float(result.tail_weights[i]),
            None if not np.isfinite(result.drifts[i]) else float(result.drifts[i]),
            None if result.parities is None else float(result.parities[i]),
            bool(result.converged[i]),
            p.rwa_label, p.rwa_energy, p.gap,
        ))
    return rows


def _solve_or_partial(params: ModelParams, basis: BasisSpec) -> Tuple[SpectralResult, int]:
    """Solve, or warn and fall back to the partial result with exit code 3."""
    try:
        return solve_spectrum(params, basis), 0
    except ConvergenceFailure as failure:
        print(f"warning: {failure}", file=sys.stderr)
        return failure.result, 3


def _solve_summary(result: SpectralResult) -> dict:
    return {"n_final": result.n_final, "converged": [bool(v) for v in result.converged]}


_SPECTRUM_HEADER = ("level", "energy", "tail_weight", "drift", "parity", "converged",
                    "rwa_label", "rwa_energy", "gap")


def _cmd_spectrum(args, command: str) -> int:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    if args.format == "json":
        _write_json(args.out, _spectrum_payload(result))
    else:
        _write_csv(args.out, _SPECTRUM_HEADER, _spectrum_rows(result))
    _write_manifest(args.out, params, basis, command, _solve_summary(result), [args.out])
    return exit_code


def _cmd_compare_rwa(args, command: str) -> int:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    pairing = _pairing_rows(result)
    if args.format == "json":
        payload = _spectrum_payload(result)
        _write_json(args.out, {"params": payload["params"], "rwa": payload["rwa"]})
    else:
        rows = [(p.level, p.energy, p.rwa_label, p.rwa_energy, p.gap,
                 p.nearest_label, p.agrees) for p in pairing]
        _write_csv(args.out, ("level", "energy", "rwa_label", "rwa_energy", "gap",
                              "nearest_label", "agrees"), rows)
    _write_manifest(args.out, params, basis, command, _solve_summary(result), [args.out])
    return exit_code


_SWEEP_HEADER = ("param", "level", "energy", "parity", "rwa_label", "rwa_energy", "gap")


def _sweep_params(value: float, args) -> ModelParams:
    fixed = {"omega": args.omega, "eta": args.eta, "delta": args.delta}
    fixed[args.param] = value
    return validate(ModelParams(omega=fixed["omega"], eta=fixed["eta"], delta=fixed["delta"]))


def _sweep_point(value: float, args, basis: BasisSpec):
    params = _sweep_params(value, args)
    try:
        return value, solve_spectrum(params, basis), None
    except ConvergenceFailure as failure:
        return value, failure.result, str(failure)


def _cmd_sweep(args, command: str) -> int:
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
    for name in ("omega", "eta", "delta"):
        if name != args.param and getattr(args, name) is None:
            raise InvalidParam(name, "fixed parameter required for sweep")
    basis = _basis_from_args(args)
    values = np.linspace(args.start, args.stop, args.steps)
    # Validate the whole grid up front so bad flags fail before any work.
    for value in values:
        _sweep_params(float(value), args)
    points = [_sweep_point(float(v), args, basis) for v in values]

    with_rwa = args.param == "eta" and args.omega == 1.0
    rows = []
    failures = []
    for value, result, error in points:
        if error is not None:
            failures.append((value, error))
        pairing = {p.level: p for p in _pairing_rows(result)} if with_rwa else {}
        for i in range(result.levels):
            parity = None if result.parities is None else float(result.parities[i])
            if not result.converged[i]:
                parity = None
            if with_rwa:
                p = pairing[i]
                rows.append((value, i, float(result.energies[i]), parity,
                             p.rwa_label, p.rwa_energy, p.gap))
            else:
                rows.append((value, i, float(result.energies[i]), parity, None, None, None))
    _write_csv(args.out, _SWEEP_HEADER, rows)
    _write_manifest(args.out, None, basis, command,
                    {"sweep": {"param": args.param, "from": args.start, "to": args.stop,
                               "steps": args.steps,
                               "fixed": {name: getattr(args, name) for name in
                                         ("omega", "eta", "delta") if name != args.param}},
                     "failed_points": [{"value": v, "error": e} for v, e in failures]},
                    [args.out])
    if failures:
        print(f"warning: {len(failures)} sweep point(s) did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_converge(args, command: str) -> int:
    params = _params_from_args(args)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParam("n_list", str(exc)) from exc
    rows = truncation_table(params, n_list, args.levels)
    csv_rows = [(r["n"], r["level"], r["energy"], r["tail_weight"], r["drift"]) for r in rows]
    _write_csv(args.out, ("n", "level", "energy", "tail_weight", "drift"), csv_rows)
    _write_manifest(args.out, params, None, command, {"n_list": n_list, "levels": args.levels},
                    [args.out])
    return 0


def _cmd_cat(args, command: str) -> int:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    result, exit_code = _solve_or_partial(params, basis)
    ground = eigvec_to_bare(result.coeff_c[0], result.coeff_d[0], params.g).fixed_phase()
    had = hadamard_on_spin(ground).fixed_phase()
    cat = ideal_cat_state(params.g, result.n_final).fixed_phase()
    payload = {
        "params": _params_dict(params),
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
    _write_manifest(args.out, params, basis, command, _solve_summary(result), [args.out])
    return exit_code


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


def _cmd_evolve(args, command: str) -> int:
    params = _params_from_args(args)
    basis = _basis_from_args(args)
    if args.t_max <= 0 or args.dt <= 0:
        raise InvalidParam("t_max" if args.t_max <= 0 else "dt", "must be > 0")
    if not math.isfinite(args.t_max / args.dt):
        raise InvalidParam("dt", "t_max/dt must be finite")
    result = solve_spectrum(params, basis)
    initial = _initial_state(args.initial, result)
    steps = int(round(args.t_max / args.dt))
    times = [i * args.dt for i in range(steps + 1)]
    table = propagate_observables(initial, result, times)
    rows = [tuple(row) for row in table]
    _write_csv(args.out, ("t", "norm", "energy", "sigma_z", "sigma_x", "n"), rows)
    _write_manifest(args.out, params, basis, command,
                    {**_solve_summary(result), "initial": args.initial,
                     "t_max": args.t_max, "dt": args.dt},
                    [args.out])
    return 0


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
        return args.func(args, command)
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
