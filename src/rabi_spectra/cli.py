"""Command-line front end: spectra, sweeps, convergence studies, states, dynamics.

Output files are deterministic: each float in a CSV is Python's ``'%.17g'``
of the double (17 significant digits, rounded half-even on the exact binary
value, trailing zeros and a bare ``.`` dropped; fixed form for
1e-4 <= |x| < 1e17, exponent form otherwise with at least two exponent
digits; ``nan``, ``inf``, ``-inf`` and ``-0`` for the special values). An
array of floats is rendered exactly without ``%`` for 1e-28 < |x| < 1e17; a
significand that rounds up to 10**17 (as at 1e-14) is written as 1 with the
next exponent, as ``%`` writes it. Rows are emitted in a fixed order, and
timestamps live only in the manifest sidecar, never in the data payload.
Every data file gets a ``<out>.manifest.json`` companion recording the exact
parameters, convergence status and payload digest. Each ``_cmd_*`` handler
returns its exit code, the text of its data file (rendered lazily, as it is
written) and its own manifest fields, and opens no file. ``main`` is the one
place that writes: the data file, hashing the bytes as it writes them, and
then the manifest with that digest. A handler that raises leaves no file, and
a failed write of either file leaves neither.

Exit codes: 0 success, 2 invalid flags or parameters, 3 convergence
failure, 4 initial state outside the whole truncated eigenbasis
(evolve); the README lists each case.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import shlex
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .errors import ConvergenceFailure, IncompleteBasis, InvalidParam, RabiSpectraError
from .hamiltonian import rwa_spectrum
from .model import BasisSpec, ModelParams, _check_finite, _is_finite_number
from .solver import (LevelPairing, SpectralResult, _reach, _sweep, classify_levels,
                     solve_spectrum, truncation_table)
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
# MAX_ROWS rows is never held as one string. The renderer's temporaries
# grow with the block: 4096 rows would raise the peak memory of a 10**4-row
# evolve by about 8 MB over 512.
_CSV_BLOCK = 512

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


def _write_text(path: str, chunks: Iterable[str]) -> str:
    """Write the chunks in turn to a temp file, then ``os.replace`` it onto
    ``path``, so a crash or an error in a chunk leaves no partial file; return
    the SHA-256 hex digest of the bytes written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidParam("out", f"cannot write '{path}': {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return digest.hexdigest()


# 10**0 .. 10**22, every power of ten that is a double.
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each double into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's two-product: p = fl(a * b) and p + e == a * b exactly."""
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """Knuth's two-sum: s = fl(a + b) and s + e == a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fit_exponent(scaled, X):
    """Move X by one where log10 missed it, so that the exact a * 10**(16 - X) lies in
    [10**16, 10**17) before rounding; return X and ``scaled(X)``, whose first two terms
    are that product's leading double p and a remainder with the sign of the rest."""
    terms = scaled(X)
    p, r = terms[:2]
    high = (p > 1e17) | ((p == 1e17) & (r >= 0))
    low = (p < 1e16) | ((p == 1e16) & (r < 0))
    if high.any() or low.any():
        X += high
        X -= low
        terms = scaled(X)
    return X, terms


def _significands(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 17-digit significand N (uint64) and decimal exponent X of each 1e-28 < a < 1e17.

    N is a * 10**(16 - X) rounded half-even, and 10**16 <= N < 10**17. 10**k is
    exact for k <= 22, and Dekker's two-product gives a * 10**k exactly as p + e,
    so X is chosen on the exact product and the rounding is that of a correctly
    rounded conversion. Values up to 1e-6 (X = -7 .. -28) need 10**k with
    k = 23 .. 44, which is not a double; they take ``_small_significands`` on
    their own, so an array without them pays for one comparison. Only there
    can the rounding carry to 10**17 (as at 1e-14); it is written as
    N = 10**16 with X + 1.
    """
    small = np.flatnonzero(a <= 1e-6)
    big = np.where(a > 1e-6, a, 1.0) if small.size else a
    # log10 is off by at most one next to a power of ten.
    X = np.minimum(np.maximum(np.floor(np.log10(big)), -6), 16).astype(np.intp)
    X, (p, e) = _fit_exponent(lambda X: _two_product(big, _POW10.take(16 - X)), X)
    # p >= 1e16 > 2**53 is an even integer, so rint(e) rounds the sum half-even.
    # No carry to 10**17: below each power of ten that bounds the range, the
    # largest double's product lies more than 4 below 10**17.
    N = (p.astype(np.int64) + np.rint(e).astype(np.int64)).view(np.uint64)
    if small.size:
        N[small], X[small] = _small_significands(a[small])
    return N, X


def _small_significands(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``_significands`` of each 1e-28 < a <= 1e-6, where 10**(16 - X) is not a double.

    a * 10**22 = p1 + e1 exactly, and each part times the exact 10**(-6 - X) is
    one more two-product, so the four doubles p + e + q + f are the exact
    a * 10**(16 - X). Knuth's two-sums rewrite them, still exactly, as
    P + hi + lo1 + d: P = fl(p + fl(e + q)), an even integer above 2**53, and
    a three-term remainder with |hi| < 9, |lo1| <= ulp(hi)/2 and |d| < 2**-100.
    lo = fl(lo1 + d) has the sign of lo1 + d, and |lo| < |hi| unless hi is 0,
    so hi + lo has the sign of the remainder. N is P + rint(hi), moved one
    step where hi is an exact half and lo says the remainder lies past it:
    |lo| is below the distance from any other hi to a half. Exact decimal ties
    occur at X = -7 and -8 (as 3 * 2**-24), and a carry to 10**17 (as at
    1e-14) is written N = 10**16 with X + 1.
    """
    p1, e1 = _two_product(a, 1e22)

    def scaled(X):
        b = _POW10.take(-6 - X)
        p, e = _two_product(p1, b)
        q, f = _two_product(e1, b)
        s, t = _two_sum(e, q)
        P, u = _two_sum(p, s)
        c, d = _two_sum(t, f)
        hi, lo = _two_sum(u, c)
        lo += d
        return P, hi + lo, hi, lo

    X = np.minimum(np.maximum(np.floor(np.log10(a)), -28), -7).astype(np.intp)
    X, (P, _, hi, lo) = _fit_exponent(scaled, X)
    n = np.rint(hi)
    step = np.sign(lo)
    n += step * (2 * (hi - n) == step)
    N = P.astype(np.int64) + n.astype(np.int64)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    return N.view(np.uint64), X + carry


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10**8 (uint64), one per byte, the first in the low byte."""
    q = v // 10000
    x = q | (v - q * 10000) << 32                     # two 4-digit lanes
    y = (x * 10486) >> 20 & 0x0000007F0000007F        # lane // 100
    x = y | (x - y * 100) << 16                       # four 2-digit lanes
    y = (x * 103) >> 10 & 0x000F000F000F000F          # lane // 10
    return y | (x - y * 10) << 8


_ZEROS = 0x3030303030303030  # eight ASCII '0'
# At X + 28, the bytes "e-05" .. "e-28" of each exponent X = -5 .. -28 that
# exponent form below 1e-4 writes; 0 for the others.
_EXPONENTS = np.array([0x2D65 | (0x3030 | k // 10 | k % 10 << 8) << 16 if k > 4 else 0
                       for k in range(28, -17, -1)], np.uint64)
# At X + 4, bytes 0-5 of the row for X = -4 .. -1: NUL, then "0.000" .. "0."; 0 at X = 0.
_PREFIXES = np.array([int.from_bytes(b"\0" + b"0." + b"0" * k, "little") for k in range(3, -1, -1)]
                     + [0], np.uint64)
# _BELOW[i, k]: the bytes of word i that come before byte k of the row.
_BELOW = np.array([[(1 << 8 * min(max(k - 8 * i, 0), 8)) - 1 for k in range(26)]
                   for i in range(3)], np.uint64)


def _g17_block(block: np.ndarray) -> str:
    """The CSV text of a 2-D block: each value as ``'%.17g' % value``, ',' between
    columns and a newline after each row.

    The float64 block is rendered without a Python call per value. Each value
    with 1e-28 < |x| < 1e17 (every double of at least 10**-28: the double
    nearest 1e-28 lies below it) gets its 17-digit significand from
    ``_significands``, which carries a significand that rounds to 10**17 into
    the next exponent, and its digits from ``_digits8``. Its text goes into
    fixed bytes of a 32-byte row of four uint64 words: the sign at byte 0,
    the ``0.`` .. ``0.000`` of 1e-4 <= |x| < 1 at bytes 1-5, the 17 digits at
    bytes 6-22, and the exponent ``e-05`` .. ``e-28`` below 1e-4 and the
    separator at bytes 24-28. A point is shifted in after the integer digits
    (after the first digit in exponent form) when a significant digit follows,
    trailing zeros past the integer digits are masked off, and one boolean
    selection of the block removes every NUL between the parts.
    Zeros, nan, inf and the magnitudes outside that range take one batched
    ``%`` format per block.
    """
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a > 1e-28) & (a < 1e17)
    N, X = _significands(np.where(fast, a, 1.0))
    first = N // 10 ** 16
    rest = N - first * 10 ** 16
    halves = np.empty((2, x.size), np.uint64)
    np.floor_divide(rest, 10 ** 8, out=halves[0])
    np.subtract(rest, halves[0] * 10 ** 8, out=halves[1])
    digits = _digits8(halves)
    # The highest nonzero byte of a word sets its float exponent: it counts
    # the significant digits of each half.
    kept = (np.frexp(digits.astype(np.float64))[1] + 7) >> 3
    d = 1 + np.where(halves[1] != 0, 8 + kept[1], kept[0])
    hi, lo = digits | _ZEROS
    # The first three words: sign and prefix at bytes 0-5, then the 17 digits.
    words = (np.signbit(x) * np.uint64(ord("-"))
             | _PREFIXES.take(np.where((X < 0) & (X >= -4), X + 4, 4))
             | (first + ord("0")) << 48 | hi << 56,
             hi >> 8 | lo << 56,
             lo >> 8)

    # The point goes before byte Q when a significant digit follows it; byte 24
    # moves nothing. The text before the exponent keeps its first L bytes.
    Q = np.where(X >= 0, X + 7, np.where(X < -4, 7, 24))
    Q = np.where(d > Q - 6, Q, 24)
    L = 6 + np.maximum(d, X + 1) + (Q < 24)
    buf = np.zeros((x.size, 4), np.uint64)
    carry = 0
    for i, u in enumerate(words):
        m = _BELOW[i].take(Q)
        moved = u & ~m
        w = u & m | (_BELOW[i].take(Q + 1) ^ m) & 0x2E2E2E2E2E2E2E2E | moved << 8 | carry
        buf[:, i] = w & _BELOW[i].take(L)
        carry = moved >> 56

    sep = np.full((rows, cols), ord(","), np.uint64)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    buf[:, 3] = np.where(X < -4, _EXPONENTS.take(X + 28) | sep << 32, sep)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24.17g" * slow.size % tuple(x[slow].tolist())).encode("ascii")
        chars = np.zeros((slow.size, 32), np.uint8)
        chars[:, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
        chars[chars == ord(" ")] = 0
        chars[:, 24] = sep[slow]
        buf[slow] = chars.view("<u8")
    # The rows' bytes in text order, on any host: byte k of a word is its bits 8k..8k+7.
    out = buf.astype("<u8", copy=False).view(np.uint8).ravel()
    return out[out != 0].tobytes().decode("ascii")


def _csv_rows(rows: Union[np.ndarray, Iterable[Sequence]]) -> Iterator[str]:
    """Rows of ``_fmt`` values one line at a time, or a float64 array
    ``_CSV_BLOCK`` rows at a time through ``_g17_block``.

    Either way each float is Python's ``'%.17g'`` of the double: 17
    significant digits, rounded half-even on the exact binary value, with
    trailing zeros and a bare ``.`` dropped. Fixed form is used for
    1e-4 <= |x| < 1e17 and exponent form otherwise, with at least two
    exponent digits; the special values are ``nan``, ``inf``, ``-inf`` and
    ``-0``. An array of any other dtype is written as ``_fmt`` writes its values.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            yield _g17_block(rows[start:start + _CSV_BLOCK])
    else:
        for row in rows:
            yield ",".join(_fmt(v) for v in row) + "\n"


def _csv(header: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence]]) -> Iterator[str]:
    """The text of a CSV data file: the schema line and header, then ``_csv_rows``."""
    return itertools.chain([f"# schema={SCHEMA_VERSION}\n{','.join(header)}\n"], _csv_rows(rows))


def _json(doc: dict) -> List[str]:
    """The text of a JSON document, with the schema field."""
    return [json.dumps({"schema": SCHEMA_VERSION, **doc}, indent=2, sort_keys=True) + "\n"]


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


def _solve_or_partial(args) -> Tuple[SpectralResult, int]:
    """Solve at the point and basis flags, or warn and fall back to the partial result, exit 3."""
    (result, failure), = _sweep([_params_from_args(args)], _basis_from_args(args))
    if failure is not None:
        print(f"warning: {failure}", file=sys.stderr)
    return result, 0 if failure is None else 3


def _solve_summary(result: SpectralResult) -> dict:
    """Manifest entries of one solve: its inputs, truncations and convergence."""
    return {"params": asdict(result.params), "basis": asdict(result.basis),
            "n_final": result.n_final, "truncations": [n for n, _ in result.trace],
            "converged": [bool(v) for v in result.converged]}


# What a ``_cmd_*`` handler returns: its exit code, the text of its data file
# and its own manifest entries.
_Output = Tuple[int, Iterable[str], dict]


def _check_rows(name: str, rows: int) -> None:
    if rows > MAX_ROWS:
        raise InvalidParam(name, f"asks for more than {MAX_ROWS} rows in one data file")


def _cmd_spectrum(args) -> _Output:
    result, exit_code = _solve_or_partial(args)
    pairing = _pairing(result)
    records = _level_records(result)
    if args.format == "json":
        for r in records:
            i = r.pop("level")
            # + 0.0 writes an exact zero as 0.0, whatever sign the solve left on it.
            r.update(index=i, coefficients={"c": (result.coeff_c[i] + 0.0).tolist(),
                                            "d": (result.coeff_d[i] + 0.0).tolist()})
        payload = _json({
            "params": asdict(result.params),
            "basis": asdict(result.basis),
            "n_final": result.n_final,
            "all_converged": result.all_converged,
            "levels": records,
            "rwa": _rwa_payload(pairing),
        })
    else:
        rows = [(*r.values(), *_rwa_columns(p)) for r, p in zip(records, pairing)]
        payload = _csv((*records[0], *_RWA_COLUMNS), rows)
    return exit_code, payload, _solve_summary(result)


def _cmd_compare_rwa(args) -> _Output:
    result, exit_code = _solve_or_partial(args)
    pairing = _pairing(result)
    if args.format == "json":
        payload = _json({"params": asdict(result.params), "rwa": _rwa_payload(pairing)})
    else:
        payload = _csv(_PAIRING_HEADER, [astuple(p) for p in pairing])
    return exit_code, payload, _solve_summary(result)


_SWEEP_HEADER = ("param", "level", "energy", "parity", *_RWA_COLUMNS)


def _cmd_sweep(args) -> _Output:
    if args.preset:
        for name, value in _PRESETS[args.preset].items():
            if getattr(args, name) is not None:
                raise InvalidParam(name, f"is set by --preset {args.preset}")
            setattr(args, name, value)
    if args.param is None or args.start is None or args.stop is None or args.steps is None:
        raise InvalidParam("param", "sweep needs --param/--from/--to/--steps or --preset")
    if getattr(args, args.param) is not None:
        raise InvalidParam(args.param, "is the swept parameter; it takes no fixed value")
    for name in ("start", "stop"):
        _check_finite(name, getattr(args, name))
    if not _is_finite_number(args.stop - args.start):
        raise InvalidParam("stop", "stop - start must be finite")
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
    for result, failure in _sweep(grid, basis):
        value = getattr(result.params, args.param)
        if failure is not None:
            failures.append({"value": value, "error": str(failure)})
        pairing = _pairing(result) if with_rwa else [None] * result.levels
        for r, p in zip(_level_records(result), pairing):
            parity = r["parity"] if r["converged"] else None
            rows.append((value, r["level"], r["energy"], parity, *_rwa_columns(p)))
    if failures:
        print(f"warning: {len(failures)} sweep point(s) did not converge", file=sys.stderr)
    return (3 if failures else 0), _csv(_SWEEP_HEADER, rows), {
        "basis": asdict(basis), "failed_points": failures,
        "sweep": {"param": args.param, "from": args.start, "to": args.stop, "steps": args.steps,
                  "fixed": fixed}}


def _cmd_converge(args) -> _Output:
    params = _params_from_args(args)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParam("n_list", str(exc)) from exc
    # truncation_table rejects the list and the level count before any solve.
    rows = truncation_table(params, n_list, args.levels)
    reach = _reach(params, args.levels)
    below = [n for n in n_list if n < reach]
    if below:
        print(f"warning: truncation(s) {', '.join(map(str, below))} lie below (eta + "
              f"sqrt(levels))^2 = {reach:.6g}, where tails and drifts cannot show "
              "the missing states", file=sys.stderr)
    return 0, _csv(tuple(rows[0]), [r.values() for r in rows]), {
        "params": asdict(params), "n_list": n_list, "levels": args.levels, "below_reach": below}


def _real_amps(state) -> dict:
    """The real parts of a state's amplitudes, listed by spin level."""
    return {"e": state.amps[:, 0].real.tolist(),
            "g": state.amps[:, 1].real.tolist()}


def _cmd_cat(args) -> _Output:
    result, exit_code = _solve_or_partial(args)
    ground = _initial_state("ground", result).fixed_phase()
    had = hadamard_on_spin(ground).fixed_phase()
    cat = _initial_state("cat", result).fixed_phase()
    payload = _json({
        "params": asdict(result.params),
        "n": result.n_final,
        "fidelity": fidelity(had, cat),
        "hadamard_ground_norm": float(np.linalg.norm(had.amps)),
        "ideal_cat_norm": float(np.linalg.norm(cat.amps)),
        "hadamard_ground": _real_amps(had),
        "ideal_cat": _real_amps(cat),
    })
    return exit_code, payload, _solve_summary(result)


def _initial_state(spec: str, result: SpectralResult):
    params = result.params
    if spec == "ground":
        return eigvec_to_bare(result.coeff_c[0], result.coeff_d[0], params.g)
    if spec == "cat":
        return ideal_cat_state(params.g, result.n_final)
    if spec.startswith("fock:"):
        try:
            k_str, spin = spec[len("fock:"):].split(",")
            k = int(k_str)
        except ValueError as exc:
            raise InvalidParam("initial", f"cannot parse '{spec}'") from exc
        if k > result.n_final:
            raise InvalidParam("initial", f"Fock index {k} exceeds the solver truncation "
                                          f"n_final = {result.n_final}")
        try:
            return basis_state(k, spin.strip(), result.n_final)
        except InvalidParam as exc:
            raise InvalidParam("initial", f"'{spec}': {exc}") from exc
    raise InvalidParam("initial", f"unknown initial state '{spec}'")


def _cmd_evolve(args) -> _Output:
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
    return 0, _csv(("t", "norm", "energy", "sigma_z", "sigma_x", "n"), table), {
        **_solve_summary(result), "initial": args.initial, "t_max": args.t_max, "dt": args.dt}


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every token ``float()`` accepts as a value.
    argparse's own test for a negative number has no exponent on some Python
    versions, so it would take ``--delta -1e-3`` for a flag without its value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged, and
    each ``parse_args`` call fills a new namespace."""
    parser = _Parser(
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
    sw.add_argument("--preset", choices=sorted(_PRESETS),
                    help="a paper figure: sets --param/--from/--to/--steps and the fixed "
                         "point, none of which may be given with it")
    sw.add_argument("--out", default="sweep.csv")
    sw.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("converge", help="energies, tails, drifts over explicit truncations")
    _add_point_flags(cv)
    cv.add_argument("--n-list", required=True, help="comma-separated truncations, e.g. 20,40,60")
    cv.add_argument("--levels", type=int, default=BasisSpec().levels_requested)
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
    args = _build_parser().parse_args(argv)
    command = shlex.join(sys.argv[1:] if argv is None else argv)
    try:
        exit_code, payload, entries = args.func(args)
        digest = _write_text(args.out, payload)
        manifest = args.out + ".manifest.json"
        try:
            _write_text(manifest, _json({
                "tool": "rabi-spectra",
                "version": __version__,
                "command": command,
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "outputs": {os.path.basename(args.out): digest},
                **entries,
            }))
        except BaseException:
            # A data file without its manifest is not a result, and an earlier run's
            # manifest would name a data file that is gone.
            os.remove(args.out)
            if os.path.exists(manifest):
                os.remove(manifest)
            raise
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
