"""Benchmark of rabi-spectra: closed-loop workloads checked against a bare-basis oracle.

Run from the repository root:

    python3 bench/run.py --workload fig2_resonant --seed 0 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it lives in and exits
with code 2, printing no result, when that is missing. One run measures in
WORKERS fresh worker processes, one after another, so that the speed one
process happens to get (memory layout, hash seed) averages out, and measures
set-up in fresh processes before, between and after them. Each worker runs one
untimed warm-up operation, then timed passes of the workload until its share of
``--seconds`` of pass time is used. A fixed reference kernel is timed at every
pass boundary, so throughput can be given in units of host speed. Every pass is checked after it
ends, outside the timed region. Peak memory comes from a separate process that
runs one pass unchecked, so the oracle's matrices do not count. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates plain and traced
passes and reports the per-layer metrics. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the environment, goes to ``.bench_out/``
(and the spans of a traced run beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
from workloads import LEVELS, WHY, Workload, make_workload  # noqa: E402

THREADS_ENV = "RABI_SPECTRA_THREADS"
SETUP_REPS = 6          # fresh processes per run; set-up reports their median
WORKERS = 2             # fresh processes that share the timed passes of a run
MIN_PASSES = 1          # timed passes (pairs of passes when traced) per worker
ENERGY_TOL = 1e-8       # solved energies against the bare-basis oracle
PARITY_TOL = 1e-8       # |parity| against 1 at zero detuning
CONSERVATION_TOL = 1e-10  # norm and energy along a propagation
ORACLE_AGREE = 1e-11    # two bare truncations must agree this well (relative)
REF_LOOPS = 170_000     # pure-Python float loop of the reference kernel
REF_EIGS = 2            # eigvalsh calls on a fixed 300 x 300 matrix in the reference kernel
REF_REPEATS = 3         # kernels per host-speed sample; the fastest one counts
REF_PER_REF_S = 36      # reference kernels in one ref_s

# The end-to-end metrics of BENCHMARK.json, which every workload reports.
E2E_UNITS = {"setup_s": "s", "points_per_ref_s": "1/ref_s", "peak_rss_mb": "MB"}
# Printed and saved, but not in BENCHMARK.json. The host's speed changes over
# seconds to minutes, so every raw time moves with it; bench/README.md gives
# the spreads measured over 10 runs.
# dynamics has fewer than 20 solves per run, so no solve_ms_tail percentile;
# steps_per_s exists only for dynamics; failed_frac is 0 on correct code and
# is the result line's failed/attempted.
EXTRA_UNITS = {"wall_s": "s", "points_per_s": "1/s", "solve_ms_p50": "ms",
               "solve_ms_tail": "ms", "steps_per_s": "1/s", "failed_frac": "ratio"}


def import_package():
    """Import rabi_spectra from this checkout's src/, never from anywhere else."""
    package = SRC / "rabi_spectra"
    if not (package / "__init__.py").is_file():
        print(f"bench: no package sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rabi_spectra
    if Path(rabi_spectra.__file__).resolve().parent != package:
        print(f"bench: imported rabi_spectra from {rabi_spectra.__file__}", file=sys.stderr)
        sys.exit(2)
    import rabi_spectra.cli  # noqa: F401  (the package init does not import it)
    return rabi_spectra


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Thread count of the OpenBLAS library loaded into this process, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cpu": cpu,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


# ---------------------------------------------------------------- oracle

class Oracle:
    """Lowest levels by dense eigvalsh of the bare-basis Hamiltonian.

    The bare truncation grows until two successive truncations agree, so the
    reference is converged independently of the displaced-basis solver.
    """

    def __init__(self, rabi, path):
        self._rabi = rabi
        self._path = path  # shared by the workers of a run, so each point is solved once
        self._cache = {}
        if path.is_file():
            self._cache = {tuple(point): levels for point, levels in json.loads(path.read_text())}
        self.dim_max = 0  # largest bare matrix dimension diagonalised by this process

    def save(self):
        self._path.write_text(json.dumps([[list(point), [float(e) for e in levels]]
                                          for point, levels in self._cache.items()]))

    def levels(self, omega, eta, delta):
        key = (omega, eta, delta)
        if key not in self._cache:
            import numpy as np
            from rabi_spectra.hamiltonian import build_bare_rabi_hamiltonian
            params = self._rabi.ModelParams(omega=omega, eta=eta, delta=delta)
            n = 40 + math.ceil(4.0 * params.g ** 2)
            prev = np.linalg.eigvalsh(build_bare_rabi_hamiltonian(params, n))[:LEVELS]
            while True:
                n += 40
                matrix = build_bare_rabi_hamiltonian(params, n)
                self.dim_max = max(self.dim_max, matrix.shape[0])
                cur = np.linalg.eigvalsh(matrix)[:LEVELS]
                if np.max(np.abs(cur - prev)) <= ORACLE_AGREE * (1.0 + np.max(np.abs(cur))):
                    break
                prev = cur
            self._cache[key] = cur
        return self._cache[key]

    def mismatch(self, point, energies):
        """Largest energy error, or inf when the level count is wrong."""
        ref = self.levels(*point)
        if len(energies) != len(ref):
            return math.inf
        return max(abs(a - b) for a, b in zip(energies, ref))


# ---------------------------------------------------------------- passes

def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def run_pass(workload, rabi):
    """Run every operation once, in order; return (wall seconds, per-op outcome)."""
    outcomes = []
    start = time.perf_counter()
    for op in workload.ops:
        if op[0] == "cli":
            try:
                outcomes.append(rabi.cli.main(list(op[1])))
            except SystemExit as exc:  # argparse rejected the flags
                outcomes.append(exc.code)
        else:
            try:
                rabi.solver.solve_spectrum(rabi.ModelParams(*op[1]))
                outcomes.append(0)
            except rabi.RabiSpectraError as exc:
                outcomes.append(repr(exc))
    return time.perf_counter() - start, outcomes


class Tally:
    """Attempted and failed operations of a run, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ok, reason):
        ok = bool(ok)  # checks may yield numpy booleans
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def check_pass(workload, outcomes, solves, oracle, tally):
    """Check one pass's outputs; return (certified points, time steps, bytes written)."""
    certified = steps = written = 0
    for index, (op, outcome) in enumerate(zip(workload.ops, outcomes)):
        if op[0] == "solve":
            info = solves[index][1] if index < len(solves) else None
            ok = (outcome == 0 and info is not None and info["converged"]
                  and oracle.mismatch(op[1], info["energies"]) <= ENERGY_TOL)
            certified += tally.add(ok, f"solve {op[1]}: {outcome}")
            continue
        argv, out = op[1], op[2]
        flags = _flags(argv)
        if outcome == 0:
            written += os.path.getsize(out) + os.path.getsize(out + ".manifest.json")
        if argv[0] == "sweep":
            certified += _check_sweep(flags, outcome, out, oracle, tally)
        else:
            ok, rows = _check_evolve(flags, outcome, out, solves, index, oracle)
            certified += tally.add(ok, f"evolve {flags['initial']}: exit {outcome}")
            steps += rows
    return certified, steps, written


def _check_sweep(flags, outcome, out, oracle, tally):
    count = int(flags["steps"])
    if outcome != 0:
        for _ in range(count):
            tally.add(False, f"sweep exit {outcome}")
        return 0
    header, rows = _read_csv(out)
    col = {name: header.index(name) for name in ("param", "level", "energy", "parity")}
    points = {}
    for row in rows:
        points.setdefault(row[col["param"]], []).append(row)
    certified = 0
    for value_text, point_rows in sorted(points.items(), key=lambda kv: float(kv[0])):
        fixed = {name: float(flags[name]) for name in ("omega", "eta", "delta")
                 if name in flags}
        fixed[flags["param"]] = float(value_text)
        point = (fixed["omega"], fixed["eta"], fixed["delta"])
        energies = [float(r[col["energy"]]) for r in point_rows]
        ok = oracle.mismatch(point, energies) <= ENERGY_TOL
        if fixed["delta"] == 0.0:
            ok = ok and all(r[col["parity"]] != ""
                            and abs(abs(float(r[col["parity"]])) - 1.0) <= PARITY_TOL
                            for r in point_rows)
        certified += tally.add(ok, f"sweep point {point}")
    for _ in range(count - len(points)):
        tally.add(False, "sweep point missing from output")
    return certified


def _check_evolve(flags, outcome, out, solves, index, oracle):
    if outcome != 0 or index >= len(solves) or solves[index][1] is None:
        return False, 0
    point = (float(flags["omega"]), float(flags["eta"]), float(flags["delta"]))
    if oracle.mismatch(point, solves[index][1]["energies"]) > ENERGY_TOL:
        return False, 0
    header, rows = _read_csv(out)
    norms = [float(r[header.index("norm")]) for r in rows]
    energies = [float(r[header.index("energy")]) for r in rows]
    expected = int(round(float(flags["t-max"]) / float(flags["dt"]))) + 1
    ok = (len(rows) == expected
          and max(abs(v - 1.0) for v in norms) <= CONSERVATION_TOL
          and max(abs(v - energies[0]) for v in energies) <= CONSERVATION_TOL)
    return ok, len(rows)


# ---------------------------------------------------------------- set-up

def _probe_op(workload):
    """The workload's first operation; a sweep is cut to its first grid point."""
    op = workload.ops[0]
    if op[0] == "cli" and op[1][0] == "sweep":
        argv = list(op[1])
        argv[argv.index("--to") + 1] = argv[argv.index("--from") + 1]
        argv[argv.index("--steps") + 1] = "1"
        return ("cli", argv, op[2])
    return op


def probe(args):
    """Child-process body of a set-up sample: cold import plus the first operation."""
    rabi = import_package()
    workload = make_workload(args.workload, args.seed, args.probe_dir, args.smoke)
    _, outcomes = run_pass(Workload(workload.name, (_probe_op(workload),)), rabi)
    return 0 if outcomes == [0] else 1


def rss_probe(args):
    """Child-process body of the memory sample: one unchecked pass; prints peak RSS in MB."""
    rabi = import_package()
    workload = make_workload(args.workload, args.seed, args.probe_dir, args.smoke)
    _, outcomes = run_pass(workload, rabi)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0 if all(outcome == 0 for outcome in outcomes) else 1


def _child(args, env, tmp, mode, tag, extra=()):
    """Run this script in ``mode`` in a fresh process; return (seconds, stdout)."""
    probe_dir = tmp / tag
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-dir", str(probe_dir), *extra] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed, proc.stdout


def measure_setup(args, env, tmp, group):
    """One of WORKERS + 1 groups of set-up samples, taken before, between and
    after the workers, so that one slow spell of the host cannot reach them all."""
    reps = 1 if args.smoke else SETUP_REPS // (WORKERS + 1)
    return [_child(args, env, tmp, "--probe", f"probe-{group}-{rep}")[0]
            for rep in range(reps)]


def reference_s(matrix):
    """Host speed: time of a fixed reference kernel, scaled to one ref_s.

    Half of the kernel is a pure-Python float loop, the other half dense
    eigvalsh with BLAS at its default threads, so it slows with the clock and
    also when the second core is taken from multi-threaded BLAS. It calls no
    package code. The fastest of REF_REPEATS kernels counts: a stall of the
    host shorter than a kernel then does not count, but a slower clock, which
    lasts seconds, slows all of them.
    """
    import numpy as np
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            acc += i * 0.5
        for _ in range(REF_EIGS):
            np.linalg.eigvalsh(matrix)
        times.append(time.perf_counter() - start)
    return min(times) * REF_PER_REF_S


# ---------------------------------------------------------------- measurement

def tail(samples):
    """Value with ten samples above it, and its percentile's name.

    With fewer than 20 samples that value would sit below the median, so the
    maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def measured_passes(args, workload, rabi, oracle, tally, layered):
    """Timed passes until --seconds of pass time is used; each is checked afterwards.

    Returns a list of per-pass records. With ``layered`` the passes come in
    pairs, one plain and one traced, in alternating order. Each record's
    ``ref_s`` is the mean of the reference kernel timed just before and just
    after its pass.
    """
    import numpy as np
    records = []
    used = 0.0
    pattern = (False,)
    ref_matrix = np.random.default_rng(0).standard_normal((300, 300))
    ref_matrix = ref_matrix + ref_matrix.T
    ref_before = reference_s(ref_matrix)
    while True:
        if layered:
            pattern = (False, True) if len(records) % 4 == 0 else (True, False)
        for traced in pattern:
            gc.collect()
            recorder = tracer.Recorder(layers=traced)
            with recorder:
                wall, outcomes = run_pass(workload, rabi)
            ref_after = reference_s(ref_matrix)
            solves = recorder.solves()
            certified, steps, written = check_pass(workload, outcomes, solves, oracle, tally)
            records.append({"traced": traced, "wall": wall, "certified": certified,
                            "steps": steps, "written": written, "recorder": recorder,
                            "ref_s": 0.5 * (ref_before + ref_after),
                            "solve_ms": [d * 1e3 for d, _ in solves]})
            used += wall
            ref_before = reference_s(ref_matrix)
        rounds = len(records) // len(pattern)
        per_round = used / rounds
        # Stop at the round boundary nearest to --seconds, so that long passes
        # (dynamics, about 4 s) do not leave up to a whole pass unmeasured.
        if rounds >= MIN_PASSES and used + per_round / 2 > args.seconds:
            return records


def worker(args):
    """Child-process body of one share of a run: warm-up, timed and checked passes.

    Writes its pass records, failures and oracle size to ``records.json`` in
    its probe directory.
    """
    rabi = import_package()
    probe_dir = Path(args.probe_dir)
    workload = make_workload(args.workload, args.seed, str(probe_dir), args.smoke)
    oracle = Oracle(rabi, probe_dir.parent / "oracle.json")
    tally = Tally()
    warmup = Workload(workload.name, (_probe_op(workload),))
    with tracer.Recorder(layers=False) as warm:
        _, outcomes = run_pass(warmup, rabi)  # untimed, still checked
    check_pass(warmup, outcomes, warm.solves(), oracle, tally)
    records = measured_passes(args, workload, rabi, oracle, tally, bool(args.trace))
    oracle.save()
    for record in records:
        recorder = record.pop("recorder")
        if record["traced"]:
            record["layers"] = tracer.layer_metrics(recorder.spans, recorder.counts,
                                                    record["written"])
            record["spans"] = recorder.spans
    (probe_dir / "records.json").write_text(json.dumps(
        {"records": records, "attempted": tally.attempted, "failed": tally.failed,
         "reasons": tally.reasons, "oracle_dim_max": oracle.dim_max}))
    return 0


def end_to_end(records, setup, rss_mb):
    walls = [r["wall"] for r in records]
    samples = [ms for r in records for ms in r["solve_ms"]]
    if not samples:
        raise RuntimeError("no solve_spectrum call was seen; the solve timer is not attached")
    tail_ms, tail_name = tail(samples)
    total = sum(walls)
    certified = sum(r["certified"] for r in records)
    steps = sum(r["steps"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        # Median over passes, each pass's time counted in ref_s of the host
        # speed measured around it; a median, so that a pass the host stalled
        # does not move it.
        "points_per_ref_s": statistics.median(r["certified"] * r["ref_s"] / r["wall"]
                                              for r in records),
        "points_per_s": certified / total,
        "solve_ms_p50": statistics.median(samples),
        "solve_ms_tail": tail_ms,
        "peak_rss_mb": rss_mb,
        "steps_per_s": steps / total if steps else None,
    }
    detail = {"passes": len(walls), "walls_s": walls,
              "ref_s": [r["ref_s"] for r in records], "setup_samples_s": setup,
              "solve_samples": len(samples), "solve_ms_tail_percentile": tail_name}
    return metrics, detail


def per_layer(records):
    traced = [r for r in records if r["traced"]]
    per_pass = [r["layers"] for r in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    # Each round runs one plain and one traced pass back to back. Comparing
    # within a round, with each pass timed in ref_s of the host speed measured
    # around it, cancels the host's speed changes.
    rounds = [sorted(pair, key=lambda r: r["traced"])
              for pair in zip(records[0::2], records[1::2])]
    metrics["trace.overhead_frac"] = statistics.median(
        (traced["wall"] / traced["ref_s"]) / (plain["wall"] / plain["ref_s"])
        for plain, traced in rounds) - 1.0
    spans = [r["spans"] for r in traced]
    return metrics, spans


def _print_metrics(metrics, units, notes):
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown} {units[name]}{notes.get(name, '')}")


def bench(args):
    import_package()  # exits when this checkout has no package sources
    env_info = environment()
    child_env = dict(os.environ)
    child_env.pop(THREADS_ENV, None)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        setup = []
        rss_mb = (None if args.trace else
                  float(_child(args, child_env, tmp, "--rss", "rss")[1].split()[-1]))
        records, tally, oracle_dim_max = [], Tally(), 0
        share = ["--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace)]
        for k in range(WORKERS):
            if not args.trace:
                setup += measure_setup(args, child_env, tmp, k)
            _child(args, child_env, tmp, "--worker", f"worker-{k}", share)
            part = json.loads((tmp / f"worker-{k}" / "records.json").read_text())
            records += part["records"]
            tally.attempted += part["attempted"]
            tally.failed += part["failed"]
            tally.reasons = (tally.reasons + part["reasons"])[:20]
            oracle_dim_max = max(oracle_dim_max, part["oracle_dim_max"])
        if not args.trace:
            setup += measure_setup(args, child_env, tmp, WORKERS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    print(f"environment: {json.dumps(env_info)}")
    if args.trace:
        metrics, spans = per_layer(records)
        units = tracer.LAYER_UNITS
        report = metrics
        notes = {}
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "point", "info"],
                       "passes": spans}, fh)
        detail = {"traced_passes": len(spans),
                  "plain_walls_s": [r["wall"] for r in records if not r["traced"]],
                  "traced_walls_s": [r["wall"] for r in records if r["traced"]]}
    else:
        report, detail = end_to_end(records, setup, rss_mb)
        report["failed_frac"] = tally.failed / tally.attempted
        metrics = {name: report[name] for name in E2E_UNITS}
        units = {**E2E_UNITS, **EXTRA_UNITS}
        notes = {"setup_s": f"  (median of {len(setup)} fresh processes)",
                 "peak_rss_mb": "  (fresh process, one unchecked pass)",
                 "wall_s": f"  (median of {detail['passes']} warm passes)",
                 "solve_ms_p50": f"  (of {detail['solve_samples']} solves)",
                 "solve_ms_tail": f"  ({detail['solve_ms_tail_percentile']}"
                                  f" of {detail['solve_samples']} solves)",
                 "failed_frac": f"  ({tally.failed} of {tally.attempted})"}
    detail["oracle_dim_max"] = oracle_dim_max
    _print_metrics(report, units, notes)
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    correct = tally.failed == 0
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "why": WHY[args.workload], "environment": env_info, "correct": correct,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.reasons, "detail": detail,
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.items()}},
                  fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="pass time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads for the self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop(THREADS_ENV, None)
    if args.probe:
        return probe(args)
    if args.rss:
        return rss_probe(args)
    if args.worker:
        return worker(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
