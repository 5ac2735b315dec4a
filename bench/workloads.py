"""The four benchmark workloads, drawn from a seed.

A workload is a list of operations that one caller runs in order, each after
the previous one returned (a closed loop with one client). An operation is
either a CLI invocation, ``("cli", argv, out_path)``, or a library solve,
``("solve", (omega, eta, delta))``. The program sees only these generated
flags and parameters. Seed 0 gives the unshifted grids, which for the two
sweeps are exactly the ``fig2`` and ``fig3a`` presets.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Tuple

LEVELS = 10  # levels every solve certifies (BasisSpec default)

WHY = {
    "fig2_resonant": "eta sweep at delta = 0: every point takes the parity path "
                     "(two complex displacement_matrix builds), plus RWA pairing and CSV I/O",
    "fig3a_detuned": "delta sweep at eta = 0.2: small truncations, no basis change except "
                     "one delta = 0 point; a parity optimisation predicts no change here",
    "strong_coupling": "library solves at eta in [4, 10]: 3 to 10 nested truncations up to "
                       "n = 220, so overlap tables and eigh dominate; eta stops at 10 because "
                       "the solver reports false convergence above it",
    "dynamics": "CLI evolve with 10001 time steps for three initial states: the per-step "
                "propagation loop, which no other workload touches",
}


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[tuple, ...]


def _num(value: float) -> str:
    return repr(float(value))


def _sweep(param, start, stop, steps, fixed, out):
    argv = ["sweep", "--param", param, "--from", _num(start), "--to", _num(stop),
            "--steps", str(steps)]
    for name, value in fixed.items():
        argv += [f"--{name}", _num(value)]
    return ("cli", argv + ["--out", out], out)


def make_workload(name: str, seed: int, out_dir: str, smoke: bool = False) -> Workload:
    """Operations of one pass of workload ``name`` for ``seed``; ``smoke`` shrinks them."""
    rng = random.Random(f"{name}:{seed}")
    ops: List[tuple] = []
    if name == "fig2_resonant":
        steps = 6 if smoke else 101
        shift = 0.0 if seed == 0 else rng.uniform(0.0, 0.01)
        ops.append(_sweep("eta", shift, 1.0 + shift, steps, {"omega": 1.0, "delta": 0.0},
                          os.path.join(out_dir, "fig2.csv")))
    elif name == "fig3a_detuned":
        steps = 5 if smoke else 161
        half = 2.0 if seed == 0 else 2.0 + rng.uniform(0.0, 0.025)
        ops.append(_sweep("delta", -half, half, steps, {"omega": 2.0, "eta": 0.2},
                          os.path.join(out_dir, "fig3a.csv")))
    elif name == "strong_coupling":
        count = 3 if smoke else 32
        # One draw per stratum of eta and of delta keeps the work of a pass
        # nearly the same for every seed. The visiting order of the eta strata
        # and the omega of each stratum are fixed, so only the draws vary.
        etas = [4.0 + 6.0 * (i + rng.random()) / count for i in range(count)]
        deltas = [0.25 + 0.75 * (i + rng.random()) / count for i in range(count)]
        rng.shuffle(deltas)
        for i in range(count):
            stratum = (13 * i) % count
            ops.append(("solve", (1.0 + stratum % 2, etas[stratum], deltas[i])))
    elif name == "dynamics":
        omega = 1.0 if seed == 0 else rng.uniform(0.95, 1.05)
        eta = 0.2 if seed == 0 else rng.uniform(0.18, 0.22)
        t_max = "1" if smoke else "100"
        for initial in ("cat", "ground", "fock:0,g"):
            out = os.path.join(out_dir, f"evolve-{initial.replace(':', '').replace(',', '')}.csv")
            ops.append(("cli", ["evolve", "--omega", _num(omega), "--eta", _num(eta),
                                "--delta", "0.0", "--t-max", t_max, "--dt", "0.01",
                                "--initial", initial, "--out", out], out))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, tuple(ops))
