"""Spans around the public functions of rabi_spectra, recorded from outside the package.

Each wrapped function is replaced at the module attribute its caller resolves
at call time, so no file of the package changes. A span is the list
``[name, start, end, parent, point, info]``: ``parent`` is the index of the
enclosing span (or None), ``point`` is shared by every span of one solved
parameter point (a new one opens at each ``solve_spectrum`` call and at each
top-level call), and ``info`` holds counts computed from the array sizes the
call returned. Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Flops of a dense symmetric eigendecomposition with eigenvectors
# (Householder tridiagonalisation, implicit QR, back-transformation):
# about 9 n^3 (Golub & Van Loan, Matrix Computations, section 8.3).
EIGH_FLOPS_PER_DIM3 = 9.0


def _solve_info(args, result):
    return {"n_final": int(result.n_final), "truncations": len(result.trace),
            "converged": bool(result.all_converged),
            "energies": [float(e) for e in result.energies]}


def _table_info(args, result):
    table = getattr(result, "values", result)
    return {"entries": int(table.size), "bytes": int(table.nbytes)}


def _eigh_info(args, result):
    dim = int(np.shape(args[0])[0])
    return {"dim": dim, "gflop": EIGH_FLOPS_PER_DIM3 * dim ** 3 / 1e9}


def _steps_info(args, result):
    return {"steps": int(len(result))}


# (module, attribute, span name, info from (args, result), opens a new point)
SOLVE_PATCHES = (
    ("rabi_spectra.cli", "solve_spectrum", "solver.solve_spectrum", _solve_info, True),
    ("rabi_spectra.solver", "solve_spectrum", "solver.solve_spectrum", _solve_info, True),
)
LAYER_PATCHES = (
    ("rabi_spectra.cli", "main", "cli.main", None, False),
    ("rabi_spectra.cli", "rwa_spectrum", "hamiltonian.rwa_spectrum", None, False),
    ("rabi_spectra.cli", "classify_levels", "solver.classify_levels", None, False),
    ("rabi_spectra.cli", "propagate_observables", "states.propagate_observables",
     _steps_info, False),
    ("rabi_spectra.cli", "eigvec_to_bare", "states.eigvec_to_bare", None, False),
    ("rabi_spectra.cli", "ideal_cat_state", "states.ideal_cat_state", None, False),
    ("rabi_spectra.solver", "build_displaced_hamiltonian",
     "hamiltonian.build_displaced_hamiltonian", None, False),
    ("rabi_spectra.solver", "eigh_symmetric", "solver.eigh_symmetric", _eigh_info, False),
    ("rabi_spectra.hamiltonian", "overlap_matrix", "overlap.overlap_matrix", _table_info, False),
    # _bulk_parities imports displacement_matrix from the overlap module at call time.
    ("rabi_spectra.overlap", "displacement_matrix", "overlap.displacement_matrix",
     _table_info, False),
    ("rabi_spectra.states", "displacement_matrix", "overlap.displacement_matrix",
     _table_info, False),
    ("rabi_spectra.states", "build_bare_rabi_hamiltonian",
     "hamiltonian.build_bare_rabi_hamiltonian", None, False),
)
# Called once per vector entry, so counted without a span.
COUNT_PATCHES = (
    ("rabi_spectra.states", "displacement_element", "overlap.displacement_element"),
)


class Recorder:
    """Installs span wrappers for one measured pass and restores the originals after it."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._points = 0
        self._undo: list = []

    def __enter__(self):
        patches = SOLVE_PATCHES + (LAYER_PATCHES if self.layers else ())
        for module_name, attr, name, info, new_point in patches:
            self._patch(module_name, attr, lambda fn, n=name, i=info, p=new_point:
                        self._span_wrapper(n, fn, i, p))
        if self.layers:
            for module_name, attr, name in COUNT_PATCHES:
                self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        return False

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            print(f"bench: {module_name}.{attr} not found; its layer reads 0", file=sys.stderr)
            return
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_wrapper(self, name, fn, info, new_point):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if new_point or parent is None:
                point = self._points
                self._points += 1
            else:
                point = spans[parent][4]
            span = [name, 0.0, 0.0, parent, point, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def solves(self):
        """(duration in s, info or None) of every solve_spectrum call, in call order."""
        return [(s[2] - s[1], s[5]) for s in self.spans if s[0] == "solver.solve_spectrum"]


def child_time(spans):
    """Per span, the time covered by its direct children (calls never overlap here)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return covered


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "overlap.overlap_matrix.ms": "ms",
    "overlap.overlap_matrix.calls": "count",
    "overlap.overlap_matrix.entries": "count",
    "overlap.overlap_matrix.bytes_computed": "B",
    "overlap.displacement_matrix.ms": "ms",
    "overlap.displacement_matrix.calls": "count",
    "overlap.displacement_matrix.entries": "count",
    "overlap.displacement_matrix.bytes_computed": "B",
    "overlap.useful_entry_frac": "ratio",
    "overlap.displacement_element.calls": "count",
    "hamiltonian.build_displaced_hamiltonian.self_ms": "ms",
    "hamiltonian.build_displaced_hamiltonian.calls": "count",
    "hamiltonian.build_bare_rabi_hamiltonian.ms": "ms",
    "hamiltonian.rwa_spectrum.ms": "ms",
    "solver.eigh_symmetric.ms": "ms",
    "solver.eigh_symmetric.calls": "count",
    "solver.eigh_symmetric.dim_max": "count",
    "solver.eigh_symmetric.gflop_computed": "GFLOP",
    "solver.solve_spectrum.self_ms": "ms",
    "solver.solve_spectrum.calls": "count",
    "solver.truncations_per_solve": "count",
    "solver.n_final_mean": "count",
    "solver.classify_levels.ms": "ms",
    "states.propagate_observables.ms": "ms",
    "states.propagate_observables.steps": "count",
    "states.eigvec_to_bare.ms": "ms",
    "states.ideal_cat_state.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans, counts, bytes_written):
    """Per-layer totals of one traced pass; ``trace.overhead_frac`` is filled in by the caller."""
    covered = child_time(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    sums = defaultdict(float)
    dim_max = 0
    for span, inner in zip(spans, covered):
        name, duration = span[0], span[2] - span[1]
        total[name] += duration * 1e3
        own[name] += (duration - inner) * 1e3
        calls[name] += 1
        for key, value in (span[5] or {}).items():
            if key == "dim":
                dim_max = max(dim_max, value)
            elif isinstance(value, (int, float)):
                sums[name, key] += value
    solves = calls["solver.solve_spectrum"]
    n_final = sums["solver.solve_spectrum", "n_final"]
    useful = sum((s[5]["n_final"] + 1) ** 2 for s in spans
                 if s[0] == "solver.solve_spectrum" and s[5] is not None)
    entries = sums["overlap.overlap_matrix", "entries"]
    return {
        "overlap.overlap_matrix.ms": total["overlap.overlap_matrix"],
        "overlap.overlap_matrix.calls": calls["overlap.overlap_matrix"],
        "overlap.overlap_matrix.entries": entries,
        "overlap.overlap_matrix.bytes_computed": sums["overlap.overlap_matrix", "bytes"],
        "overlap.displacement_matrix.ms": total["overlap.displacement_matrix"],
        "overlap.displacement_matrix.calls": calls["overlap.displacement_matrix"],
        "overlap.displacement_matrix.entries": sums["overlap.displacement_matrix", "entries"],
        "overlap.displacement_matrix.bytes_computed":
            sums["overlap.displacement_matrix", "bytes"],
        "overlap.useful_entry_frac": useful / entries if entries else 0.0,
        "overlap.displacement_element.calls": counts["overlap.displacement_element"],
        "hamiltonian.build_displaced_hamiltonian.self_ms":
            own["hamiltonian.build_displaced_hamiltonian"],
        "hamiltonian.build_displaced_hamiltonian.calls":
            calls["hamiltonian.build_displaced_hamiltonian"],
        "hamiltonian.build_bare_rabi_hamiltonian.ms":
            total["hamiltonian.build_bare_rabi_hamiltonian"],
        "hamiltonian.rwa_spectrum.ms": total["hamiltonian.rwa_spectrum"],
        "solver.eigh_symmetric.ms": total["solver.eigh_symmetric"],
        "solver.eigh_symmetric.calls": calls["solver.eigh_symmetric"],
        "solver.eigh_symmetric.dim_max": dim_max,
        "solver.eigh_symmetric.gflop_computed": sums["solver.eigh_symmetric", "gflop"],
        "solver.solve_spectrum.self_ms": own["solver.solve_spectrum"],
        "solver.solve_spectrum.calls": solves,
        "solver.truncations_per_solve":
            sums["solver.solve_spectrum", "truncations"] / solves if solves else 0.0,
        "solver.n_final_mean": n_final / solves if solves else 0.0,
        "solver.classify_levels.ms": total["solver.classify_levels"],
        "states.propagate_observables.ms": total["states.propagate_observables"],
        "states.propagate_observables.steps": sums["states.propagate_observables", "steps"],
        "states.eigvec_to_bare.ms": total["states.eigvec_to_bare"],
        "states.ideal_cat_state.ms": total["states.ideal_cat_state"],
        "cli.main.self_ms": own["cli.main"],
        "cli.bytes_written": bytes_written,
    }
