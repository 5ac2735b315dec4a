"""Displaced-Fock overlap coefficients and displacement-operator matrix elements.

The eigenproblem couples two families of displaced number states, one
displaced by +g and one by -g. Their mutual overlaps reduce to matrix
elements of a single displacement by 2g,

    ⟨m|D(β)|n⟩ = phase · sqrt(p!/q!) · |β|^α · e^(-|β|²/2) · L_p^(α)(|β|²),

with p = min(m, n), q = max(m, n), α = q - p and L an associated Laguerre
polynomial. Everything here reads from one kernel, ``_magnitudes``, which
runs the Laguerre three-term recurrence upward in p, vectorised across all
diagonals α at once, and returns the real table of magnitudes. That table
depends only on |β|², and each entry is computed by the same sequence of
floating-point operations whatever the table size, so scalar reads agree
with bulk tables bit for bit and the table at truncation n is exactly the
leading block of any larger one. The entry points differ only in the phase
they apply:

* ``displacement_matrix`` and ``displacement_element``: (β/|β|)^α below the
  diagonal (m >= n) and (-β*/|β|)^α above it, built by repeated
  multiplication so bases on the real or imaginary axis give exact ±1, ±i;
* ``overlap_matrix`` and ``displaced_overlap``: the factor (-1)^n on top of
  D(2g), which for real g is (-1)^min(m, n) when g > 0 and (-1)^max(m, n)
  when g < 0.

For real g, D(-g) = D(g)ᵀ exactly, so one table serves both directions of
a basis change.

The recurrence is tested on m, n <= 400 with |g| <= 5 (η <= 10), where the
low rows of D(2g) keep unit norm within 1e-12; outside it a table may
underflow to zero or overflow (``OverflowError``). The textbook alternating
factorial sum cancels catastrophically once m, n and g are large
(condition number ~1e20 at m = n = 100, g = 1.5). The alternating sum stays
as ``displaced_overlap_series``, in log-magnitude/sign form, because it
shares no code with the kernel and so serves as an independent cross-check
where it is well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "log_factorial",
    "displaced_overlap",
    "displaced_overlap_series",
    "overlap_ab",
    "overlap_ba",
    "displacement_element",
    "displacement_matrix",
    "OverlapMatrix",
    "overlap_matrix",
]


def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0, accurate to ~1 ulp up to n = 400 and beyond."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    return math.lgamma(n + 1)


def _magnitudes(r: float, n: int) -> np.ndarray:
    """Symmetric (n+1) x (n+1) table of |⟨m|D(β)|k⟩| for |β| = r > 0.

    Entry (m, k) must take the same floating-point operations for every
    n >= max(m, k): the bitwise scalar == bulk and nested-truncation
    guarantees rest on it. Out-of-range arguments overflow to inf/nan;
    callers detect that and signal OverflowError, so the intermediate
    warnings are suppressed here.
    """
    dim = n + 1
    x = r * r
    alpha = np.arange(dim, dtype=float)
    # lag[p, α] = L_p^(α)(x), filled where p + α <= n
    lag = np.zeros((dim, dim))
    lag[0] = 1.0
    idx = np.arange(dim)
    low = np.minimum.outer(idx, idx)
    diag = np.abs(np.subtract.outer(idx, idx))
    log_fact = np.array([log_factorial(k) for k in range(dim)])
    with np.errstate(over="ignore", invalid="ignore"):
        if n >= 1:
            lag[1, :n] = 1.0 + alpha[:n] - x
        for p in range(2, dim):
            a = alpha[:dim - p]
            lag[p, :dim - p] = ((2 * p - 1 + a - x) * lag[p - 1, :dim - p]
                                - (p - 1 + a) * lag[p - 2, :dim - p]) / p
        log_mag = 0.5 * (log_fact[low] - log_fact[low + diag]) - 0.5 * x + diag * math.log(r)
        return np.exp(log_mag) * lag[low, diag]


def _displacement(beta: complex, n: int) -> np.ndarray:
    """⟨m|D(β)|k⟩ for β != 0: the magnitude table times the per-diagonal phase."""
    r = abs(beta)
    dim = n + 1
    # phases[n + m - k] is the phase of entry (m, k): (β/r)^(m-k) on and below
    # the diagonal, (-β*/r)^(k-m) above it.
    below = np.cumprod(np.concatenate([[1.0 + 0.0j], np.full(n, beta / r)]))
    above = np.cumprod(np.concatenate([[1.0 + 0.0j], np.full(n, -beta.conjugate() / r)]))
    phases = np.concatenate([above[:0:-1], below])
    idx = np.arange(dim)
    return phases[n + np.subtract.outer(idx, idx)] * _magnitudes(r, n)


def displaced_overlap(m: int, n: int, g: float) -> float:
    """Overlap coefficient between number states displaced by +g and -g.

    Equals (-1)^n ⟨m|D(2g)|n⟩; symmetric in (m, n) and real for real g.
    Within 5e-13 of 60-digit references for m, n <= 100 and |g| <= 1.5.
    At g = 0 returns (-1)^m δ_mn exactly.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    if not math.isfinite(g):
        raise ValueError("g must be finite")
    if g == 0.0:
        return (-1.0) ** m if m == n else 0.0
    value = float(_magnitudes(2.0 * abs(g), max(m, n))[m, n])
    if (min(m, n) if g > 0.0 else max(m, n)) % 2:
        value = -value
    if not math.isfinite(value):
        raise OverflowError(f"displaced_overlap({m}, {n}, {g}) is not representable")
    return value


def displaced_overlap_series(m: int, n: int, g: float) -> float:
    """Same coefficient via the alternating factorial sum.

    Evaluated term-by-term in log-magnitude/sign form with exact (fsum)
    accumulation. Reference path only: the sum is alternating and its
    largest term can exceed the result by many orders of magnitude, so
    accuracy degrades once roughly (2g)² · min(m, n) grows large. Reliable
    to ~1e-12 for m, n <= 30 with |g| <= 0.5 and to ~1e-8 at |g| = 1.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    if not math.isfinite(g):
        raise ValueError("g must be finite")
    if g == 0.0:
        return (-1.0) ** m if m == n else 0.0
    log_2g = math.log(2.0 * abs(g))
    sign_2g = 1.0 if g > 0.0 else -1.0
    half_lmn = 0.5 * (log_factorial(m) + log_factorial(n))
    logs = []
    signs = []
    for i in range(min(m, n) + 1):
        logs.append(half_lmn + (m + n - 2 * i) * log_2g
                    - log_factorial(m - i) - log_factorial(n - i) - log_factorial(i))
        signs.append((-1.0) ** i * sign_2g ** ((m + n) % 2))
    top = max(logs)
    total = math.fsum(s * math.exp(lg - top) for lg, s in zip(logs, signs))
    value = math.exp(top - 2.0 * g * g) * total
    if not math.isfinite(value):
        raise OverflowError(f"displaced_overlap_series({m}, {n}, {g}) is not representable")
    return value


def overlap_ab(m: int, n: int, g: float) -> float:
    """⟨m (displaced by +g) | n (displaced by -g)⟩ = (-1)^n times the overlap coefficient."""
    return (-1.0) ** n * displaced_overlap(m, n, g)


def overlap_ba(m: int, n: int, g: float) -> float:
    """⟨m (displaced by -g) | n (displaced by +g)⟩ = (-1)^m times the overlap coefficient."""
    return (-1.0) ** m * displaced_overlap(m, n, g)


def displacement_element(beta: complex, m: int, n: int) -> complex:
    """Matrix element ⟨m| exp(β a† - β* a) |n⟩ of the displacement operator.

    Accurate to ~1e-12 for m, n <= 400 within the documented domain
    |β| <= 4. β = 0 gives δ_mn exactly.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    beta = complex(beta)
    if beta == 0:
        return complex(1.0 if m == n else 0.0)
    value = complex(_displacement(beta, max(m, n))[m, n])
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"displacement_element({beta}, {m}, {n}) is not representable")
    return value


def displacement_matrix(beta: complex, n: int) -> np.ndarray:
    """Dense (n+1) x (n+1) matrix of ⟨m| exp(β a† - β* a) |k⟩.

    Entries are bit-identical to individual ``displacement_element`` calls.
    """
    beta = complex(beta)
    if beta == 0:
        return np.eye(n + 1, dtype=complex)
    return _displacement(beta, n)


@dataclass(frozen=True)
class OverlapMatrix:
    """Table of displaced-Fock overlap coefficients for one coupling g.

    ``values[m, k]`` holds the coefficient for indices (m, k); the array is
    bitwise symmetric and read-only.
    """

    g: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def overlap_matrix(n: int, g: float) -> OverlapMatrix:
    """Build the (n+1) x (n+1) overlap table, entry-compatible with ``displaced_overlap``."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    idx = np.arange(n + 1)
    if g == 0.0:
        return OverlapMatrix(g=g, n=n, values=np.diag((-1.0) ** idx))
    values = _magnitudes(2.0 * abs(g), n)
    nearest = np.minimum.outer(idx, idx) if g > 0.0 else np.maximum.outer(idx, idx)
    values[nearest % 2 == 1] *= -1.0
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"overlap_matrix(n={n}, g={g}) is not representable")
    return OverlapMatrix(g=g, n=n, values=values)
