"""Displaced-Fock overlap coefficients and displacement-operator matrix elements.

The eigenproblem couples two families of displaced number states, one
displaced by +g and one by -g. Their mutual overlaps reduce to matrix
elements of a single displacement by 2g,

    ⟨m|D(β)|n⟩ = phase · sqrt(p!/q!) · |β|^α · e^(-|β|²/2) · L_p^(α)(|β|²),

with p = min(m, n), q = max(m, n), α = q - p and L an associated Laguerre
polynomial. One private function, ``_table``, makes every table: it
holds the β = 0 case and the one finiteness check. Its kernel,
``_displacement``, runs the Laguerre three-term recurrence upward in p,
vectorised across all diagonals α at once and across a leading axis of
β's, into a buffer that, read at another stride, is the upper triangle of
each table; it scales, mirrors and phases each triangle on its own array,
with no index plane or gather. Each step of the recurrence is elementwise
(+, −, ×, ÷), so a table built in a batch is bitwise the table of its β
built alone. The phase is
(β/|β|)^α below the diagonal (m >= n) and (-β*/|β|)^α above it, built by
repeated multiplication so bases on the real or imaginary axis give exact
±1, ±i.
For real β every phase is a real ±1, so the table is real: that is the
table the displaced Hamiltonian, ``overlap_matrix`` and the basis change
of ``states`` read. Complex β (the lab frame and the frame change U) takes
the same path with complex phases.

Each entry takes the same floating-point operations whatever the table
size, so the table at truncation n is exactly the leading block of any
larger one, and a scalar read of one entry agrees with the bulk table bit
for bit. ``_table`` uses that: it keeps one slot, the β's of the last build
and the read-only tables built for them, and serves any request for one of
those β's at a truncation no larger than its table as a leading-block
view. A request for another β, or a larger truncation, builds that one
table afresh and replaces the slot. Callers that know their largest
truncation ask for it first: a solver walk asks for its second truncation
(a walk always reaches it) before its first step. A sweep asks ahead:
``_hold`` builds the tables of its next 8 points in one batched kernel
call, skipping β = 0 and the β's already held, and keeps the finite ones.
So an η sweep, whose points each have their own g, builds D(2g) once per
8 points, and again for a walk's third step (which drops the rest of the
batch); a detuning sweep, whose points all share g, builds it only when a
walk goes past the largest truncation so far. The slot holds those tables
and nothing else: (n+1)² doubles each for real β (0.39 MB at n = 220),
twice that for complex β, for each β of the build (8 at most in a
sweep). It is process-wide and replaced as one tuple, so threads that
share it may rebuild a table another thread just built, but never read
one β's table for another.
Every entry point reads the table of its β:

* ``displacement_matrix`` returns a fresh writable complex copy of it;
* ``displacement_element`` reads one entry of it;
* ``overlap_matrix`` multiplies the real table of D(2g) by the column sign
  (-1)^k, the one place that convention lives; ``displaced_overlap``,
  ``overlap_ab`` and ``overlap_ba`` read one entry of D(2g) times that sign.

For real g, D(-g) = D(g)ᵀ exactly, so one table serves both directions of
a basis change.

The recurrence is checked against 80-digit references at (|β|, n) =
(14, 400), (20, 800), (28, 1200) and (36, 1650): entries agree within
1e-12 relative, from the Poisson hump out to entries of 1e-234, and at
|β| <= 14, n = 400 the low rows of D(2g) keep unit norm within 1e-12. A
table whose Laguerre values overflow before the factor √(p!/q!)e^(-|β|²/2)
scales them down raises ``OverflowError``. That bounds n, not only |β|:
as |β| → 0, L_p^(α)(|β|²) → C(q, p), and the largest finite n is 1019 at
|β| <= 0.3, 1055 at 5, 1594 at 20, 1884 at 36 and 326 at 38. The textbook
alternating factorial sum cancels catastrophically once m, n and g are
large (condition number ~1e20 at m = n = 100, g = 1.5). The alternating
sum stays as ``displaced_overlap_series``, in log-magnitude/sign form,
because it shares no code with the kernel and so serves as an independent
cross-check where it is well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .model import _check_finite, _check_index

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
    """ln(n!) for an integer 0 <= n <= MAX_TRUNCATION, accurate to ~1 ulp."""
    _check_index("n", n)
    return math.lgamma(n + 1)


def _by_diagonal(values: np.ndarray, n: int) -> np.ndarray:
    """(n+1) x (n+1) view whose entry (i, j) is values[n + j - i]: one value per diagonal."""
    step = values.itemsize
    return np.ndarray((n + 1, n + 1), values.dtype, values, n * step, (-step, step))


def _displacement(betas: Sequence[complex], n: int) -> List[np.ndarray]:
    """(n+1) x (n+1) tables of ⟨i|D(β)|j⟩, one per β != 0; real for real β.

    One recurrence runs for every β at once along a leading axis; each step
    is elementwise, so every β's entries are the ones a build of that β
    alone gives. Each table is then scaled, mirrored and phased on its own
    array. Entry (i, j) must take the same floating-point operations for
    every n >= max(i, j): the bitwise scalar == bulk and nested-truncation
    guarantees rest on it. Out-of-range arguments overflow to inf/nan;
    ``_table`` and ``_hold`` detect that, so the intermediate warnings are
    suppressed here.
    """
    betas = [complex(beta) for beta in betas]
    radii = [abs(beta) for beta in betas]
    dim = n + 1
    # Row p of lag[b] holds L_p^(α)(x) for β_b, read where p + α <= n. The
    # spare last column puts row p at stride dim + 1, so lag[b] read at stride
    # dim is the triangle upper[i, j] = L_i^(j-i)(x), j >= i; the mirror below
    # discards what that view holds under the diagonal.
    lag = np.empty((len(betas), dim, dim + 1))
    lag[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        # Step p reads ((2p - 1) + α) - x and (p - 1) + α. Their integer
        # parts are exact, so both are slices of one vector along the row.
        ints = np.arange(3 * dim, dtype=float)
        grow = ints - np.array([r * r for r in radii])[:, None]
        # Row p of every table at once; a lone β steps on 1-D rows, which
        # numpy runs faster than rows of shape (1, dim).
        if len(betas) == 1:
            grow, rows = grow[0], list(lag[0, :, :dim])
        else:
            rows = list(lag[:, :, :dim].swapaxes(0, 1))
        # Each step runs over whole rows: the entries past p + α = n are never
        # read, and one call per whole row costs less than slicing it short.
        if n >= 1:
            rows[1][:] = grow[..., 1:1 + dim]
        tail = np.empty(rows[0].shape)
        for p in range(2, dim):
            row = rows[p]
            np.multiply(grow[..., 2 * p - 1:2 * p - 1 + dim], rows[p - 1], out=row)
            np.multiply(ints[p - 1:p - 1 + dim], rows[p - 2], out=tail)
            np.subtract(row, tail, out=row)
            np.divide(row, ints[p], out=row)
        # |⟨i|D(β)|j⟩| = sqrt(i!/j!) r^(j-i) e^(-x/2) L_i^(j-i)(x) for j >= i.
        log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])
        diagonals = np.arange(-n, dim)  # j - i, as _by_diagonal reads it
        tables = []
        for beta, r, buffer in zip(betas, radii, lag):
            upper = buffer.reshape(-1)[:dim * dim].reshape(dim, dim)
            table = log_fact[:, None] - log_fact
            table *= 0.5
            table -= 0.5 * (r * r)
            table += _by_diagonal(diagonals * math.log(r), n)
            np.exp(table, out=table)
            table *= upper
            # Mirror the upper triangle by selection: adding the two triangles
            # would turn the -0.0 of entries far off the diagonal into +0.0.
            table = np.where(_by_diagonal(diagonals >= 0, n), table, table.T)
            # Phase (β/r)^(i-j) on and below the diagonal, (-β*/r)^(j-i) above it.
            if beta.imag == 0.0:
                step_below, step_above = beta.real / r, -beta.real / r
            else:
                step_below, step_above = beta / r, -beta.conjugate() / r
            below = np.cumprod(np.concatenate([[1.0], np.full(n, step_below)]))
            above = np.cumprod(np.concatenate([[1.0], np.full(n, step_above)]))
            tables.append(_by_diagonal(np.concatenate([below[::-1], above[1:]]), n) * table)
        return tables


# The β's and tables of the last build, kept as one tuple so that a reader
# never pairs one β with another β's table; (None, None) when empty.
_slot: tuple = (None, None)


def _held(beta: complex, n: int) -> Optional[np.ndarray]:
    """The kept table of β if it covers truncation n, else None."""
    betas, tables = _slot
    if betas is None or beta not in betas:
        return None
    table = tables[betas.index(beta)]
    return table if table.shape[0] > n else None


def _table(beta: complex, n: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) table of ⟨m|D(β)|k⟩: real for real β, complex otherwise.

    The one table function: a β that is not a finite number (real or
    complex, not a bool or string) or a bad n raises InvalidParam before
    any build, β = 0 gives the identity exactly, and a non-finite
    table (see the module docstring) raises OverflowError and is not
    kept. A request for a β of the slot at a truncation no larger than
    its kept table is served as the leading block, which is bitwise the
    table a fresh build would give; any other request builds that one
    table, which then replaces the slot.
    """
    global _slot
    _check_index("n", n)
    _check_finite("beta", beta, complex_ok=True)
    beta = complex(beta)
    if beta == 0:
        table = np.eye(n + 1)
        table.setflags(write=False)
        return table
    table = _held(beta, n)
    if table is not None:
        return table[:n + 1, :n + 1]
    table, = _displacement([beta], n)
    if not np.all(np.isfinite(table)):
        raise OverflowError(f"the table of D(beta) for beta={beta} at n={n} is not "
                            "representable: its Laguerre values overflow (from n = 1020 at "
                            "small |beta|; tested to n = 1650 at |beta| = 36)")
    table.setflags(write=False)
    _slot = ((beta,), (table,))
    return table


def _hold(requests: Iterable[Tuple[complex, int]]) -> None:
    """Keep a table for each (β, n) requested, building the missing ones in one call.

    β = 0 and a β already held at truncation n or above are not built;
    the rest are built together at the largest n asked of them. The slot
    then holds the requested tables that were held and the new ones that
    are finite. Never raises: a table that is not finite is dropped, and a
    later ``_table`` request for it builds it alone and raises there.
    """
    global _slot
    sizes = {}
    for beta, n in requests:
        beta = complex(beta)
        if beta != 0:
            sizes[beta] = max(n, sizes.get(beta, 0))
    tables = {beta: _held(beta, n) for beta, n in sizes.items()}
    missing = [beta for beta, table in tables.items() if table is None]
    if not missing:
        return
    for beta, table in zip(missing, _displacement(missing, max(sizes[b] for b in missing))):
        table.setflags(write=False)
        tables[beta] = table if np.all(np.isfinite(table)) else None
    pairs = [(beta, table) for beta, table in tables.items() if table is not None]
    _slot = tuple(zip(*pairs)) if pairs else (None, None)


def displaced_overlap(m: int, n: int, g: float) -> float:
    """Overlap coefficient between number states displaced by +g and -g.

    Equals (-1)^n ⟨m|D(2g)|n⟩, entry (m, n) of ``overlap_matrix``;
    symmetric in (m, n) and real for real g. Within 5e-13 of 60-digit
    references for m, n <= 100 and |g| <= 1.5. At g = 0 returns
    (-1)^m δ_mn exactly.
    """
    _check_index("m", m)
    _check_index("n", n)
    _check_finite("g", g)
    return float(_table(2.0 * g, max(m, n))[m, n] * (-1.0) ** n)


def displaced_overlap_series(m: int, n: int, g: float) -> float:
    """Same coefficient via the alternating factorial sum.

    Evaluated term-by-term in log-magnitude/sign form with exact (fsum)
    accumulation. Reference path only: the sum is alternating and its
    largest term can exceed the result by many orders of magnitude, so
    accuracy degrades once roughly (2g)² · min(m, n) grows large. Reliable
    to ~1e-12 for m, n <= 30 with |g| <= 0.5 and to ~1e-8 at |g| = 1.
    Raises :class:`InvalidParam` unless g is a finite real number.
    """
    _check_index("m", m)
    _check_index("n", n)
    _check_finite("g", g)
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
    return displaced_overlap(m, n, g) * (-1.0) ** n


def overlap_ba(m: int, n: int, g: float) -> float:
    """⟨m (displaced by -g) | n (displaced by +g)⟩ = (-1)^m times the overlap coefficient."""
    return displaced_overlap(m, n, g) * (-1.0) ** m


def displacement_element(beta: complex, m: int, n: int) -> complex:
    """Matrix element ⟨m| exp(β a† - β* a) |n⟩ of the displacement operator.

    Entry (m, n) of ``displacement_matrix``, so accurate to ~1e-12
    relative at the tested points of the module docstring. β = 0
    gives δ_mn exactly.
    """
    _check_index("m", m)
    _check_index("n", n)
    return complex(_table(beta, max(m, n))[m, n])


def displacement_matrix(beta: complex, n: int) -> np.ndarray:
    """Dense (n+1) x (n+1) matrix of ⟨m| exp(β a† - β* a) |k⟩.

    A fresh, writable complex copy of ``_table``'s table, with its errors.
    """
    return _table(beta, n).astype(complex)


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
    """The (n+1) x (n+1) overlap table (-1)^k ⟨m|D(2g)|k⟩.

    The sign is (-1)^min(m, k) for g > 0 and (-1)^max(m, k) for g < 0, so
    the table is symmetric.
    """
    _check_finite("g", g)
    table = _table(2.0 * g, n)
    return OverlapMatrix(g=g, n=n, values=table * (-1.0) ** np.arange(n + 1))
