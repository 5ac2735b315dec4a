"""Braak's G-function: the δ = 0 spectrum with no truncation of the oscillator.

Rotating the spin (σ_z ↔ σ_x) turns the δ = 0 working-frame Hamiltonian
-Ω/2 σ_x + a†a + g(a† + a)σ_z + g² into the quantum Rabi model
a†a + g σ_x(a + a†) + Δ σ_z with Δ = Ω/2 and the same g. Its regular
spectrum is the set of zeros of

    G_±(x) = Σ_n K_n(x) (1 ∓ Δ/(x - n)) g^n,
    K_0 = 1, K_1 = f_0, n K_n = f_(n-1) K_(n-1) - K_(n-2),
    f_n(x) = 2g + (n - x + Δ²/(x - n)) / (2g),

where x is Braak's E + g², which is the repo's energy (the repo carries the
+g²). A level of parity p is a zero of G_(-p). G has poles at the integers;
exceptional (Juddian) levels sit exactly on a pole and are not zeros, so
callers keep away from them. Reference: D. Braak, PRL 107, 100401 (2011).
"""

import numpy as np

_TERMS = 200
# Sample points inside each interval between consecutive poles, as fractions
# of its width: a uniform grid, plus points that close in geometrically on
# both poles so that a zero next to a pole is bracketed too. Two zeros closer
# than one uniform step (2.5e-4) are missed, and so fail the callers' checks.
_UNIFORM = np.linspace(0.0, 1.0, 4002)[1:-1]
_NEAR_POLE = 10.0 ** -np.arange(4.0, 13.0)
_FRACTIONS = np.unique(np.concatenate([_NEAR_POLE, _UNIFORM, 1.0 - _NEAR_POLE]))
_SECTIONS = np.linspace(0.0, 1.0, 65)


def g_function(x, g, delta, sign):
    """G_sign(x) for an array of x away from the integers; sign is +1 or -1."""
    x = np.asarray(x, dtype=float)
    # a_n = K_n g^n obeys n a_n = g f_(n-1) a_(n-1) - g² a_(n-2), and
    # g f_n = 2g² + (n - x + Δ²/(x - n))/2 has no 1/g, so g = 0 is regular.
    prev, cur = np.zeros_like(x), np.ones_like(x)
    total = cur * (1.0 - sign * delta / x)
    for n in range(1, _TERMS):
        pole = x - (n - 1)  # not x - n + 1, which loses x's digits near x = 0
        g_f = 2.0 * g * g + 0.5 * (delta * delta / pole - pole)
        prev, cur = cur, (g_f * cur - g * g * prev) / n
        total = total + cur * (1.0 - sign * delta / (x - n))
    return total


def g_zeros(g, delta, sign, x_max):
    """Zeros of G_sign up to the first pole above x_max, bracketed between poles and bisected.

    The spectrum lies above -g² - Δ in Braak's energy, that is above -Δ in
    x, so the search starts at -Δ - 1; the poles are the integers >= 0.
    Each bracket is then cut into 64 parts per round (a 64-way bisection);
    nine rounds shrink it by 2^54, below the rounding of x.
    """
    edges = np.concatenate([[-delta - 1.0], np.arange(0.0, np.floor(x_max) + 2.0)])
    xs = edges[:-1, None] + np.diff(edges)[:, None] * _FRACTIONS[None, :]
    vals = g_function(xs, g, delta, sign)
    row, col = np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
    lo, hi = xs[row, col], xs[row, col + 1]
    for _ in range(9):
        xs = lo[:, None] + (hi - lo)[:, None] * _SECTIONS[None, :]
        vals = np.sign(g_function(xs, g, delta, sign))
        first = np.argmax(vals[:, :-1] * vals[:, 1:] <= 0, axis=1)
        rows = np.arange(lo.size)
        lo, hi = xs[rows, first], xs[rows, first + 1]
    return 0.5 * (lo + hi)
