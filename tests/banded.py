"""Banded bare-basis oracle: the lowest levels at any point ``ModelParams`` accepts.

``build_bare_rabi_hamiltonian`` is -Ω/2 σ_x + a†a + g(a† + a)σ_z + ε σ_z + g²
over the blocks (spin ↑, spin ↓). With its rows interleaved as (k, ↑) = 2k and
(k, ↓) = 2k + 1 it is a symmetric band matrix of half-bandwidth 2: σ_x couples
2k to 2k + 1, and a† + a couples k to k + 1 within one spin. LAPACK's dsbevx,
reached through ``scipy.linalg.eigvals_banded(..., select='i')``, returns its
lowest levels in O(n) memory (LAPACK Users' Guide, E. Anderson et al., SIAM
1999).

The lowest k levels need about (g + √k)² + 12g + 60 bare states: each spin
component of a low level has weight near both ±g. The oracle solves at that
size and at 1.5 times it, and fails unless the two agree.
"""

import math

import numpy as np
from scipy.linalg import eigvals_banded

from rabi_spectra import build_bare_rabi_hamiltonian

_AGREE = 1e-12


def _lowest(params, k, n):
    h = build_bare_rabi_hamiltonian(params, n)
    order = np.arange(2 * (n + 1)).reshape(2, n + 1).T.ravel()  # (k, ↑), (k, ↓), ...
    h = h[np.ix_(order, order)]
    assert not np.any(np.tril(h, -3)), "interleaved bare Hamiltonian is not banded"
    band = np.zeros((3, len(h)))
    for i in range(3):
        band[i, :len(h) - i] = np.diagonal(h, -i)
    return eigvals_banded(band, lower=True, select="i", select_range=(0, k - 1))


def bare_levels(params, k):
    """The lowest k energies of ``params`` in the bare basis, checked at two sizes."""
    reach = params.g + math.sqrt(k)
    n = math.ceil(reach * reach + 12.0 * params.g + 60.0)
    levels = _lowest(params, k, n)
    larger = _lowest(params, k, math.ceil(1.5 * n))
    scale = np.maximum(1.0, np.abs(levels))
    assert np.all(np.abs(levels - larger) <= _AGREE * scale), \
        f"bare basis not converged at n = {n}: {np.max(np.abs(levels - larger) / scale):.3e}"
    return levels
