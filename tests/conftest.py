import functools

import numpy as np
import pytest
from hypothesis import settings

from rabi_spectra import BasisSpec, ModelParams, overlap, solve_spectrum, validate

# Property tests draw the same examples on every run and are never timed out.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@functools.lru_cache(maxsize=None)
def _cached_solve(omega, eta, delta, **basis_kwargs):
    params = validate(ModelParams(omega=omega, eta=eta, delta=delta))
    basis = BasisSpec(**basis_kwargs) if basis_kwargs else BasisSpec()
    return solve_spectrum(params, basis)


@pytest.fixture(scope="session")
def solve():
    """Memoized solver so repeated parameter points cost one diagonalization."""
    return _cached_solve


@pytest.fixture
def perturbed_eigh(monkeypatch):
    """Make ``np.linalg.eigh`` return a basis 1e-6 off, so every residual certificate fails."""
    real_eigh = np.linalg.eigh

    def eigh(a):
        values, vectors = real_eigh(a)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", eigh)


@pytest.fixture
def table_builds(monkeypatch):
    """The truncation of every table build, in order, starting from an empty slot.

    One entry per kernel call, however many β it builds: a sweep builds the
    tables of a chunk of points in one call, at the largest truncation they need.
    """
    sizes = []
    build = overlap._displacement
    monkeypatch.setattr(overlap, "_displacement",
                        lambda betas, n: sizes.append(n) or build(betas, n))
    monkeypatch.setattr(overlap, "_slot", {})
    return sizes
