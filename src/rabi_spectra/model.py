"""Physical parameters and truncation policy.

All quantities are dimensionless, expressed in units of the trap frequency.
The two-laser drive enters through three numbers: the Rabi frequency ``omega``,
the Lamb-Dicke parameter ``eta`` and the detuning ``delta``. The derived
coupling ``g = eta / 2`` and bias ``epsilon = -delta / 2`` are what the
Hamiltonian builders actually consume; ``delta`` is the only user-facing way
to set the bias, which avoids sign-convention mistakes. Both records check
their fields at construction and raise :class:`InvalidParam` naming a bad one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam

__all__ = ["ModelParams", "BasisSpec", "validate", "MAX_TRUNCATION"]

# Largest truncation or Fock index that any public function accepts. The
# tables are dense (n+1)² and (2n+2)² arrays, so an unbounded n asks for
# gigabytes before any other check runs.
MAX_TRUNCATION = 2000


def _check_index(name: str, value, low: int = 0) -> None:
    """Reject, naming ``name``, anything but an integer (not a bool) in low … MAX_TRUNCATION."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not low <= value <= MAX_TRUNCATION):
        raise InvalidParam(name, f"must be an integer in {low}..{MAX_TRUNCATION}, the truncation cap")


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real that is a finite float; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ModelParams:
    """Drive parameters of the trapped-ion two-level system, checked at construction.

    Attributes
    ----------
    omega : float
        Rabi frequency, a finite real > 0.
    eta : float
        Lamb-Dicke parameter, a finite real >= 0.
    delta : float
        Detuning of the effective two-level transition; any finite real.
    g : float
        Derived spin-motion coupling, exactly ``eta / 2``.
    epsilon : float
        Derived bias, exactly ``-delta / 2``.
    """

    omega: float
    eta: float
    delta: float
    g: float = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        for name in ("omega", "eta", "delta"):
            value = getattr(self, name)
            if not _is_real(value):
                raise InvalidParam(name, "must be a real number")
            if not _is_finite(value):
                raise InvalidParam(name, "must be finite")
        if self.omega <= 0:
            raise InvalidParam("omega", "must be > 0")
        if self.eta < 0:
            raise InvalidParam("eta", "must be >= 0")
        object.__setattr__(self, "g", self.eta / 2.0)
        object.__setattr__(self, "epsilon", -self.delta / 2.0)


def validate(params: ModelParams) -> ModelParams:
    """Re-check a record, including its derived fields; return it unchanged.

    Catches a record whose fields were overwritten after construction.
    Idempotent: ``validate(p) is p``. Raises :class:`InvalidParam` naming
    the offending field otherwise.
    """
    ModelParams(params.omega, params.eta, params.delta)  # re-runs the drive checks
    if params.g != params.eta / 2.0:
        raise InvalidParam("g", "must equal eta / 2 exactly")
    if params.epsilon != -params.delta / 2.0:
        raise InvalidParam("epsilon", "must equal -delta / 2 exactly")
    return params


@dataclass(frozen=True)
class BasisSpec:
    """Truncation and convergence policy for the adaptive eigensolver.

    Defaults are sized so that the physically interesting ranges
    (eta <= 1, omega <= 2, |delta| <= 2) converge with large margin.
    ``n_start`` is a lower bound on the first truncation: the solver walks
    the grid ``n_start, n_start + n_step, …, n_max_hard`` from its first
    point at or above (eta + √levels_requested)², the reach of the lowest
    levels, or visits ``n_max_hard`` alone if none is that large.
    Truncations and the level count are integers from 1 to ``MAX_TRUNCATION``
    and the tolerances finite reals > 0 (none a bool).
    """

    n_start: int = 40
    n_step: int = 20
    n_max_hard: int = 400
    tail_tol: float = 1e-10
    drift_tol: float = 1e-10
    levels_requested: int = 10

    def __post_init__(self):
        for name in ("n_max_hard", "n_start", "n_step", "levels_requested"):
            _check_index(name, getattr(self, name), low=1)
        if self.n_start > self.n_max_hard:
            raise InvalidParam("n_start", "need n_start <= n_max_hard")
        for name in ("tail_tol", "drift_tol"):
            value = getattr(self, name)
            if not (_is_real(value) and _is_finite(value) and value > 0):
                raise InvalidParam(name, "must be a finite real number > 0")
        if self.levels_requested > self.n_start:
            raise InvalidParam("levels_requested", "need levels_requested <= n_start")
