"""Physical parameters and truncation policy.

All quantities are dimensionless, expressed in units of the trap frequency.
The two-laser drive enters through three numbers: the Rabi frequency ``omega``,
the Lamb-Dicke parameter ``eta`` and the detuning ``delta``. The derived
coupling ``g = eta / 2`` and bias ``epsilon = -delta / 2`` are what the
Hamiltonian builders actually consume; ``delta`` is the only user-facing way
to set the bias, which avoids sign-convention mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam

__all__ = ["ModelParams", "BasisSpec", "validate", "MAX_TRUNCATION"]

# Largest truncation n that a basis or a truncation list may ask for. The
# solver's tables are dense (n+1)² and (2n+2)² arrays, so an unbounded n
# asks for gigabytes before any other check runs.
MAX_TRUNCATION = 2000


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelParams:
    """Drive parameters of the trapped-ion two-level system.

    Attributes
    ----------
    omega : float
        Rabi frequency, > 0.
    eta : float
        Lamb-Dicke parameter, >= 0.
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
        object.__setattr__(self, "g", self.eta / 2.0)
        object.__setattr__(self, "epsilon", -self.delta / 2.0)


def validate(params: ModelParams) -> ModelParams:
    """Check ranges and finiteness; return the validated record.

    Idempotent: validating an already-valid record returns it unchanged
    (bit-identical fields). Raises :class:`InvalidParam` naming the
    offending field otherwise.
    """
    for name in ("omega", "eta", "delta"):
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            raise InvalidParam(name, "must be a real number")
        if not math.isfinite(value):
            raise InvalidParam(name, "must be finite")
    if params.omega <= 0:
        raise InvalidParam("omega", "must be > 0")
    if params.eta < 0:
        raise InvalidParam("eta", "must be >= 0")
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
    Truncations and the level count are integers (not bools);
    ``n_max_hard`` may not exceed ``MAX_TRUNCATION``.
    """

    n_start: int = 40
    n_step: int = 20
    n_max_hard: int = 400
    tail_tol: float = 1e-10
    drift_tol: float = 1e-10
    levels_requested: int = 10

    def __post_init__(self):
        for name in ("n_start", "n_step", "n_max_hard", "levels_requested"):
            if not _is_integer(getattr(self, name)):
                raise InvalidParam(name, "must be an integer")
        if not (0 < self.n_start <= self.n_max_hard):
            raise InvalidParam("n_start", "need 0 < n_start <= n_max_hard")
        if self.n_max_hard > MAX_TRUNCATION:
            raise InvalidParam("n_max_hard", f"must be <= {MAX_TRUNCATION}")
        if self.n_step < 1:
            raise InvalidParam("n_step", "must be >= 1")
        if not (self.tail_tol > 0):
            raise InvalidParam("tail_tol", "must be > 0")
        if not (self.drift_tol > 0):
            raise InvalidParam("drift_tol", "must be > 0")
        if not (0 < self.levels_requested <= self.n_start):
            raise InvalidParam("levels_requested", "need 0 < levels_requested <= n_start")
