import dataclasses
import math

import numpy as np
import pytest

from rabi_spectra import BasisSpec, InvalidParam, ModelParams, validate
from rabi_spectra.model import MAX_TRUNCATION


def test_derived_fields():
    p = validate(ModelParams(omega=1.0, eta=0.2, delta=0.0))
    assert p.g == 0.1
    assert p.epsilon == 0.0


def test_decoupled_limit_accepted():
    p = validate(ModelParams(omega=1.0, eta=0.0, delta=0.0))
    assert p.g == 0.0 and p.epsilon == 0.0


def test_negative_omega_rejected():
    with pytest.raises(InvalidParam) as err:
        validate(ModelParams(omega=-1.0, eta=0.2, delta=0.0))
    assert err.value.field == "omega"
    # A copy with a changed field is checked as it is built, too.
    with pytest.raises(InvalidParam) as err:
        dataclasses.replace(ModelParams(omega=1.0, eta=0.2, delta=0.0), omega=-1.0)
    assert err.value.field == "omega"
    # Callers that catch bad values as ValueError keep working.
    assert issubclass(InvalidParam, ValueError)


@pytest.mark.parametrize("field,kwargs", [
    ("omega", dict(omega=math.nan, eta=0.2, delta=0.0)),
    ("omega", dict(omega=math.inf, eta=0.2, delta=0.0)),
    ("eta", dict(omega=1.0, eta=math.nan, delta=0.0)),
    ("eta", dict(omega=1.0, eta=-0.1, delta=0.0)),
    ("delta", dict(omega=1.0, eta=0.2, delta=math.inf)),
    ("eta", dict(omega=1.0, eta=True, delta=0.0)),
    ("eta", dict(omega=1.0, eta="x", delta=0.0)),
    # an int too large for a float is not finite
    ("omega", dict(omega=10**400, eta=0.2, delta=0.0)),
    ("eta", dict(omega=1.0, eta=10**400, delta=0.0)),
    ("delta", dict(omega=1.0, eta=0.2, delta=-10**400)),
])
def test_bad_fields_named(field, kwargs):
    # The record rejects the field as it is built, before validate could run.
    with pytest.raises(InvalidParam) as err:
        ModelParams(**kwargs)
    assert err.value.field == field
    with pytest.raises(InvalidParam) as err:
        validate(ModelParams(**kwargs))
    assert err.value.field == field


@pytest.mark.parametrize("eta,delta", [
    (0.2, 0.0), (1.0 / 3.0, -1.7), (1e-8, 2.0), (0.6, 0.3), (1.0, -2.0),
])
def test_derived_fields_exact(eta, delta):
    p = validate(ModelParams(omega=1.0, eta=eta, delta=delta))
    assert 2.0 * p.g - p.eta == 0.0
    assert 2.0 * p.epsilon + p.delta == 0.0


def test_revalidation_idempotent():
    p = validate(ModelParams(omega=2.0, eta=0.37, delta=-1.2))
    q = validate(p)
    assert q is p
    for name in ("omega", "eta", "delta", "g", "epsilon"):
        assert getattr(q, name) == getattr(p, name)
    # validate still catches a field overwritten after construction.
    for name, value in [("omega", -1.0), ("eta", True), ("g", 0.2), ("epsilon", -0.6)]:
        tampered = ModelParams(omega=2.0, eta=0.37, delta=-1.2)
        object.__setattr__(tampered, name, value)
        with pytest.raises(InvalidParam) as err:
            validate(tampered)
        assert err.value.field == name


def test_basis_spec_defaults_valid():
    spec = BasisSpec()
    assert spec.n_start == 40 and spec.n_max_hard == 400
    assert spec.levels_requested <= spec.n_start


@pytest.mark.parametrize("kwargs", [
    dict(n_start=0),
    dict(n_start=500, n_max_hard=400),
    dict(n_step=0),
    dict(tail_tol=0.0),
    dict(drift_tol=-1e-10),
    dict(levels_requested=50, n_start=40),
    dict(levels_requested=0),
    # truncations and the level count are integers, never floats or bools
    dict(n_start=20.5, n_max_hard=40.0),
    dict(n_max_hard=400.0),
    dict(n_step=2.5),
    dict(levels_requested=10.0),
    dict(n_start=True),
    dict(levels_requested=True),
    dict(n_step="20"),
    # tolerances are finite real numbers > 0, never bools or strings
    dict(tail_tol=math.inf),
    dict(drift_tol=math.inf),
    dict(tail_tol=math.nan),
    dict(drift_tol=-math.inf),
    dict(tail_tol="1e-10"),
    dict(drift_tol=True),
])
def test_basis_spec_invariants(kwargs):
    with pytest.raises(InvalidParam):
        BasisSpec(**kwargs)


@pytest.mark.parametrize("name", ["tail_tol", "drift_tol"])
def test_basis_spec_rejects_tolerance_beyond_float(name):
    # An int too large for a float compares below math.inf but fails every later
    # comparison with a float array, so it is rejected here and named.
    with pytest.raises(InvalidParam) as err:
        BasisSpec(**{name: 10**400})
    assert err.value.field == name
    assert getattr(BasisSpec(**{name: 1}), name) == 1


def test_basis_spec_accepts_numpy_integers():
    spec = BasisSpec(n_start=np.int64(20), n_step=np.int32(10), n_max_hard=np.int64(60),
                     levels_requested=np.int16(5))
    assert (spec.n_start, spec.n_step, spec.n_max_hard, spec.levels_requested) == (20, 10, 60, 5)


def test_basis_spec_truncation_cap():
    # Constructing a spec allocates nothing, so the cap is checked at its edge.
    assert BasisSpec(n_max_hard=MAX_TRUNCATION).n_max_hard == MAX_TRUNCATION
    with pytest.raises(InvalidParam) as err:
        BasisSpec(n_start=MAX_TRUNCATION + 1, n_max_hard=MAX_TRUNCATION + 1)
    assert err.value.field == "n_max_hard"
