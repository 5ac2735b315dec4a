"""The package namespace and the modules' ``__all__`` lists name the same API,
and every public callable holds to one argument contract."""

import ast
import importlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabi_spectra
from rabi_spectra import (MAX_TRUNCATION, DomainError, Frame, InvalidParam, ModelParams,
                          basis_state, eigvec_to_bare, solve_spectrum)


def _package_imports():
    """(module, name) for every ``from .module import name`` in the package's __init__."""
    with open(rabi_spectra.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _listed(module_name):
    """A module's ``__all__``, or, as for ``import *``, its names without a leading underscore."""
    module = importlib.import_module(f"rabi_spectra.{module_name}")
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")
                 and getattr(vars(module)[name], "__module__", None) == module.__name__]
    return module, names


def test_package_exports_every_listed_name():
    missing = []
    for module_name in sorted({module for module, _ in _package_imports()}):
        module, names = _listed(module_name)
        missing += [f"{module_name}.{name}" for name in names
                    if getattr(rabi_spectra, name, None) is not getattr(module, name)]
    assert missing == []


def test_package_imports_only_listed_names():
    unlisted = [f"{module}.{name}" for module, name in _package_imports()
                if name not in _listed(module)[1]]
    assert unlisted == []


# --- The argument contract -------------------------------------------------
#
# Every public callable rejects a bad integer, float or complex argument up
# front: ValueError (InvalidParam names an integer argument), and DomainError
# for a non-finite time. Records that the package returns hold outputs and
# are built by it, so only their producers are held to the contract.
RECORDS = {"EigenDecomposition", "LevelPairing", "OverlapMatrix", "RwaLevel", "SpectralResult"}

_PARAMS = ModelParams(omega=1.0, eta=0.2, delta=0.0)
_SOLVED = solve_spectrum(_PARAMS)

# A valid argument for each required parameter, keyed by parameter name, and
# by (callable, parameter) where the name alone does not fix a valid value.
VALID = {
    "beta": 0.3, "c": np.eye(4)[0], "d": np.zeros(4), "delta": 0.0, "eta": 0.2, "g": 0.1,
    "initial": eigvec_to_bare(_SOLVED.coeff_c[0], _SOLVED.coeff_d[0], _PARAMS.g),
    "k": 1, "levels": 2, "m": 1, "n": 3, "n_list": [10, 20], "n_max": 3, "omega": 1.0,
    "params": _PARAMS, "result": _SOLVED, "spin": "e", "t": 1.0, "times": [0.0, 1.0],
}
VALID_FOR = {
    ("lab_to_intermediate", "state"): basis_state(1, "e", 3, Frame.LAB),
    ("intermediate_to_lab", "state"): basis_state(1, "e", 3, Frame.INTERMEDIATE),
}
# Non-finite times are outside the propagator's domain.
RAISES = {("evolve", "t"): DomainError, ("propagate_observables", "times"): DomainError}

# Bad values by annotated kind. Every drawn n is rejected or cannot be
# allocated at all: a huge but allocatable n would ask for gigabytes wherever
# a check is missing.
BAD = {
    "int": st.one_of(st.floats(min_value=-50, max_value=50).filter(lambda x: not x.is_integer()),
                     st.booleans(), st.sampled_from([-1, MAX_TRUNCATION + 1, 10**400])),
    "float": st.sampled_from([math.nan, math.inf, -math.inf]),
    "complex": st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                complex(math.nan, 0.3)]),
}


def _kind(annotation):
    """("int" | "float" | "complex", listed) for a checked annotation, else None."""
    text = getattr(annotation, "__forward_arg__", getattr(annotation, "__name__", annotation))
    match = re.fullmatch(r"(?:Sequence|Iterable)\[(\w+)\]|(\w+)", str(text))
    kind = match and (match[1] or match[2])
    return (kind, match[1] is not None) if kind in BAD else None


def _checked():
    """(name, signature) of each public callable, other than a record, with a checked parameter."""
    found = []
    for _, name in _package_imports():
        try:
            signature = inspect.signature(getattr(rabi_spectra, name))
        except (TypeError, ValueError):  # not callable, or an exception type
            continue
        if name not in RECORDS and any(_kind(p.annotation) for p in signature.parameters.values()):
            found.append((name, signature))
    return found


CASES = [(name, param.name) for name, signature in _checked()
         for param in signature.parameters.values() if _kind(param.annotation)]


def _call(name, **override):
    """Call a public callable with its valid examples, ``override`` replacing some."""
    signature = inspect.signature(getattr(rabi_spectra, name))
    kwargs = {p.name: VALID_FOR.get((name, p.name), VALID.get(p.name))
              for p in signature.parameters.values() if p.default is inspect.Parameter.empty}
    return getattr(rabi_spectra, name)(**{**kwargs, **override})


def test_every_checked_callable_has_examples():
    # A new public function with an int, float or complex parameter is held to
    # the contract as soon as it is exported; it needs valid examples here.
    missing = [f"{name}({param.name})" for name, signature in _checked()
               for param in signature.parameters.values()
               if param.default is inspect.Parameter.empty
               and (name, param.name) not in VALID_FOR and param.name not in VALID]
    assert missing == []
    assert all(inspect.isclass(getattr(rabi_spectra, name)) for name in RECORDS)


@pytest.mark.parametrize("name", sorted({name for name, _ in CASES}))
def test_valid_examples_are_accepted(name):
    # The contract test below changes one argument of this call at a time.
    _call(name)


@pytest.mark.parametrize("name, param", CASES)
@settings(max_examples=15)
@given(data=st.data())
def test_bad_argument_rejected_up_front(name, param, data):
    parameter = inspect.signature(getattr(rabi_spectra, name)).parameters[param]
    kind, listed = _kind(parameter.annotation)
    bad = data.draw(BAD[kind])
    with pytest.raises(RAISES.get((name, param), ValueError)) as err:
        _call(name, **{param: [bad] if listed else bad})
    if kind == "int":
        assert isinstance(err.value, InvalidParam) and err.value.field == param
