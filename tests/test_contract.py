"""Typed errors for the arrays a caller hands over: amplitudes, density-matrix entries, energies, matrices.

Every entry point that reads such an array reads it through one rule,
qcore._numbers, so a bad array raises ValidationError naming the argument
and nothing but an EmpskitError escapes.
"""

import numpy as np
import pytest

from empskit.emps import EmpsVector, emps_vectors, passive_energy, worst_slacks
from empskit.errors import ArgumentError, EmpskitError, ValidationError
from empskit.qcore import DensityMatrix, PureState, eig_hermitian, state_from_dict
from empskit.spinchain import ground_state

# Per entry point: a valid array as nested lists, the call on such an array, the names its
# ValidationError may give the array, and whether its entries are reals (so complex is bad)
_ENTRY_POINTS = {
    "PureState": ([0.6, 0.8], PureState, ("amps",), False),
    "DensityMatrix": ([[0.6, 0.0], [0.0, 0.4]], DensityMatrix, ("entries",), False),
    "EmpsVector": ([0.25, 0.5], lambda values: EmpsVector(n=2, values=values), ("values",), True),
    "emps_vectors": ([[0.6, 0.8]], emps_vectors, ("amps",), False),
    "worst_slacks": ([[0.6, 0.2, 0.3]], worst_slacks, ("energies",), True),
    "eig_hermitian": ([[0.6, 0.0], [0.0, 1.0]], eig_hermitian, ("matrix",), False),
    "passive_energy": ([[0.6, 0.0], [0.0, 1.0]], lambda ham: passive_energy(np.eye(2) / 2, ham), ("matrix",), False),
    # ragged rows meet ground_state's own shape check, anything else eig_hermitian's
    "ground_state": ([[0.6, 0.0], [0.0, 1.0]], ground_state, ("Hamiltonian", "matrix"), False),
    "state_from_dict-amps": ([[0.6, 0.0], [0.8, 0.0]], lambda amps: state_from_dict({"amps": amps}), ("amps",), True),
    "state_from_dict-entries": (
        [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.4, 0.0]],
        lambda entries: state_from_dict({"entries": entries}),
        ("entries",),
        True,
    ),
}


def _with_first_entry(valid, make):
    """valid with its first number x replaced by make(x)."""
    if isinstance(valid, list):
        return [_with_first_entry(valid[0], make), *valid[1:]]
    return make(valid)


# Each bad array, made from a valid one; the numeric string is the replaced number's own text
_BAD = {
    "ragged": lambda valid: _with_first_entry(valid, lambda x: [x, x]),
    "numeric-string": lambda valid: _with_first_entry(valid, str),
    "string": lambda valid: _with_first_entry(valid, lambda x: "x"),
    "None": lambda valid: _with_first_entry(valid, lambda x: None),
    "dict": lambda valid: {"a": 1},
    "huge-int": lambda valid: _with_first_entry(valid, lambda x: 10 ** 400),
    "complex": lambda valid: _with_first_entry(valid, lambda x: x + 0.5j),
}

# Not arrays at all: these two take a DensityMatrix or an array, and say so with ArgumentError
_NOT_AN_ARRAY = {("eig_hermitian", "dict"), ("passive_energy", "dict")}


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry, (*_, reals) in _ENTRY_POINTS.items() for bad in _BAD if reals or bad != "complex"],
)
def test_a_bad_caller_array_is_a_validation_error_naming_the_argument(entry, bad):
    valid, call, names, _ = _ENTRY_POINTS[entry]
    call(valid)  # the array this case spoils is itself accepted
    with pytest.raises(EmpskitError) as info:
        call(_BAD[bad](valid))
    if (entry, bad) in _NOT_AN_ARRAY:
        assert type(info.value) is ArgumentError
    else:
        assert type(info.value) is ValidationError
        assert any(str(info.value).startswith(name) for name in names), str(info.value)


def test_bools_and_other_numeric_dtypes_read_as_their_numbers():
    assert PureState([True, False]).amps.tolist() == [1, 0]
    assert PureState(np.array([0, 1], dtype=np.int8)).amps.tolist() == [0, 1]
    assert state_from_dict({"amps": [[True, False], [False, False]]}).amps.tolist() == [1, 0]
    assert worst_slacks(np.array([[0.5, 0.25, 0.25]], dtype=np.float32)).tolist() == [0.0]
