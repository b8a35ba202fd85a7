"""The library's contract: a rejected call raises one EmpskitError subclass, with its message.

Every rejection of the library is a row of LIBRARY_ROWS: (id, call, error type, message
pattern), where call takes no arguments. One runner checks each row the same way: the
exact error type, a re.search of the pattern, no warning of any kind, and no chain solved.
Any other exception escapes and fails the row. Two tables generate rows: the caller-array
rule (qcore._numbers names the argument) and the wrong-kind rule (a state, an energy vector,
a spec or a builder spec where another kind goes).
"""

import math
import re
import reprlib
from functools import partial
from unittest import mock

import numpy as np
import pytest

from empskit import qcore, spinchain
from empskit.classify import (
    _BUILDERS,
    StateBuilderSpec,
    build_biseparable,
    build_generalized_dicke,
    build_ghz,
    build_noisy_ghz,
    build_noisy_w,
    build_state,
    build_w,
    classify_three_qubit,
    discriminate_noisy,
    polytope_membership_3q,
    random_biseparable_three_qubit,
    slocc_orbit_sample,
)
from empskit.emps import (
    EmpsVector,
    _min_eigenvalues_numpy,
    _min_eigenvalues_scalar,
    emps,
    emps_vector,
    emps_vectors,
    eta_indicator,
    passive_energy,
    polygon_check,
    worst_slacks,
)
from empskit.errors import ArgumentError, CapacityError, EmpskitError, ValidationError
from empskit.qcore import (
    DensityMatrix,
    PureState,
    basis_state,
    eig_hermitian,
    partial_trace,
    permute_qubits,
    random_pure_state,
    reduced_density_matrix,
    state_from_dict,
    state_to_dict,
    tensor_product,
    von_neumann_entropy,
)
from empskit.spinchain import (
    SpinChainSpec,
    entropy_criterion,
    ground_state,
    indicator_sweep,
    long_range_chain,
    nearest_neighbor_chain,
    pauli_string_matrix,
    spec_from_dict,
)

# ---------------------------------------------------------------- the caller-array rule

# Per entry point: a valid array as nested lists, the call on such an array, the name its
# ValidationError gives the array, and whether its entries are reals (so complex is bad)
_ENTRY_POINTS = {
    "PureState": ([0.6, 0.8], PureState, "amps", False),
    "DensityMatrix": ([[0.6, 0.0], [0.0, 0.4]], DensityMatrix, "entries", False),
    "EmpsVector": ([0.25, 0.5], lambda values: EmpsVector(n=2, values=values), "values", True),
    "emps_vectors": ([[0.6, 0.8]], emps_vectors, "amps", False),
    "worst_slacks": ([[0.6, 0.2, 0.3]], worst_slacks, "energies", True),
    "eig_hermitian": ([[0.6, 0.0], [0.0, 1.0]], eig_hermitian, "matrix", False),
    "passive_energy": ([[0.6, 0.0], [0.0, 1.0]], lambda ham: passive_energy(np.eye(2) / 2, ham), "matrix", False),
    "ground_state": ([[0.6, 0.0], [0.0, 1.0]], ground_state, "matrix", False),
    "state_from_dict-amps": ([[0.6, 0.0], [0.8, 0.0]], lambda amps: state_from_dict({"amps": amps}), "amps", True),
    "state_from_dict-entries": (
        [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.4, 0.0]],
        lambda entries: state_from_dict({"entries": entries}),
        "entries",
        True,
    ),
}


def _with_first_entry(valid, make):
    """valid with its first number x replaced by make(x)."""
    if isinstance(valid, list):
        return [_with_first_entry(valid[0], make), *valid[1:]]
    return make(valid)


# Each bad array, made from a valid one, and what the rule says it found; the numeric string
# is the replaced number's own text
_BAD = {
    "ragged": (lambda valid: _with_first_entry(valid, lambda x: [x, x]), "ragged rows"),
    "numeric-string": (lambda valid: _with_first_entry(valid, str), "dtype <U"),
    "string": (lambda valid: _with_first_entry(valid, lambda x: "x"), "dtype <U"),
    "None": (lambda valid: _with_first_entry(valid, lambda x: None), "dtype object"),
    "dict": (lambda valid: {"a": 1}, "dtype object"),
    "huge-int": (lambda valid: _with_first_entry(valid, lambda x: 10 ** 400), "dtype object"),
    "complex": (lambda valid: _with_first_entry(valid, lambda x: x + 0.5j), "dtype complex128"),
}

# Not arrays at all: these two take a DensityMatrix or an array, and say so with ArgumentError
_NOT_AN_ARRAY = {("eig_hermitian", "dict"), ("passive_energy", "dict")}


def _caller_array_rows():
    for entry, (valid, call, name, reals) in _ENTRY_POINTS.items():
        for bad, (make, found) in _BAD.items():
            if not reals and bad == "complex":
                continue
            if (entry, bad) in _NOT_AN_ARRAY:
                kind, pattern = ArgumentError, "^expected a DensityMatrix or a Hermitian array, got dict$"
            else:
                kind, pattern = ValidationError, f"^{name} must be .*a rectangular array of numbers, got {found}"
            yield pytest.param(partial(call, make(valid)), kind, pattern, id=f"{entry}-{bad}")


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_each_entry_point_accepts_the_array_its_rows_spoil(entry):
    valid, call, _, _ = _ENTRY_POINTS[entry]
    call(valid)


def test_bools_and_other_numeric_dtypes_read_as_their_numbers():
    assert PureState([True, False]).amps.tolist() == [1, 0]
    assert PureState(np.array([0, 1], dtype=np.int8)).amps.tolist() == [0, 1]
    assert state_from_dict({"amps": [[True, False], [False, False]]}).amps.tolist() == [1, 0]
    assert worst_slacks(np.array([[0.5, 0.25, 0.25]], dtype=np.float32)).tolist() == [0.0]


# ---------------------------------------------------------------- the wrong-kind rule

# One value of each kind a caller might pass where a state or an energy vector goes, by type name
_KINDS = {
    "PureState": lambda: build_w([0.5, 0.25, 0.25]),
    "DensityMatrix": lambda: build_noisy_w(0.2),
    "ndarray": lambda: build_w([0.5, 0.25, 0.25]).amps,
    "EmpsVector": lambda: emps_vector(build_w([0.5, 0.25, 0.25])),
    "list": lambda: [0.5, 0.5],
    "dict": lambda: {"family": "w"},
    "NoneType": lambda: None,
}
_NOT_A_STATE = ("ndarray", "EmpsVector", "list", "NoneType")
_NOT_A_VECTOR = ("PureState", "DensityMatrix", "ndarray", "list", "NoneType")
_STATE = "needs a PureState or DensityMatrix"
_WRONG_KINDS = [
    ("emps_vector", emps_vector, _NOT_A_STATE, _STATE),
    ("emps", lambda x: emps(x, 1), _NOT_A_STATE, _STATE),
    ("reduced_density_matrix", lambda x: reduced_density_matrix(x, [1]), _NOT_A_STATE, _STATE),
    ("partial_trace", lambda x: partial_trace(x, [1]), _NOT_A_STATE, _STATE),
    ("state_to_dict", state_to_dict, _NOT_A_STATE, _STATE),
    ("discriminate_noisy", lambda x: discriminate_noisy(x, "w"), _NOT_A_STATE, _STATE),
    ("von_neumann_entropy", von_neumann_entropy, ("PureState", *_NOT_A_STATE), "needs a DensityMatrix"),
    ("polygon_check", polygon_check, _NOT_A_VECTOR, "needs an EmpsVector"),
    ("polytope_membership_3q", lambda x: polytope_membership_3q(x, "w"), _NOT_A_VECTOR, "needs an EmpsVector"),
    ("eta_indicator", eta_indicator, ("ndarray", "list", "NoneType"), _STATE),
    ("eig_hermitian", eig_hermitian, ("PureState", "EmpsVector"), "expected a DensityMatrix or a Hermitian array"),
    ("passive_energy", lambda x: passive_energy(x, np.diag([0.0, 1.0])), ("PureState", "EmpsVector"),
     "expected a DensityMatrix or a Hermitian array"),
    ("build_state", build_state, ("PureState", "ndarray", "list", "dict", "NoneType"), "needs a StateBuilderSpec"),
    ("indicator_sweep", lambda x: indicator_sweep(x, "h", [1.0]), ("PureState", "list", "dict", "NoneType"),
     "needs a SpinChainSpec"),
    ("indicator_sweep-values", lambda x: indicator_sweep(long_range_chain(), "h", x),
     ("PureState", "DensityMatrix", "EmpsVector", "NoneType"), "sweep values must be an iterable of numbers"),
]


def _wrong_kind_rows():
    for name, call, kinds, message in _WRONG_KINDS:
        for kind in kinds:
            yield pytest.param(lambda call=call, kind=kind: call(_KINDS[kind]()), ArgumentError,
                               f"{re.escape(message)}, got {kind}$", id=f"{name}-{kind}")


# ---------------------------------------------------------------- declared sizes

# each declared size's constructor, with the size its data has
_DECLARED_SIZES = {
    "EmpsVector": (lambda size: EmpsVector(n=size, values=[0.1]), "n", 1),
    "PureState": (lambda size: PureState([1, 0], n=size), "n", 1),
    "DensityMatrix": (lambda size: DensityMatrix(np.eye(2) / 2, dim=size), "dim", 2),
}


@pytest.mark.parametrize("kind", list(_DECLARED_SIZES))
def test_declared_sizes_take_numpy_integers_and_a_state_infers_a_missing_one(kind):
    make, field, good = _DECLARED_SIZES[kind]
    if kind != "EmpsVector":  # a state's size is optional: None means infer it
        assert getattr(make(None), field) == good
    made = getattr(make(np.int64(good)), field)
    assert type(made) is int and made == good


# ---------------------------------------------------------------- the table


def _no_solve(*args, **kwargs):
    raise AssertionError("a rejected call must not reach a solver")


def _unsolved_ground_state(ham):
    """ground_state(ham) with the dense eigensolver swapped out, so the matrix is rejected before any solve."""
    with mock.patch.object(qcore, "_eigh", _no_solve):
        ground_state(ham)


def _built(family, params):
    """The call that builds a state from a builder spec."""
    return lambda: build_state(StateBuilderSpec(family=family, params=params))


def _bell():
    return PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


_PURE = [[1.0, 0.0], [0.0, 0.0]]  # |0> as a state file's [re, im] pairs
_MIXED = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]  # the maximally mixed qubit
_NAN, _INF = float("nan"), float("inf")
_ECHO_10_400 = r"10{17}\.\.\.0{19}"  # 10**400 as a message echoes it: 40 characters
_NOT_HERMITIAN = r"matrix is not Hermitian: max \|M - M\^dag\| = "
_TOO_LARGE = r"J, h and extra_terms are too large: the sum of the chain's \|coefficients\| is not finite"
_HUGE = "must be a finite number, got an integer past the float range"
_SWEEP = [0.5, 1.0, 1.5, 2.0]
_NEGATIVE_MARGINAL = np.tile(np.eye(2, dtype=complex) / 2, (3, 4, 1, 1))
_NEGATIVE_MARGINAL[1, 2] = [[0.5, 0.6], [0.6, 0.5]]  # eigenvalues -0.1 and 1.1, at qubit 3

LIBRARY_ROWS = [
    *_caller_array_rows(),
    *_wrong_kind_rows(),
    *(pytest.param(partial(make, bad),
                   ValidationError, f"must be an integer, got {re.escape(repr(bad))}$",
                   id=f"{kind}-declared-size-{bad!r}")
      for kind, (make, _, good) in _DECLARED_SIZES.items()
      for bad in (True, float(good), str(good), None) if bad is not None or kind == "EmpsVector"),
    # ---------------------------------------------------------------- qcore: states
    pytest.param(lambda: PureState([1.0, 1.0]),
                 ValidationError, "^state is not normalized", id="PureState-unnormalized"),
    pytest.param(lambda: PureState([1.0, 0.0, 0.0]),
                 ValidationError, "^state vector dimension 3 is not a power of two$", id="PureState-length-3"),
    pytest.param(lambda: PureState([_NAN, 0.0]),
                 ValidationError, r"^state is not normalized: sum \|amps\|\^2 = nan", id="PureState-nan"),
    *(pytest.param(lambda amps=amps: PureState(np.array(amps)),
                   ValidationError, "^state is not normalized", id=f"PureState-{name}")
      for name, amps in (("inf", [_INF, 0.0]), ("complex-inf", [complex(0.0, _INF), 0.0]),
                         ("inf-minus-inf", [_INF, -_INF]))),
    pytest.param(lambda: PureState(np.eye(1, 2 ** 13)[0]),
                 CapacityError, "^state vector needs 13 qubits, limit is 12$", id="PureState-13-qubits"),
    pytest.param(lambda: DensityMatrix([[_NAN, 0.0], [0.0, 0.5]]),
                 ValidationError, f"^density {_NOT_HERMITIAN}nan$", id="DensityMatrix-nan"),
    pytest.param(lambda: DensityMatrix([[0.5, 0.1], [0.3, 0.5]]),
                 ValidationError, "Hermitian", id="DensityMatrix-not-hermitian"),
    pytest.param(lambda: DensityMatrix(np.diag([0.7, 0.7])), ValidationError, "trace", id="DensityMatrix-trace"),
    *(pytest.param(lambda d=d: DensityMatrix(np.diag(d)),
                   ValidationError, r"density matrix trace is \(inf\+0j\), expected 1",
                   id=f"DensityMatrix-trace-past-the-float-range-{len(d)}")
      for d in ([1e308] * 2, [1e308] * 4)),  # the halves of four entries still sum past the range
    pytest.param(lambda: DensityMatrix([[0.5, 1e308], [-1e308, 0.5]]),
                 ValidationError, "density matrix is not Hermitian", id="DensityMatrix-skew-past-the-float-range"),
    pytest.param(lambda: eig_hermitian([[0.5, 1e308], [-1e308, 0.5]]),
                 ValidationError, "matrix is not Hermitian", id="eig_hermitian-skew-past-the-float-range"),
    pytest.param(lambda: DensityMatrix([[0.5, 1e308], [1e308, 0.5]]),
                 ValidationError, r"negative eigenvalue -1\.000e\+308",
                 id="DensityMatrix-eigenvalue-past-the-float-range"),
    pytest.param(lambda: eig_hermitian([[_INF, 0], [0, 0]]),
                 ValidationError, f"^{_NOT_HERMITIAN}nan$", id="eig_hermitian-inf"),
    pytest.param(lambda: DensityMatrix([[_INF, 0], [0, 0]]),
                 ValidationError, f"^density {_NOT_HERMITIAN}nan$", id="DensityMatrix-inf"),
    pytest.param(lambda: passive_energy(np.eye(2) / 2, [[_INF, 0], [0, 0]]),
                 ValidationError, f"^{_NOT_HERMITIAN}nan$", id="passive_energy-inf"),
    pytest.param(lambda: DensityMatrix(np.diag([1.5, -0.5])),
                 ValidationError, "negative eigenvalue", id="DensityMatrix-negative-eigenvalue"),
    pytest.param(lambda: DensityMatrix(np.eye(3) / 3),
                 ValidationError, "^density matrix dimension 3 is not a power of two$", id="DensityMatrix-dim-3"),
    pytest.param(lambda: DensityMatrix([[1.0]]), ValidationError, "at least one qubit", id="DensityMatrix-dim-1"),
    pytest.param(lambda: DensityMatrix(np.full((2, 4), 0.25)),
                 ValidationError, r"must be square, got shape \(2, 4\)", id="DensityMatrix-not-square"),
    pytest.param(lambda: DensityMatrix(np.full(4, 0.25)),
                 ValidationError, "must be square", id="DensityMatrix-one-axis"),
    pytest.param(lambda: DensityMatrix(np.eye(2) / 2, dim=4),
                 ValidationError, "declared dim=4 but entries are 2x2", id="DensityMatrix-declared-dim"),
    pytest.param(lambda: basis_state("01a"),
                 ValidationError, "^basis label must be a nonempty string of 0/1, got '01a'$", id="basis_state-label"),
    pytest.param(lambda: basis_state("0" * 13), CapacityError, "13 qubits", id="basis_state-13-qubits"),
    *(pytest.param(partial(random_pure_state, n),
                   ArgumentError, rf"qubit count must be in 1\.\.12, got {n}", id=f"random_pure_state-{n}")
      for n in (13, 0)),
    pytest.param(lambda: tensor_product(basis_state("0"), basis_state("1").density()),
                 ArgumentError, "^tensor_product operands must both be PureState or both DensityMatrix$",
                 id="tensor_product-kinds"),
    pytest.param(lambda: tensor_product(basis_state("0" * 7), basis_state("1" * 7)),
                 CapacityError, "^tensor product needs 14 qubits, limit is 12$", id="tensor_product-14-qubits"),
    # ---------------------------------------------------------------- qcore: qubit labels
    pytest.param(lambda: permute_qubits(basis_state("0000"), (1, 1, 2, 3)),
                 ArgumentError, r"^order must be a permutation of 1\.\.4, got \(1, 1, 2, 3\)$",
                 id="permute_qubits-repeated"),
    pytest.param(lambda: partial_trace(_bell().density(), ()),
                 ArgumentError, "^keep must name at least one qubit$", id="partial_trace-empty"),
    pytest.param(lambda: partial_trace(_bell().density(), (1, 1)),
                 ArgumentError, r"^keep has duplicate qubit indices: \[1, 1\]$", id="partial_trace-repeated"),
    pytest.param(lambda: partial_trace(_bell().density(), (3,)),
                 ArgumentError, r"^qubit index 3 out of range 1\.\.2$", id="partial_trace-out-of-range"),
    *(pytest.param(call, ArgumentError, "must be an integer, got", id=name) for name, call in (
        ("trace-float", lambda: partial_trace(_bell().density(), (1.0,))),
        ("trace-bool", lambda: partial_trace(_bell().density(), (True,))),
        ("rdm-float", lambda: reduced_density_matrix(random_pure_state(3, np.random.default_rng(1)), (1.0, 2))),
        ("rdm-np-float", lambda: reduced_density_matrix(_bell(), (np.float64(2),))),
        ("permute-float", lambda: permute_qubits(random_pure_state(3, np.random.default_rng(1)), (2.0, 1.0, 3.0))),
        ("permute-bool", lambda: permute_qubits(_bell(), (True, 2))),
        ("random-float", lambda: random_pure_state(3.0)),
        ("random-bool", lambda: random_pure_state(True)),
        ("random-str", lambda: random_pure_state("3")),
    )),
    # ---------------------------------------------------------------- qcore: eigensolver and entropy
    pytest.param(lambda: eig_hermitian([[0.0, 1.0], [0.0, 0.0]]),
                 ValidationError, "Hermitian", id="eig_hermitian-not-hermitian"),
    # |1.3e308 (1 + i)| is past the float range, and so is the defect; the tolerance is taken from the halves
    pytest.param(lambda: eig_hermitian([[0.5, 1.3e308 + 1.3e308j], [-1.3e308 + 1.3e308j, 0.5]]),
                 ValidationError, f"{_NOT_HERMITIAN}inf", id="eig_hermitian-moduli-past-the-float-range"),
    *(pytest.param(lambda shape=shape: eig_hermitian(np.zeros(shape)),
                   ValidationError, "nonempty square matrix", id=f"eig_hermitian-empty-{shape}")
      for shape in ((0, 0), (3, 0, 0), (0, 2, 2))),
    pytest.param(lambda: eig_hermitian(np.stack([np.eye(4)] * 3 + [np.eye(4) + 1e-3 * np.eye(4, k=1)])),
                 ValidationError, "Hermitian", id="eig_hermitian-stack"),
    pytest.param(lambda: eig_hermitian([[1, 0], [0]]),
                 ValidationError, "matrix must be a rectangular array of numbers", id="eig_hermitian-short-row"),
    pytest.param(lambda: eig_hermitian([["a", "b"], ["c", "d"]]),
                 ValidationError, "matrix must be a rectangular array of numbers", id="eig_hermitian-strings"),
    pytest.param(lambda: qcore._entropy_bits(np.array([[0.0, 0.5, 0.5], [-0.2, 0.2, 1.0], [0.0, 0.0, 1.0]])),
                 ValidationError, r"eigenvalue -2\.000e-01 below .*not a density matrix",
                 id="stacked-entropy-below-floor"),
    pytest.param(lambda: von_neumann_entropy(DensityMatrix._trusted(np.diag([1.2, -0.2]).astype(complex))),
                 ValidationError, "eigenvalue", id="von_neumann_entropy-below-floor"),
    # ---------------------------------------------------------------- qcore: state files
    pytest.param(lambda: state_from_dict({"amps": [1.0, 0.0]}),
                 ValidationError, r"^amps must be a list of \[re, im\] pairs, got shape \(2,\)$",
                 id="state_from_dict-flat-amps"),
    pytest.param(lambda: state_from_dict({"n": 2}),
                 ValidationError, '^state description needs "amps" or "entries"$', id="state_from_dict-no-form"),
    pytest.param(lambda: state_from_dict({"n": 2, "amps": _PURE}),
                 ValidationError, r"^declared n=2 but amplitude vector has 2\^1 entries$",
                 id="state_from_dict-n-mismatch"),
    pytest.param(lambda: state_from_dict([1, 2, 3]),
                 ValidationError, "^state description must be a JSON object$", id="state_from_dict-list"),
    *(pytest.param(partial(state_from_dict, {field: value, "entries" if field == "dim" else "amps": data}),
                   ValidationError, f'"{field}" must be an integer', id=f"state_from_dict-{field}-{value!r}")
      for field, value, data in (("dim", "2", _MIXED), ("dim", 2.0, _MIXED), ("dim", True, _MIXED),
                                 ("n", True, _PURE), ("n", 1.0, _PURE))),
    pytest.param(lambda: state_from_dict({"dim": -2, "entries": _MIXED}),
                 ValidationError, r"not dim\^2 for dim=-2", id="state_from_dict-dim-negative"),
    pytest.param(lambda: state_from_dict({"entries": [[0.5, 0.0]] * 5}),
                 ValidationError, r"not dim\^2 for dim=2", id="state_from_dict-five-entries"),
    *(pytest.param(partial(state_from_dict, payload), ValidationError, message, id=f"state_from_dict-{name}")
      for name, payload, message in (
          ("amps-beside-N", {"N": 1, "amps": _PURE}, r"fields \['N'\] outside \['amps', 'n'\]"),
          ("entries-beside-n", {"dim": 2, "entries": [[1.0, 0.0]] * 4, "n": 1},
           r"fields \['n'\] outside \['entries', 'dim'\]"),
          ("amps-and-entries", {"amps": _PURE, "entries": [[1.0, 0.0]]}, r"fields \['entries'\] outside"),
          ("n-alone", {"n": 1}, 'needs "amps" or "entries"'),
          ("builder", {"builder": "w", "params": {"coeffs": [0.5, 0.5]}}, 'needs "amps" or "entries"'),
          ("string", "amps", "state description must be a JSON object"),
      )),
    *(pytest.param(partial(state_from_dict, {field: values}),
                   ValidationError, rf"{field} must be a list of \[re, im\] pairs",
                   id=f"state_from_dict-{field}-pair-{i}")
      for field in ("amps", "entries")
      for i, values in enumerate(([["a", 0.0], [0.0, 0.0]], [[1.0, {}], [0.0, 0.0]], [[1.0, [0.0]], [0.0, 0.0]]))),
    # ---------------------------------------------------------------- emps
    pytest.param(lambda: passive_energy(DensityMatrix(np.eye(2) / 2), np.eye(4)),
                 ArgumentError, "^state dimension 2 does not match Hamiltonian dimension 4$",
                 id="passive_energy-dimensions"),
    *(pytest.param(lambda ham=hamiltonian: passive_energy(np.eye(2) / 2, ham),
                   ValidationError, "rectangular array of numbers", id=f"passive_energy-{name}")
      for name, hamiltonian in (("short-row", [[1, 2], [3]]), ("strings", [["a", "b"], ["c", "d"]]))),
    *(pytest.param(lambda q=q: emps(basis_state("00"), q),
                   ArgumentError, rf"^qubit index {echo} out of range 1\.\.2$", id=f"emps-qubit-{name}")
      for name, q, echo in (("3", 3, 3), ("0", 0, 0), ("10**400", 10 ** 400, _ECHO_10_400))),
    *(pytest.param(lambda state=state, qubit=qubit: emps(state(), qubit),
                   ArgumentError, "must be an integer, got", id=f"emps-{kind}-qubit-{qubit!r}")
      for qubit in (1.0, np.float64(2), True, "1", None)
      for kind, state in (("pure", lambda: basis_state("00")), ("mixed", lambda: basis_state("00").density()))),
    pytest.param(lambda: EmpsVector(n=3, values=np.array([0.6, 0.0, 0.0])),
                 ValidationError, r"^marginal passive energies must lie in \[0, 1/2\], got \[0\.6, 0\.0, 0\.0\]$",
                 id="EmpsVector-past-one-half"),
    pytest.param(lambda: EmpsVector(n=2, values=np.array([0.1, 0.1, 0.1])),
                 ValidationError, "^declared n=2 but got 3 values$", id="EmpsVector-count"),
    pytest.param(lambda: EmpsVector(n=0, values=[]), ValidationError, "at least one qubit", id="EmpsVector-no-qubit"),
    pytest.param(lambda: emps_vectors(np.full(8, 8 ** -0.5)), ValidationError, "shape", id="emps_vectors-one-axis"),
    pytest.param(lambda: emps_vectors(np.full((2, 6), 6 ** -0.5)),
                 ValidationError, "power of two", id="emps_vectors-length-6"),
    pytest.param(lambda: emps_vectors(np.eye(1, 2 ** 13)), CapacityError, "13 qubits", id="emps_vectors-13-qubits"),
    pytest.param(lambda: emps_vectors(np.full((4, 8), 8 ** -0.5) * [[1], [1], [1.01], [1]]),
                 ValidationError, "amplitude row 2 is not normalized", id="emps_vectors-row-2"),
    pytest.param(lambda: worst_slacks(np.zeros((3, 0))),
                 ValidationError, "nonempty last axis", id="worst_slacks-empty"),
    *(pytest.param(partial(emps_vectors, [[1, 0]] * k + [row]),
                   ValidationError, f"amplitude row {k} is not normalized", id=f"emps_vectors-{row}-at-{k}")
      for row in ([1e200, 0], [0, 1e200j], [1e308, 1e308], [_INF, 0], [_NAN, 0]) for k in (0, 1)),
    pytest.param(lambda: emps_vectors(np.zeros((6, 16), dtype=complex)[:, 1::2]),
                 ValidationError, "amplitude row 0 is not normalized", id="emps_vectors-strided-zeros"),
    *(pytest.param(partial(path, _NEGATIVE_MARGINAL, range(1, 5)),
                   ValidationError, r"^marginal of qubit 3 has eigenvalue -1\.000e-01 < 0$",
                   id=f"{path.__name__}-below-the-floor")
      for path in (_min_eigenvalues_scalar, _min_eigenvalues_numpy)),
    pytest.param(lambda: emps_vector(DensityMatrix._trusted(np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))),
                 ValidationError, "qubit 1", id="emps_vector-negative-marginal"),
    pytest.param(lambda: eta_indicator(basis_state("00")),
                 ArgumentError, "^energy indicator needs at least 3 qubits, got n=2$", id="eta_indicator-two-qubits"),
    pytest.param(lambda: eta_indicator(EmpsVector(2, np.array([0.1, 0.1]))),
                 ArgumentError, "^energy indicator needs at least 3 qubits, got n=2$", id="eta_indicator-two-energies"),
    # ---------------------------------------------------------------- classify: builders
    *(pytest.param(_built(family, params),
                   ValidationError, message, id=f"build_state-{family}-{params}")
      for family, params, message in (
          ("ghz", {"n": 3, "theta": 0.0}, "theta"),
          ("ghz", {"n": 3, "theta": 1.0}, "theta"),
          ("w", {"coeffs": [0.5, 0.2]}, "sum"),
          ("w", {"coeffs": [1.2, -0.2, 0.0]}, ">= 0"),
          ("dicke", {"n": 4, "l": 0}, "l <="),
          ("dicke", {"n": 4, "l": 4}, "l <="),
          ("generalized_dicke", {"n": 3, "l": 1, "coeffs": [1.0, 0.0]}, "count"),
          ("generalized_dicke", {"n": 3, "l": 1, "coeffs": [1.0, 1.0, 1.0]}, "norm"),
          ("biseparable", {"alpha": 1.0, "beta": 1.0, "position": 2}, "alpha"),
          ("biseparable", {"alpha": 1.0, "beta": 0.0, "position": 4}, "position"),
          ("noisy_w", {"v1": 1.5}, "v1"),
          ("noisy_ghz", {"v2": -0.1}, "v2"),
          ("cluster", {}, "unknown state family"),
          ("ghz", {"n": 3}, "missing"),
          ("ghz", {"n": 3, "theta": 0.5, "x": 1}, "unknown parameters"),
          ("ghz", [1, 2], "family 'ghz' parameters must be an object, got list"),
          ("ghz", {"n": "3", "theta": 0.5}, "builder parameters violate: 2 <= n <= 12"),
      )),
    *(pytest.param(_built(family, params),
                   ValidationError, f"family '{family}' got a parameter of the wrong type",
                   id=f"build_state-{family}-{params}")
      for family, params in (
          ("ghz", {"n": 3, "theta": "x"}),
          ("ghz", {"n": 3, "theta": None}),
          ("w", {"coeffs": "abc"}),
          ("biseparable", {"alpha": "x", "beta": 1.0, "position": 1}),
          ("noisy_ghz", {"v2": [0.1]}),
          ("noisy_w", {"v1": "0.5"}),
          ("noisy_ghz", {"v2": None}),
      )),
    *(pytest.param(_built(family, params),
                   ValidationError, f"builder parameters violate: .*{message}", id=f"build_state-{family}-{params}")
      for family, params, message in (
          ("ghz", {"n": True, "theta": 0.5}, "2 <= n"),
          ("ghz", {"n": 3.0, "theta": 0.5}, "2 <= n"),
          ("dicke", {"n": 3, "l": True}, "1 <= l"),
          ("dicke", {"n": 3, "l": 1.0}, "1 <= l"),
          ("generalized_dicke", {"n": 3, "l": True, "coeffs": [0.6, 0.8, 0.0]}, "1 <= l"),
          ("biseparable", {"alpha": 0.6, "beta": 0.8, "position": 1.0}, "position"),
          ("biseparable", {"alpha": 0.6, "beta": 0.8, "position": True}, "position"),
          ("noisy_w", {"v1": True}, "v1"),
          ("noisy_ghz", {"v2": False}, "v2"),
      )),
    # past the float range, called directly and through build_state
    *(pytest.param(call,
                   ValidationError, f"builder parameters violate: {message}", id=f"{via}-{family}-{params['coeffs']}")
      for family, params, message in (
          ("generalized_dicke", {"n": 3, "l": 1, "coeffs": [1e200, 0, 0]}, "coefficients have unit norm"),
          ("generalized_dicke", {"n": 3, "l": 1, "coeffs": [1e200j, 1e200, 0]}, "coefficients have unit norm"),
          ("w", {"coeffs": [1e308, 1e308]}, "sum of coefficients equals 1"),
          ("w", {"coeffs": [1e308, 1e308, 1e308]}, "sum of coefficients equals 1"),
      )
      for via, call in (("builder", partial(_BUILDERS[family][0], **params)),
                        ("build_state", _built(family, params)))),
    *(pytest.param(call, kind, message, id=name) for name, kind, message, call in (
        ("ghz-theta", ArgumentError, "^theta must be a number, got 'x'$", lambda: build_ghz(3, "x")),
        ("w-coeffs", ArgumentError, "^coeffs must be a rectangular array of numbers, got dtype <U3$",
         lambda: build_w(["0.5", "0.5"])),
        ("generalized_dicke-coeffs", ArgumentError, "^coeffs must be a rectangular array of numbers, got dtype <U1$",
         lambda: build_generalized_dicke(3, 1, ["a", "b", "c"])),
        ("biseparable-alpha", ArgumentError, "^alpha and beta must be numbers, got 'x' and 1.0$",
         lambda: build_biseparable("x", 1.0, 1)),
        ("biseparable-huge", ValidationError, r"^builder parameters violate: \|alpha\|\^2 \+ \|beta\|\^2 = 1$",
         lambda: build_biseparable(10 ** 400, 0.0, 1)),
        ("noisy_w", ArgumentError, "^v1 must be a number, got '0.5'$", lambda: build_noisy_w("0.5")),
        ("noisy_ghz", ArgumentError, r"^v2 must be a number, got \[0.1\]$", lambda: build_noisy_ghz([0.1])),
        ("biseparable-float-position", ValidationError, "position in", lambda: build_biseparable(0.6, 0.8, 1.0)),
    )),
    *(pytest.param(partial(build_biseparable, alpha, beta, 2),
                   ValidationError, r"builder parameters violate: \|alpha\|\^2",
                   id=f"biseparable-bool-amplitudes-{alpha}-{beta}")
      for alpha, beta in ((True, False), (False, True), (True, 0.0))),
    *(pytest.param(lambda cut=cut: random_biseparable_three_qubit(np.random.default_rng(0), cut=cut),
                   ArgumentError, f"cut must be 1, 2, or 3, got {cut}", id=f"random_biseparable-cut-{cut}")
      for cut in (4, True)),
    # ---------------------------------------------------------------- classify: verdicts and orbits
    pytest.param(lambda: classify_three_qubit(basis_state("0101")),
                 ArgumentError, "^classification needs a 3-qubit pure state$", id="classify-four-qubits"),
    pytest.param(lambda: classify_three_qubit(build_ghz(4, 0.5)),
                 ArgumentError, "classification needs a 3-qubit pure state", id="classify-four-qubit-ghz"),
    pytest.param(lambda: classify_three_qubit(build_noisy_w(0.1)),
                 ArgumentError, "^classification needs a pure state$", id="classify-mixed"),
    *(pytest.param(lambda call=call: call(build_noisy_w(0.2)),
                   ArgumentError, "needs a pure state", id=f"{name}-density-matrix")
      for name, call in (("slocc_orbit_sample", lambda rho: slocc_orbit_sample(rho, 2)),
                         ("entropy_criterion", entropy_criterion),
                         ("permute_qubits", lambda rho: permute_qubits(rho, (2, 1, 3))),
                         ("classify_three_qubit", classify_three_qubit))),
    pytest.param(lambda: polytope_membership_3q(EmpsVector(4, np.zeros(4)), "w"),
                 ArgumentError, "^polytope facets are defined for n=3, got n=4$", id="polytope-four-qubits"),
    pytest.param(lambda: polytope_membership_3q(EmpsVector(3, np.zeros(3)), "bell"),
                 ArgumentError, "^polytope must be 'w' or 'ghz', got 'bell'$", id="polytope-bell"),
    pytest.param(lambda: discriminate_noisy(build_noisy_w(0.1), "bell"),
                 ArgumentError, "^which must be 'w' or 'ghz', got 'bell'$", id="discriminate-bell"),
    *(pytest.param(lambda which=which: discriminate_noisy(build_noisy_w(0.1), which),
                   ArgumentError, "which must be 'w' or 'ghz'", id=f"discriminate-{which!r}")
      for which in (None, 3, ("w",))),
    pytest.param(lambda: discriminate_noisy(DensityMatrix(np.eye(4) / 4), "w"),
                 ArgumentError, "^noisy discrimination is defined for 3 qubits, got n=2$",
                 id="discriminate-two-qubits"),
    pytest.param(lambda: slocc_orbit_sample(basis_state("000"), 0),
                 ArgumentError, "^sample count must be >= 1, got 0$", id="orbit-zero-samples"),
    pytest.param(lambda: slocc_orbit_sample(basis_state("000"), 2, seed=-1),
                 ArgumentError, "orbit seed must be a non-negative integer, got -1", id="orbit-negative-seed"),
    *(pytest.param(lambda count=count, seed=seed: slocc_orbit_sample(basis_state("000"), count, seed=seed),
                   ArgumentError, "must be an integer, got", id=f"orbit-count-{count!r}-seed-{seed!r}")
      for count, seed in ((2.0, 1), (True, 1), ("2", 1), (None, 1), (np.float64(2), 1),
                          (2, 1.5), (2, None), (2, False), (2, "7"), (2, np.float64(3)))),
    # counts past the address space: numpy's own error would be a ValueError
    pytest.param(lambda: slocc_orbit_sample(basis_state("000"), 10 ** 19),
                 CapacityError, "^sample count 10000000000000000000 is too large to hold in memory$",
                 id="orbit-count-10**19"),
    pytest.param(lambda: slocc_orbit_sample(basis_state("000"), 10 ** 400),
                 CapacityError, f"^sample count {_ECHO_10_400} is too large to hold in memory$",
                 id="orbit-count-10**400"),
    # ---------------------------------------------------------------- spinchain: specs
    pytest.param(lambda: pauli_string_matrix("XQ"),
                 ValidationError, "invalid letters", id="pauli_string_matrix-letters"),
    pytest.param(lambda: SpinChainSpec(N=4, extra_terms=((1.0, "XX"),)),
                 ValidationError, "length", id="spec-term-length"),
    pytest.param(lambda: SpinChainSpec(N=2, extra_terms=((1.0, "XQ"),)),
                 ValidationError, "invalid letters", id="spec-term-letters"),
    *(pytest.param(partial(SpinChainSpec, N=n), ValidationError, message, id=f"spec-N-{reprlib.repr(n)}")
      for n, message in (
          (1, "site count"),
          (13, "site count"),
          (10 ** 400, rf"^site count N must be in 2\.\.12, got {_ECHO_10_400}$"),
          (4.5, "site count N must be an integer"),
          (4.0, "site count N must be an integer"),
          ("5", "site count N must be an integer"),
          (None, "site count N must be an integer"),
          (True, "site count N must be an integer, got True"),
      )),
    *(pytest.param(partial(SpinChainSpec, N=2, extra_terms=terms),
                   ValidationError, "extra_terms must be", id=f"spec-terms-{terms}")
      for terms in ((("x", "XX"),), ((1.0,),), ((None, "XX"),), (1.0,), ((1.0, "XX", 2.0),))),
    # a bool, a string or None is not a number; an integer past the float range is not a finite one
    *(pytest.param(partial(SpinChainSpec, N=3, **{name: value}),
                   ValidationError, message, id=f"spec-{name}-{reprlib.repr(value)}")
      for name in ("J", "h")
      for value, message in (*((bad, f"^{name} must be a number, got {bad!r}$") for bad in (True, False, "1.5", None)),
                             (10 ** 400, f"^{name} {_HUGE}$"), (-(10 ** 400), f"^{name} {_HUGE}$"))),
    *(row for letters in ("ZZ", "XX", "yzx") for coeff in (_NAN, _INF, -_INF) for row in (
        pytest.param(partial(SpinChainSpec, N=len(letters), J=coeff),
                     ValidationError, "J must be a finite number", id=f"spec-J-{coeff}-{letters}"),
        pytest.param(partial(SpinChainSpec, N=len(letters), h=coeff),
                     ValidationError, "h must be a finite number", id=f"spec-h-{coeff}-{letters}"),
        pytest.param(partial(SpinChainSpec, N=len(letters), extra_terms=((1.0, "I" * len(letters)), (coeff, letters))),
                     ValidationError, f"extra_terms coefficient of '{letters.upper()}' must be finite",
                     id=f"spec-term-{coeff}-{letters}"),
        pytest.param(lambda coeff=coeff: indicator_sweep(nearest_neighbor_chain(N=3), "h", [1.0, coeff]),
                     ValidationError, "h must be a finite number", id=f"sweep-h-{coeff}-{letters}"),
    )),
    *(pytest.param(partial(SpinChainSpec, N=4, **fields), ValidationError, _TOO_LARGE, id=f"spec-coefficients-{name}")
      for name, fields in (("h", {"h": 1e308}), ("J_and_h", {"J": -1e308, "h": 1e308}),
                           ("extra_terms", {"extra_terms": ((1e308, "XXXX"), (-1e308, "ZIIZ"))}))),
    *(pytest.param(partial(SpinChainSpec, N=2, extra_terms=((1.0, "XX"), (coeff, "ZZ"))),
                   ValidationError, "extra_terms must be", id=f"spec-term-coefficient-{coeff!r}")
      for coeff in ("1.5", True, False, None)),
    # ---------------------------------------------------------------- spinchain: spec files
    *(pytest.param(partial(spec_from_dict, payload),
                   ValidationError, message, id=f"spec_from_dict-{reprlib.repr(payload)}")
      for payload, message in (
          ({"N": 5, "bogus": 1}, r"^spin chain spec has fields \['bogus'\] outside \['N', 'J', 'h', 'extra_terms'\]$"),
          ({"extra_terms": [["a", "b", "c"]]},
           r"^extra_terms must be \(coefficient, Pauli string\) pairs: too many values to unpack"),  # then Python's
          ([1, 2], "^spin chain spec must be a JSON object$"),
          ({"N": "abc"}, "N, J and h must be numbers"),
          ({"N": None}, "N, J and h must be numbers"),
          ({"J": "x"}, "N, J and h must be numbers"),
          ({"h": [1.0]}, "N, J and h must be numbers"),
          ({"N": 4.7}, "N must be an integer"),
          ({"N": _NAN}, "N must be an integer"),
          ({"N": 2, "extra_terms": 5}, "extra_terms must be"),
          ({"N": 2, "extra_terms": [[10 ** 400, "XX"]]}, "extra_terms must be"),
          ({"N": "4"}, "N, J and h must be numbers"),
          ({"J": "1.5"}, "N, J and h must be numbers"),
          ({"h": True}, "N, J and h must be numbers"),
          ({"N": False}, "N, J and h must be numbers"),
          ({"N": 3, "J": 10 ** 400}, "J must be a finite number"),
          ({"N": 3, "h": -(10 ** 400)}, "h must be a finite number"),
          ({"N": 3, "Js": 1.0}, r"fields \['Js'\] outside"),
          ("N=3", "spin chain spec must be a JSON object"),
          *(({"N": 2, "extra_terms": [[coeff, "ZZ"]]}, "extra_terms must be") for coeff in ("1.5", True, False, None)),
      )),
    # ---------------------------------------------------------------- spinchain: raw matrices
    pytest.param(lambda: _unsolved_ground_state(np.eye(3)),
                 ValidationError, "^Hamiltonian dimension 3 is not a power of two$", id="ground_state-dimension-3"),
    pytest.param(lambda: _unsolved_ground_state([[1, 0], [0]]),
                 ValidationError, "^matrix must be a rectangular array of numbers, got ragged rows$",
                 id="ground_state-short-row"),
    pytest.param(lambda: _unsolved_ground_state([["a", "b"], ["c", "d"]]),
                 ValidationError, "matrix must be a rectangular array of numbers", id="ground_state-strings"),
    *(pytest.param(lambda ham=ham: _unsolved_ground_state(np.array(ham)),
                   ValidationError, "Hamiltonian is too large: its largest absolute row sum is not finite",
                   id=f"ground_state-row-sums-{ham}")
      for ham in ([[1e308, 1e308], [1e308, 1e308]], [[1e308, 9e307], [9e307, 5e307]])),
    pytest.param(lambda: _unsolved_ground_state(np.zeros((2, 4))),
                 ValidationError, r"^Hamiltonian must be a square matrix, got shape \(2, 4\)$",
                 id="ground_state-not-square"),
    pytest.param(lambda: _unsolved_ground_state(np.array([[1.0]])),
                 ValidationError, "Hamiltonian needs at least one qubit", id="ground_state-one-by-one"),
    # a zero-stride view: no 2^26 entries are allocated
    pytest.param(lambda: _unsolved_ground_state(np.broadcast_to(0.0, (1 << 13, 1 << 13))),
                 CapacityError, "Hamiltonian needs 13 qubits, limit is 12", id="ground_state-13-qubits"),
    # ---------------------------------------------------------------- spinchain: criteria and sweeps
    pytest.param(lambda: entropy_criterion(basis_state("00")),
                 ArgumentError, "^entropy criterion needs at least 3 qubits, got n=2$",
                 id="entropy_criterion-two-qubits"),
    pytest.param(lambda: indicator_sweep(nearest_neighbor_chain(N=3), "field", [1.0]),
                 ArgumentError, '^parameter must be "J", "h", or "coefficient", got \'field\'$', id="sweep-parameter"),
    *(pytest.param(lambda value=value: indicator_sweep(long_range_chain(), "h", [0.5, value]),
                   ArgumentError, f"sweep value must be a number, got {re.escape(repr(value))}",
                   id=f"sweep-value-{value!r}")
      for value in ("1.5", True, None)),
    pytest.param(lambda: indicator_sweep(long_range_chain(), "h", [0.5, -(10 ** 400)]),
                 ArgumentError, f"sweep value {_HUGE}", id="sweep-value-10**400"),
    pytest.param(lambda: indicator_sweep(nearest_neighbor_chain(N=4), "coefficient", [1.0, 2.0]),
                 ArgumentError, '"coefficient" scales the extra terms, and the chain has none',
                 id="sweep-coefficient-without-terms"),
    *(pytest.param(lambda values=values: indicator_sweep(nearest_neighbor_chain(N=2), "h", values),
                   ArgumentError, "energy indicator needs at least 3 qubits, got n=2", id=f"sweep-two-sites-{values}")
      for values in ([1.0], [])),
    # every row is checked before any is solved, so the nan row is rejected before the 1e9 row ahead of it is solved
    *(pytest.param(lambda parameter=parameter, values=values: indicator_sweep(long_range_chain(), parameter, values),
                   ValidationError, message, id=f"sweep-{parameter}-{values}")
      for parameter, message in (("J", "J must be a finite number"),
                                 ("coefficient", "coefficient of 'IXXXI' must be finite"))
      for values in ([1e9, _NAN], [1.0, _NAN, 1e9])),
    # 4 * 1e308 overflows to inf in the row's table, and the row's spec names the term
    pytest.param(lambda: indicator_sweep(long_range_chain(), "coefficient", [1.0, 1e308, 2.0]),
                 ValidationError, "extra_terms coefficient of 'IXXXI' must be finite, got inf",
                 id="sweep-coefficient-1e308"),
    # the first invalid row raises, wherever it sits; |J| alone cannot overflow this chain: its four bonds sum to |J|
    *(pytest.param(lambda parameter=parameter, values=[*_SWEEP[:position], bad, *_SWEEP[position:]]:
                   indicator_sweep(long_range_chain(), parameter, values),
                   ValidationError, f"^{message}$",
                   id=f"sweep-first-invalid-{parameter}-{bad}-at-{position}")
      for parameter, bad, message in (
          ("J", _NAN, "J must be a finite number, got nan"),
          ("J", _INF, "J must be a finite number, got inf"),
          ("J", -_INF, "J must be a finite number, got -inf"),
          ("h", _NAN, "h must be a finite number, got nan"),
          ("h", _INF, "h must be a finite number, got inf"),
          ("h", 1e308, _TOO_LARGE),  # five fields at -h/2
          ("coefficient", _NAN, "extra_terms coefficient of 'IXXXI' must be finite, got nan"),
          ("coefficient", _INF, "extra_terms coefficient of 'IXXXI' must be finite, got inf"),
          ("coefficient", 2e307, _TOO_LARGE),  # 4x + 3x + 3x
      )
      for position in (0, 2, 4)),
]


@pytest.mark.parametrize("call, kind, pattern", LIBRARY_ROWS)
@pytest.mark.filterwarnings("error")
def test_a_rejected_call_raises_its_error_type_and_message(monkeypatch, call, kind, pattern):
    monkeypatch.setattr(spinchain, "_ground_states", _no_solve)
    with pytest.raises(EmpskitError) as info:  # any other exception escapes and fails the row
        call()
    assert type(info.value) is kind and re.search(pattern, str(info.value)), repr(info.value)
