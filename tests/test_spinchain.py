import itertools
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from empskit import qcore, spinchain
from empskit.classify import build_dicke, build_ghz, build_w
from empskit.emps import eta_indicator
from empskit.errors import ArgumentError, CapacityError, NumericError, ValidationError
from empskit.qcore import (
    basis_state,
    random_pure_state,
    reduced_density_matrix,
    tensor_product,
    von_neumann_entropy,
)
from empskit.spinchain import (
    SpinChainSpec,
    SweepRow,
    build_hamiltonian,
    entropy_criterion,
    ground_state,
    indicator_sweep,
    long_range_chain,
    nearest_neighbor_chain,
    pauli_string_matrix,
    spec_from_dict,
)

from oracles import PAULI, chain_hamiltonian_kron_oracle, count_eigenvalues_below, pauli_kron_oracle

# Regression fixtures for the 5-site long-range chain at J = h = 1, recorded
# from the first verified diagonalization (cross-checked against LAPACK).
LONG_RANGE_ENERGY = -10.256056127482841
LONG_RANGE_GAP = 0.15681908445301573
LONG_RANGE_ETA = 0.7648604268880472
LONG_RANGE_ENTROPY = 0.005704316960428724


# ---------------------------------------------------------------- hamiltonian assembly


def test_two_site_coupling_matrix():
    ham = build_hamiltonian(SpinChainSpec(N=2, J=1.0, h=0.0))
    assert np.allclose(ham, np.diag([-0.25, 0.25, 0.25, -0.25]))


def test_all_up_diagonal_energy():
    ham = build_hamiltonian(nearest_neighbor_chain(N=5, J=1.0, h=1.0))
    # 4 bonds at -1/4 plus 5 spins at -1/2
    assert abs(ham[0, 0].real + 3.5) <= 1e-12
    assert np.allclose(ham, np.diag(np.diag(ham)))  # no transverse part


def test_x_string_term_is_off_diagonal_hermitian():
    term = pauli_string_matrix("IXXXI")
    assert np.max(np.abs(np.diag(term))) == 0.0
    assert np.max(np.abs(term - term.conj().T)) == 0.0
    assert np.max(np.abs(term.imag)) == 0.0


def test_hamiltonian_hermitian_with_y_terms():
    ham = build_hamiltonian(SpinChainSpec(N=3, J=0.7, h=0.2, extra_terms=((0.5, "YZI"),)))
    assert np.max(np.abs(ham - ham.conj().T)) <= 1e-12
    assert np.max(np.abs(ham.imag)) > 0  # an odd Y count makes entries complex


def test_hamiltonian_real_symmetric_without_y():
    ham = build_hamiltonian(long_range_chain())
    assert np.max(np.abs(ham.imag)) == 0.0
    assert np.max(np.abs(ham - ham.T)) <= 1e-12


def _mixed_terms(n):
    # Y and Z on site 1 (the most significant bit), odd and even Y counts,
    # and a plain transverse string
    rest = n - 1
    return (
        (0.3, "Y" + "Z" * rest),  # nY = 1
        (-1.7, "Z" + "Y" * rest),  # nY = n - 1
        (2.5e-3, "Y" * n),  # nY = n
        (1 / 3, "YY" + "X" * (n - 2)),  # nY = 2
        (0.6, "X" * n),
    )


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("J, h", [(1.0, 0.7), (-0.8, 0.0), (0.0, -1.3)])
def test_hamiltonian_is_bit_identical_to_kron_oracle(n, J, h):
    spec = SpinChainSpec(N=n, J=J, h=h, extra_terms=_mixed_terms(n))
    assert np.array_equal(build_hamiltonian(spec), chain_hamiltonian_kron_oracle(n, J, h, spec.extra_terms))


def test_presets_are_bit_identical_to_kron_oracle():
    for spec in (long_range_chain(), long_range_chain(J=-0.5, h=2.0), nearest_neighbor_chain(N=6, h=0.0)):
        assert np.array_equal(
            build_hamiltonian(spec), chain_hamiltonian_kron_oracle(spec.N, spec.J, spec.h, spec.extra_terms)
        )


def test_pauli_string_matrix_matches_kron_oracle_on_all_two_site_strings():
    for letters in map("".join, itertools.product("IXYZ", repeat=2)):
        assert np.array_equal(pauli_string_matrix(letters), pauli_kron_oracle(letters))
    assert np.array_equal(pauli_string_matrix("yzx"), pauli_kron_oracle("YZX"))
    with pytest.raises(ValidationError, match="invalid letters"):
        pauli_string_matrix("XQ")


def _apply_term(letters, vec, n):
    # apply one Pauli string site by site to a state vector
    t = vec.reshape([2] * n)
    for k, c in enumerate(letters):
        t = np.moveaxis(np.tensordot(PAULI[c], t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def test_twelve_site_transverse_field_chain():
    n, J, h, g = 12, 1.0, 0.7, 0.6
    field = tuple((g, "I" * i + "X" + "I" * (n - 1 - i)) for i in range(n))
    start = time.perf_counter()
    ham = build_hamiltonian(SpinChainSpec(N=n, J=J, h=h, extra_terms=field))
    assert time.perf_counter() - start < 5.0
    # one diagonal and n bit-flip entries per column, exactly Hermitian
    rows, cols = np.nonzero(ham)
    assert rows.size == (n + 1) * 2 ** n
    assert np.array_equal(ham[rows, cols], ham[cols, rows].conj())
    idx = np.arange(2 ** n)
    z = 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
    ising = -0.25 * J * np.sum(z[:, :-1] * z[:, 1:], axis=1) - 0.5 * h * np.sum(z, axis=1)
    assert np.max(np.abs(np.diag(ham) - ising)) <= 1e-12
    terms = [(-0.25 * J, "I" * i + "ZZ" + "I" * (n - 2 - i)) for i in range(n - 1)]
    terms += [(-0.5 * h, "I" * i + "Z" + "I" * (n - 1 - i)) for i in range(n)]
    terms += list(field)
    for col in (0, 1, 2 ** (n - 1), 0b101101110010, 2 ** n - 1):
        basis = np.zeros(2 ** n, dtype=np.complex128)
        basis[col] = 1.0
        expected = sum(c * _apply_term(letters, basis, n) for c, letters in terms)
        assert np.max(np.abs(ham[:, col] - expected)) <= 1e-12


def test_spec_validation():
    with pytest.raises(ValidationError, match="length"):
        SpinChainSpec(N=4, extra_terms=((1.0, "XX"),))
    with pytest.raises(ValidationError, match="invalid letters"):
        SpinChainSpec(N=2, extra_terms=((1.0, "XQ"),))
    with pytest.raises(ValidationError, match="site count"):
        SpinChainSpec(N=1)
    with pytest.raises(ValidationError, match="site count"):
        SpinChainSpec(N=13)


@pytest.mark.parametrize("n", [4.5, 4.0, "5", None])
def test_spec_rejects_non_integer_site_count(n):
    with pytest.raises(ValidationError, match="site count N must be an integer"):
        ground_state(SpinChainSpec(N=n))


def test_spec_accepts_numpy_integer_site_count():
    spec = SpinChainSpec(N=np.int64(4))
    assert type(spec.N) is int and spec == SpinChainSpec(N=4)


def test_spec_from_dict_roundtrip_and_errors():
    spec = spec_from_dict({"N": 5, "J": 1.0, "h": 0.5, "extra_terms": [[4.0, "IXXXI"]]})
    assert spec == SpinChainSpec(N=5, J=1.0, h=0.5, extra_terms=((4.0, "IXXXI"),))
    with pytest.raises(ValidationError):
        spec_from_dict({"N": 5, "bogus": 1})
    with pytest.raises(ValidationError):
        spec_from_dict({"extra_terms": [["a", "b", "c"]]})
    with pytest.raises(ValidationError):
        spec_from_dict([1, 2])
    assert spec_from_dict({"N": 4.0}) == SpinChainSpec(N=4)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"N": "abc"}, "N, J and h must be numbers"),
        ({"N": None}, "N, J and h must be numbers"),
        ({"J": "x"}, "N, J and h must be numbers"),
        ({"h": [1.0]}, "N, J and h must be numbers"),
        ({"N": 4.7}, "N must be an integer"),
        ({"N": float("nan")}, "N must be an integer"),
        ({"N": 2, "extra_terms": 5}, "extra_terms must be"),
        ({"N": 2, "extra_terms": [[10 ** 400, "XX"]]}, "extra_terms must be"),
    ],
)
def test_spec_from_dict_rejects_bad_fields(payload, message):
    with pytest.raises(ValidationError, match=message):
        spec_from_dict(payload)


# ---------------------------------------------------------------- ground states


def test_ground_state_rejects_non_qubit_dimension():
    with pytest.raises(ValidationError, match="power-of-two"):
        ground_state(np.eye(3))


def test_single_spin_ground_state():
    result = ground_state(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # -sigma_z
    assert abs(result.energy + 1.0) <= 1e-12
    assert np.allclose(result.state.amps, [1.0, 0.0])
    assert not result.degenerate


def test_nearest_neighbor_ground_is_all_up_basis_state():
    result = ground_state(nearest_neighbor_chain(N=5, J=1.0, h=1.0))
    assert abs(result.energy + 3.5) <= 1e-9
    amp = np.abs(result.state.amps)
    assert abs(amp[0] - 1.0) <= 1e-9
    assert np.max(amp[1:]) <= 1e-9
    assert eta_indicator(result.state) <= 1e-9
    assert entropy_criterion(result.state) <= 1e-9


def test_long_range_ground_state_regression():
    result = ground_state(long_range_chain())
    assert abs(result.energy - LONG_RANGE_ENERGY) <= 1e-9
    assert abs(result.degeneracy_gap - LONG_RANGE_GAP) <= 1e-9
    assert not result.degenerate
    assert abs(eta_indicator(result.state) - LONG_RANGE_ETA) <= 1e-9
    assert abs(entropy_criterion(result.state) - LONG_RANGE_ENTROPY) <= 1e-9


def test_ground_state_eigen_residual():
    ham = build_hamiltonian(long_range_chain())
    result = ground_state(ham)
    assert np.linalg.norm(ham @ result.state.amps - result.energy * result.state.amps) <= 1e-8


def test_ground_state_phase_fix():
    result = ground_state(long_range_chain())
    k = int(np.argmax(np.abs(result.state.amps)))
    top = result.state.amps[k]
    assert top.imag == 0.0
    assert top.real > 0.0


def test_ground_energy_is_variational_minimum():
    ham = build_hamiltonian(SpinChainSpec(N=4, J=0.8, h=0.3, extra_terms=((1.5, "XXII"),)))
    energy = ground_state(ham).energy
    rng = np.random.default_rng(19)
    for _ in range(100):
        v = random_pure_state(4, rng).amps
        assert energy <= (v.conj() @ ham @ v).real + 1e-9


def test_degenerate_ground_space_is_flagged():
    # zero field leaves the all-up / all-down pair degenerate
    result = ground_state(nearest_neighbor_chain(N=4, J=1.0, h=0.0))
    assert result.degeneracy_gap <= 1e-12
    assert result.degenerate


def test_ground_state_is_bit_reproducible():
    a = ground_state(long_range_chain())
    b = ground_state(long_range_chain())
    assert a.energy == b.energy
    assert np.array_equal(a.state.amps, b.state.amps)


def test_ground_energy_matches_inertia_count_oracle():
    # transverse-field chain, one X term per site (d = 256); the inertia count
    # does not go through LAPACK
    n = 8
    field = tuple((0.6, "I" * i + "X" + "I" * (n - 1 - i)) for i in range(n))
    ham = build_hamiltonian(SpinChainSpec(N=n, J=1.0, h=0.7, extra_terms=field))
    energy = ground_state(ham).energy
    assert count_eigenvalues_below(ham, energy - 1e-8) == 0
    assert count_eigenvalues_below(ham, energy + 1e-8) >= 1


def test_hamiltonian_dtype_follows_the_y_parity():
    # every phase i^nY is real when each string has an even Y count
    assert build_hamiltonian(long_range_chain()).dtype == np.float64
    assert build_hamiltonian(SpinChainSpec(N=3, extra_terms=((0.5, "YYX"),))).dtype == np.float64
    assert build_hamiltonian(SpinChainSpec(N=3, extra_terms=((0.5, "YYX"), (0.1, "IYZ")))).dtype == np.complex128
    assert pauli_string_matrix("XZ").dtype == np.float64
    assert pauli_string_matrix("XY").dtype == np.complex128


@pytest.mark.parametrize("n", range(2, 9))
def test_matvec_is_the_dense_product(n):
    spec = SpinChainSpec(N=n, J=0.9, h=-0.4, extra_terms=_mixed_terms(n))
    op = spinchain._chain_operator([spec])
    v = np.random.default_rng(n).standard_normal(2 ** n) + 1j * np.random.default_rng(50 + n).standard_normal(2 ** n)
    assert np.max(np.abs(op.matvec(v) - build_hamiltonian(spec) @ v)) <= 1e-12


@pytest.mark.parametrize("terms", [(("x", "XX"),), ((1.0,),), ((None, "XX"),), (1.0,), ((1.0, "XX", 2.0),)])
def test_spec_rejects_malformed_extra_terms(terms):
    with pytest.raises(ValidationError, match="extra_terms must be"):
        SpinChainSpec(N=2, extra_terms=terms)


@pytest.mark.parametrize("letters", ["ZZ", "XX", "yzx"])
@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_finite_coefficients(letters, coeff):
    n = len(letters)
    with pytest.raises(ValidationError, match="J must be a finite number"):
        SpinChainSpec(N=n, J=coeff)
    with pytest.raises(ValidationError, match="h must be a finite number"):
        SpinChainSpec(N=n, h=coeff)
    with pytest.raises(ValidationError, match=f"extra_terms coefficient of '{letters.upper()}' must be finite"):
        SpinChainSpec(N=n, extra_terms=((1.0, "I" * n), (coeff, letters)))
    with pytest.raises(ValidationError, match="h must be a finite number"):
        indicator_sweep(nearest_neighbor_chain(N=3), "h", [1.0, coeff])


def _transverse_field(n, J=1.0, h=0.5, g=0.6, extra=()):
    return SpinChainSpec(N=n, J=J, h=h, extra_terms=tuple((g, "I" * i + "X" + "I" * (n - 1 - i)) for i in range(n)) + extra)


def _odd_y(n):
    # one string with a single Y makes the operator complex
    return _transverse_field(n, J=0.8, h=0.3, extra=((0.45, "Y" + "Z" * (n - 2) + "X"),))


@pytest.mark.parametrize(
    "spec",
    [_transverse_field(n) for n in range(4, 9)]
    + [_transverse_field(n, J=-0.7, h=1.3, g=0.4) for n in (4, 6, 8)]
    + [long_range_chain(), long_range_chain(J=-0.5, h=2.0)]
    + [_odd_y(n) for n in range(4, 9)],
    ids=[f"tf{n}" for n in range(4, 9)] + ["afm4", "afm6", "afm8", "longrange", "longrange_shifted"]
    + [f"odd_y{n}" for n in range(4, 9)],
)
def test_lanczos_matches_dense(spec):
    dense = ground_state(build_hamiltonian(spec))
    lanczos = spinchain._lanczos_ground_state(spec)
    assert not dense.degenerate and not lanczos.degenerate
    assert abs(lanczos.energy - dense.energy) <= 1e-10
    assert abs(lanczos.degeneracy_gap - dense.degeneracy_gap) <= 1e-8
    assert abs(eta_indicator(lanczos.state) - eta_indicator(dense.state)) <= 1e-7
    assert abs(entropy_criterion(lanczos.state) - entropy_criterion(dense.state)) <= 1e-7


@pytest.mark.parametrize("n", [2, 7, 8, 9])
def test_ground_state_switches_to_lanczos_above_seven_sites(n, monkeypatch):
    calls = []
    lanczos = spinchain._lanczos_ground_state
    monkeypatch.setattr(spinchain, "_lanczos_ground_state", lambda spec: calls.append(spec.N) or lanczos(spec))
    ground_state(_transverse_field(n))
    assert calls == ([n] if n >= 8 else [])


def test_lanczos_odd_y_chain_is_complex():
    assert spinchain._chain_operator([_odd_y(6)]).vals.dtype == np.complex128


@pytest.mark.parametrize("n", [4, 10])
def test_lanczos_flags_a_degenerate_ground_level(n):
    # zero field: all-up and all-down share the ground level; one Krylov space
    # holds only their sum, so the deflated second solve must find the other
    result = spinchain._lanczos_ground_state(nearest_neighbor_chain(N=n, J=1.0, h=0.0))
    assert result.degenerate
    assert result.degeneracy_gap <= 1e-12
    assert abs(result.energy + 0.25 * (n - 1)) <= 1e-10
    assert ground_state(nearest_neighbor_chain(N=n, J=1.0, h=0.0)).degenerate


def test_lanczos_is_bit_reproducible():
    a = ground_state(_odd_y(9))
    b = ground_state(_odd_y(9))
    assert a.energy == b.energy and a.degeneracy_gap == b.degeneracy_gap
    assert np.array_equal(a.state.amps, b.state.amps)


@pytest.mark.parametrize("n", [8, 9])
def test_complex_ground_state_top_amplitude_is_exactly_real(n):
    psi = ground_state(_odd_y(n)).state.amps
    assert psi.dtype == np.complex128
    top = psi[int(np.argmax(np.abs(psi)))]
    assert top.imag == 0.0 and top.real > 0.0


def test_lanczos_that_does_not_converge_is_a_numeric_error(monkeypatch):
    monkeypatch.setattr(spinchain, "_LANCZOS_TOL", 0.0)
    with pytest.raises(NumericError, match="Lanczos did not converge within Krylov dimension 16"):
        spinchain._lanczos_ground_state(_transverse_field(4))


@pytest.mark.parametrize("spec", [_transverse_field(12), _odd_y(12)], ids=["tf12", "odd_y12"])
def test_twelve_site_ground_state(spec):
    start = time.perf_counter()
    result = ground_state(spec)
    assert time.perf_counter() - start <= 5.0
    psi = result.state.amps
    k = int(np.argmax(np.abs(psi)))
    assert psi[k].imag == 0.0 and psi[k].real > 0.0
    # residual from the terms applied site by site, not from the grouped operator
    terms = spinchain._chain_terms(spec)
    h_psi = sum(c * _apply_term(letters, psi, 12) for c, letters in terms)
    assert np.linalg.norm(h_psi - result.energy * psi) <= 1e-8
    assert not result.degenerate and result.degeneracy_gap > 0.1


# ---------------------------------------------------------------- entropy criterion


def test_entropy_criterion_product_state():
    assert entropy_criterion(basis_state("000")) == 0.0
    mixed_product = tensor_product(
        tensor_product(basis_state("0"), build_ghz(2, math.pi / 4)), basis_state("1")
    )
    assert entropy_criterion(mixed_product) <= 1e-9


def test_entropy_criterion_ghz_is_one():
    assert abs(entropy_criterion(build_ghz(3, math.pi / 4)) - 1.0) <= 1e-9


def _entropy_criterion_reference(psi):
    # the per-pair public-API path: one marginal and one eigensolve at a time; a
    # PureState's marginals come from the same qcore kernel as entropy_criterion's,
    # a DensityMatrix's from the density-matrix take over the same index table
    n = psi.n
    singles = [von_neumann_entropy(reduced_density_matrix(psi, (i,))) for i in range(1, n + 1)]
    return min(
        abs(von_neumann_entropy(reduced_density_matrix(psi, (i, j))) - singles[i - 1] - singles[j - 1])
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )


def _transverse_field_ground_state(n, h):
    field = tuple((0.6, "I" * i + "X" + "I" * (n - 1 - i)) for i in range(n))
    return ground_state(SpinChainSpec(N=n, J=1.0, h=h, extra_terms=field)).state


@pytest.mark.parametrize("n", range(3, 13))
def test_entropy_criterion_is_the_per_pair_loop_on_haar_states(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(3 if n <= 8 else 1):
        psi = random_pure_state(n, rng)
        assert entropy_criterion(psi) == _entropy_criterion_reference(psi)


@pytest.mark.parametrize(
    "psi",
    [
        build_ghz(3, math.pi / 4),
        build_ghz(5, 0.4),
        build_w([1 / 3] * 3),
        build_w([0.1, 0.2, 0.3, 0.4]),
        build_dicke(4, 2),
        build_dicke(6, 1),
        basis_state("000"),
        basis_state("10110"),
        tensor_product(tensor_product(basis_state("0"), build_ghz(2, math.pi / 4)), basis_state("1")),
    ],
    ids=["ghz3", "ghz5", "w3", "w4", "dicke42", "dicke61", "000", "10110", "mixed_product"],
)
def test_entropy_criterion_is_the_per_pair_loop_on_named_states(psi):
    assert entropy_criterion(psi) == _entropy_criterion_reference(psi)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_entropy_criterion_is_the_per_pair_loop_on_ground_states(n):
    for h in (0.3, 0.7, 1.5):
        psi = _transverse_field_ground_state(n, h=h)
        assert entropy_criterion(psi) == _entropy_criterion_reference(psi)


@pytest.mark.parametrize("n", range(3, 9))
def test_entropy_criterion_matches_density_matrix_marginals(n):
    # marginals by partial_trace on the projector: they share the pure kernel's index
    # table, which the density-marginal oracle tests in test_qcore.py guard
    rng = np.random.default_rng(950 + n)
    states = [random_pure_state(n, rng), _transverse_field_ground_state(n, h=0.7)]
    for psi in states:
        assert abs(entropy_criterion(psi) - _entropy_criterion_reference(psi.density())) <= 1e-12


def test_entropy_criterion_on_the_dot_path_matches_density_matrix_marginals():
    # 10 qubits: the single-qubit marginals come from strided dot products
    psi = random_pure_state(10, np.random.default_rng(960))
    assert abs(entropy_criterion(psi) - _entropy_criterion_reference(psi.density())) <= 1e-12


def test_entropy_criterion_rejects_a_corrupted_marginal(monkeypatch):
    psi = build_w([1 / 3] * 3)
    marginals = qcore._marginals

    def corrupted(amps, table):
        stack = marginals(amps, table)
        if table.shape[1] == 4:  # the pair groups
            stack[0, 1] = np.diag([1.2, -0.2, 0.0, 0.0])
        return stack

    monkeypatch.setattr(qcore, "_marginals", corrupted)
    with pytest.raises(ValidationError, match=r"eigenvalue -2\.000e-01 below .*not a density matrix"):
        entropy_criterion(psi)


def test_entropy_criterion_on_twelve_qubits_is_fast():
    psi = random_pure_state(12, np.random.default_rng(12))
    start = time.perf_counter()
    value = entropy_criterion(psi)
    elapsed = time.perf_counter() - start
    assert 0.0 <= value < 1.0
    assert elapsed < 2.0


def test_entropy_criterion_needs_three_qubits():
    with pytest.raises(ArgumentError):
        entropy_criterion(basis_state("00"))


# ---------------------------------------------------------------- sweeps


def test_sweep_nearest_neighbor_indicator_is_flat_zero():
    rows = indicator_sweep(nearest_neighbor_chain(N=4), "h", [0.5, 1.0, 1.5])
    assert [r.parameter for r in rows] == [0.5, 1.0, 1.5]
    for r in rows:
        assert not r.degenerate
        assert abs(r.eta) <= 1e-9
        assert abs(r.entropy_criterion) <= 1e-9


def test_sweep_long_range_is_positive():
    rows = indicator_sweep(long_range_chain(), "h", [1.0])
    assert rows[0].eta > 1e-6
    assert rows[0].entropy_criterion > 1e-6


def test_sweep_empty_values_gives_empty_table():
    assert indicator_sweep(nearest_neighbor_chain(N=3), "h", []) == []


def test_sweep_flags_degenerate_rows():
    rows = indicator_sweep(nearest_neighbor_chain(N=3), "h", [0.0, 1.0])
    assert rows[0].degenerate
    assert not rows[1].degenerate


def test_sweep_coefficient_scale_zero_recovers_plain_chain():
    rows = indicator_sweep(long_range_chain(), "coefficient", [0.0, 1.0])
    assert abs(rows[0].ground_energy + 3.5) <= 1e-9
    assert abs(rows[0].eta) <= 1e-9
    assert abs(rows[1].ground_energy - LONG_RANGE_ENERGY) <= 1e-9


def test_sweep_over_coupling():
    rows = indicator_sweep(nearest_neighbor_chain(N=3, h=1.0), "J", [0.5, 2.0])
    # stronger ferromagnetic coupling lowers the aligned ground energy
    assert rows[1].ground_energy < rows[0].ground_energy


def test_sweep_keeps_the_other_fields():
    spec = SpinChainSpec(N=4, J=0.8, h=0.3, extra_terms=((1.5, "XXII"), (0.4, "IYYI")))
    for parameter, varied in (
        ("J", SpinChainSpec(N=4, J=1.2, h=0.3, extra_terms=spec.extra_terms)),
        ("h", SpinChainSpec(N=4, J=0.8, h=1.2, extra_terms=spec.extra_terms)),
        ("coefficient", SpinChainSpec(N=4, J=0.8, h=0.3, extra_terms=((1.5 * 1.2, "XXII"), (0.4 * 1.2, "IYYI")))),
    ):
        (row,) = indicator_sweep(spec, parameter, [1.2])
        assert row.ground_energy == ground_state(varied).energy


def test_sweep_parameter_validation():
    with pytest.raises(ArgumentError):
        indicator_sweep(nearest_neighbor_chain(N=3), "field", [1.0])


def test_sweep_rows_reproducible():
    a = indicator_sweep(long_range_chain(), "h", [0.8, 1.2])
    b = indicator_sweep(long_range_chain(), "h", [0.8, 1.2])
    assert a == b
    assert isinstance(a[0], SweepRow)


def _sweep_reference(spec, parameter, values):
    # one chain at a time through the public per-state functions
    rows = []
    for x in values:
        if parameter == "coefficient":
            varied = replace(spec, extra_terms=tuple((c * x, s) for c, s in spec.extra_terms))
        else:
            varied = replace(spec, **{parameter: x})
        gs = ground_state(varied)
        rows.append(SweepRow(x, gs.energy, gs.degeneracy_gap, eta_indicator(gs.state),
                             entropy_criterion(gs.state), gs.degenerate))
    return rows


_SWEEP_VALUES = {"J": [-0.6, 0.0, 1.1, 2.4], "h": [0.0, 0.35, -0.8, 1.3], "coefficient": [0.0, 0.5, -1.2, 2.0]}


@pytest.mark.parametrize("parameter", sorted(_SWEEP_VALUES))
@pytest.mark.parametrize(
    "spec",
    [_transverse_field(n) for n in range(3, 8)] + [_odd_y(n) for n in range(3, 8)],
    ids=[f"tf{n}" for n in range(3, 8)] + [f"odd_y{n}" for n in range(3, 8)],
)
def test_sweep_rows_are_the_per_row_path_bit_for_bit(spec, parameter):
    values = _SWEEP_VALUES[parameter]
    assert indicator_sweep(spec, parameter, values) == _sweep_reference(spec, parameter, values)


@pytest.mark.parametrize("n", range(3, 8))
def test_sweep_degenerate_rows_are_the_per_row_path(n):
    # the plain chain at h = 0: all-up and all-down share the ground level
    plain = nearest_neighbor_chain(N=n, h=0.0)
    zero_term = SpinChainSpec(N=n, J=1.0, h=0.0, extra_terms=((0.0, "X" * n),))
    for spec, parameter, values in (
        (plain, "h", [0.0, 0.5]),
        (plain, "J", [1.0, 0.0]),
        (zero_term, "coefficient", [1.0, -2.0]),
    ):
        rows = indicator_sweep(spec, parameter, values)
        assert rows == _sweep_reference(spec, parameter, values)
        assert rows[0].degenerate
    assert not indicator_sweep(plain, "h", [0.5])[0].degenerate


@pytest.mark.parametrize("spec", [_transverse_field(8), _odd_y(8)], ids=["tf8", "odd_y8"])
def test_sweep_lanczos_rows_are_the_per_row_path(spec):
    assert indicator_sweep(spec, "h", [0.2, 1.4]) == _sweep_reference(spec, "h", [0.2, 1.4])


@pytest.mark.parametrize(
    "spec", [_transverse_field(4), _odd_y(5), long_range_chain()], ids=["tf4", "odd_y5", "longrange"]
)
def test_sweep_rows_do_not_depend_on_the_chunk_budget(spec, monkeypatch):
    values = [0.1 * k - 0.7 for k in range(17)]
    whole = indicator_sweep(spec, "h", values)
    for matrices in (1, 3):
        monkeypatch.setattr(spinchain, "_CHUNK_AMPLITUDES", matrices << 2 * spec.N)
        assert indicator_sweep(spec, "h", values) == whole
    assert whole == _sweep_reference(spec, "h", values)


@pytest.mark.parametrize("spec", [long_range_chain(), _odd_y(5)], ids=["longrange", "odd_y5"])
def test_sweep_rows_do_not_depend_on_the_structure_cache(spec):
    values = [0.2, 0.9, 1.6]
    spinchain._pauli_structure.cache_clear()
    cold = indicator_sweep(spec, "h", values)
    assert spinchain._pauli_structure.cache_info().misses == 1
    warm = indicator_sweep(spec, "h", values)
    assert spinchain._pauli_structure.cache_info().hits == 1
    assert warm == cold == _sweep_reference(spec, "h", values)


def test_pauli_structure_is_read_only_and_bounded():
    spinchain._pauli_structure.cache_clear()
    letters = tuple(s for _, s in spinchain._chain_terms(_odd_y(5)))
    masks, rows, group, signs = spinchain._pauli_structure(5, letters)
    assert signs.dtype == np.complex128 and len(group) == len(letters)
    for arr in (masks, rows, signs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    bound = spinchain._pauli_structure.cache_info().maxsize
    for letters in itertools.islice(itertools.product("XYZ", repeat=3), 2 * bound):
        pauli_string_matrix("".join(letters))
    assert spinchain._pauli_structure.cache_info().currsize == bound == 8


@pytest.mark.parametrize(
    "hamiltonian", [long_range_chain(), _odd_y(5), _transverse_field(8), np.diag([0.5, -1.0, 2.0, 0.0])],
    ids=["dense", "dense_odd_y", "lanczos", "raw_matrix"],
)
def test_ground_states_are_read_only_complex_unit_vectors(hamiltonian):
    psi = ground_state(hamiltonian).state
    assert psi.amps.dtype == np.complex128 and psi.amps.ndim == 1 and psi.dim == 1 << psi.n
    assert not psi.amps.flags.writeable
    assert abs(np.vdot(psi.amps, psi.amps).real - 1.0) <= 1e-12


def _residual_in(message):
    return float(re.search(r"ground-state residual (\S+) exceeds", message).group(1))


@pytest.mark.parametrize("row", range(3))
def test_a_corrupted_dense_row_fails_its_residual_check(row, monkeypatch):
    # row `row` of a three-row chunk gets the first excited vector: its residual is that row's gap
    eigh = qcore._eigh

    def corrupted(matrix, vectors=False):
        w, v = eigh(matrix, vectors)
        if vectors:
            v = v.copy()
            v[row, :, 0] = v[row, :, 1]
        return w, v

    values = [0.2, 0.9, 1.6]
    gap = indicator_sweep(long_range_chain(), "h", values)[row].gap
    monkeypatch.setattr(qcore, "_eigh", corrupted)
    with pytest.raises(NumericError, match="ground-state residual") as info:
        indicator_sweep(long_range_chain(), "h", values)
    assert _residual_in(str(info.value)) == pytest.approx(gap, rel=1e-2)


def test_a_corrupted_lanczos_vector_fails_its_residual_check(monkeypatch):
    lowest = spinchain._lanczos_lowest

    def corrupted(op, start, deflate=None):
        energy, vec = lowest(op, start, deflate)
        return energy, vec if deflate is not None else vec + 0.1 * start

    monkeypatch.setattr(spinchain, "_lanczos_lowest", corrupted)
    with pytest.raises(NumericError, match="ground-state residual"):
        ground_state(_odd_y(8))


def test_a_corrupted_raw_matrix_vector_fails_its_residual_check(monkeypatch):
    eigh = qcore._eigh

    def corrupted(matrix, vectors=False):
        w, v = eigh(matrix, vectors)
        return w, v[:, ::-1]  # the top eigenvector in place of the lowest

    ham = np.diag([0.0, 1.0, 2.0, 3.0])
    monkeypatch.setattr(qcore, "_eigh", corrupted)
    with pytest.raises(NumericError, match="ground-state residual") as info:
        ground_state(ham)
    assert _residual_in(str(info.value)) == 3.0


def test_ground_state_rejects_a_ragged_matrix():
    with pytest.raises(ValidationError, match="Hamiltonian must be a rectangular array of numbers"):
        ground_state([[1, 0], [0]])


def test_ground_state_rejects_a_matrix_of_strings():
    with pytest.raises(ValidationError, match="matrix must be a rectangular array of numbers"):
        ground_state([["a", "b"], ["c", "d"]])


@pytest.mark.parametrize("value", ["1.5", True, None], ids=["str", "true", "none"])
def test_sweep_rejects_values_that_are_not_numbers(value, monkeypatch):
    monkeypatch.setattr(spinchain, "_ground_states", _no_solve)
    with pytest.raises(ArgumentError, match=f"sweep value must be a number, got {re.escape(repr(value))}"):
        indicator_sweep(long_range_chain(), "h", [0.5, value])


def test_sweep_rejects_an_integer_past_the_float_range(monkeypatch):
    monkeypatch.setattr(spinchain, "_ground_states", _no_solve)
    with pytest.raises(ArgumentError, match="sweep value must be a finite number, got an integer past the float range"):
        indicator_sweep(long_range_chain(), "h", [0.5, -(10 ** 400)])


def test_sweep_takes_numpy_and_integer_values():
    rows = indicator_sweep(long_range_chain(), "h", [np.float64(0.5), 1, np.int64(2)])
    assert rows == indicator_sweep(long_range_chain(), "h", [0.5, 1.0, 2.0])
    assert all(type(r.parameter) is float for r in rows)


def _no_solve(specs):
    raise AssertionError("a rejected sweep must not reach the eigensolver")


def test_sweep_rejects_coefficient_on_a_chain_without_extra_terms(monkeypatch):
    monkeypatch.setattr(spinchain, "_ground_states", _no_solve)
    with pytest.raises(ArgumentError, match='"coefficient" scales the extra terms, and the chain has none'):
        indicator_sweep(nearest_neighbor_chain(N=4), "coefficient", [1.0, 2.0])


@pytest.mark.parametrize("values", [[1.0], []])
def test_sweep_rejects_two_site_chains_before_solving(values, monkeypatch):
    monkeypatch.setattr(spinchain, "_ground_states", _no_solve)
    with pytest.raises(ArgumentError, match="energy indicator needs at least 3 qubits, got n=2"):
        indicator_sweep(nearest_neighbor_chain(N=2), "h", values)


def test_sweep_raises_in_row_order():
    # the first row fails its residual gate before the second row's value is rejected
    for parameter, message in (("J", "J must be a finite number"), ("coefficient", "coefficient of 'IXXXI' must be finite")):
        with pytest.raises(NumericError, match="residual"):
            indicator_sweep(long_range_chain(), parameter, [1e9, float("nan")])
        with pytest.raises(ValidationError, match=message):
            indicator_sweep(long_range_chain(), parameter, [1.0, float("nan"), 1e9])


@pytest.mark.parametrize("name", ["J", "h"])
@pytest.mark.parametrize("value", [True, False, "1.5", None, 10 ** 400, -(10 ** 400)],
                         ids=["true", "false", "str", "none", "1e400", "-1e400"])
def test_spec_rejects_bools_strings_and_ints_past_the_float_range(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
        SpinChainSpec(N=3, **{name: value})


def test_spec_stores_couplings_as_floats():
    spec = SpinChainSpec(N=3, J=2, h=np.float32(0.5))
    assert type(spec.J) is float and type(spec.h) is float
    assert spec == SpinChainSpec(N=3, J=2.0, h=0.5)


def test_spec_rejects_a_bool_site_count():
    with pytest.raises(ValidationError, match="site count N must be an integer, got True"):
        SpinChainSpec(N=True)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"N": "4"}, "N, J and h must be numbers"),
        ({"J": "1.5"}, "N, J and h must be numbers"),
        ({"h": True}, "N, J and h must be numbers"),
        ({"N": False}, "N, J and h must be numbers"),
        ({"N": 3, "J": 10 ** 400}, "J must be a finite number"),
        ({"N": 3, "h": -(10 ** 400)}, "h must be a finite number"),
        ({"N": 3, "Js": 1.0}, r"fields \['Js'\] outside"),
        ("N=3", "spin chain spec must be a JSON object"),
    ],
)
def test_spec_from_dict_rejects_strings_bools_and_unknown_fields(payload, message):
    with pytest.raises(ValidationError, match=message):
        spec_from_dict(payload)


def test_spec_from_dict_takes_numpy_and_whole_float_site_counts():
    assert spec_from_dict({"N": np.int64(4), "J": 1, "h": np.float64(0.5)}) == SpinChainSpec(N=4, J=1.0, h=0.5)
    assert spec_from_dict({"N": 4.0}).N == 4


@pytest.mark.parametrize("coeff", ["1.5", True, False, None], ids=["str", "true", "false", "none"])
def test_spec_rejects_extra_term_coefficients_that_are_not_numbers(coeff):
    with pytest.raises(ValidationError, match="extra_terms must be"):
        SpinChainSpec(N=2, extra_terms=((1.0, "XX"), (coeff, "ZZ")))
    with pytest.raises(ValidationError, match="extra_terms must be"):
        spec_from_dict({"N": 2, "extra_terms": [[coeff, "ZZ"]]})


def test_spec_takes_numpy_and_integer_extra_term_coefficients():
    spec = SpinChainSpec(N=2, extra_terms=((np.float64(1.5), "XX"), (2, "zz"), (np.int64(-1), "YY")))
    assert spec.extra_terms == ((1.5, "XX"), (2.0, "ZZ"), (-1.0, "YY"))
    assert all(type(c) is float for c, _ in spec.extra_terms)


def _no_solve(*args, **kwargs):
    raise AssertionError("the Hamiltonian reached the eigensolver")


def test_ground_state_rejects_a_one_by_one_matrix_before_any_solve(monkeypatch):
    monkeypatch.setattr(qcore, "eig_hermitian", _no_solve)
    with pytest.raises(ValidationError, match="Hamiltonian needs at least one qubit"):
        ground_state(np.array([[1.0]]))


def test_ground_state_rejects_thirteen_qubits_before_any_solve(monkeypatch):
    monkeypatch.setattr(qcore, "eig_hermitian", _no_solve)
    ham = np.broadcast_to(0.0, (1 << 13, 1 << 13))  # zero-stride view: no 2^26 entries are allocated
    with pytest.raises(CapacityError, match="Hamiltonian needs 13 qubits, limit is 12"):
        ground_state(ham)
