import math

import numpy as np
import pytest

from empskit.classify import build_ghz
from empskit.emps import eta_indicator
from empskit.errors import ArgumentError, ValidationError
from empskit.qcore import basis_state, random_pure_state, tensor_product
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

from oracles import count_eigenvalues_below

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


def test_spec_validation():
    with pytest.raises(ValidationError, match="length"):
        SpinChainSpec(N=4, extra_terms=((1.0, "XX"),))
    with pytest.raises(ValidationError, match="invalid letters"):
        SpinChainSpec(N=2, extra_terms=((1.0, "XQ"),))
    with pytest.raises(ValidationError, match="site count"):
        SpinChainSpec(N=1)
    with pytest.raises(ValidationError, match="site count"):
        SpinChainSpec(N=13)


def test_spec_from_dict_roundtrip_and_errors():
    spec = spec_from_dict({"N": 5, "J": 1.0, "h": 0.5, "extra_terms": [[4.0, "IXXXI"]]})
    assert spec == SpinChainSpec(N=5, J=1.0, h=0.5, extra_terms=((4.0, "IXXXI"),))
    with pytest.raises(ValidationError):
        spec_from_dict({"N": 5, "bogus": 1})
    with pytest.raises(ValidationError):
        spec_from_dict({"extra_terms": [["a", "b", "c"]]})
    with pytest.raises(ValidationError):
        spec_from_dict([1, 2])


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


# ---------------------------------------------------------------- entropy criterion


def test_entropy_criterion_product_state():
    assert entropy_criterion(basis_state("000")) == 0.0
    mixed_product = tensor_product(
        tensor_product(basis_state("0"), build_ghz(2, math.pi / 4)), basis_state("1")
    )
    assert entropy_criterion(mixed_product) <= 1e-9


def test_entropy_criterion_ghz_is_one():
    assert abs(entropy_criterion(build_ghz(3, math.pi / 4)) - 1.0) <= 1e-9


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


def test_sweep_parameter_validation():
    with pytest.raises(ArgumentError):
        indicator_sweep(nearest_neighbor_chain(N=3), "field", [1.0])


def test_sweep_rows_reproducible():
    a = indicator_sweep(long_range_chain(), "h", [0.8, 1.2])
    b = indicator_sweep(long_range_chain(), "h", [0.8, 1.2])
    assert a == b
    assert isinstance(a[0], SweepRow)
