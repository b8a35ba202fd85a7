import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empskit.classify import build_dicke, build_ghz, build_w, slocc_orbit_sample
from empskit import qcore
from empskit.emps import (
    EmpsVector,
    _min_eigenvalues_2x2,
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
from empskit.errors import ArgumentError, CapacityError, ValidationError
from empskit.qcore import (
    DensityMatrix,
    PureState,
    basis_state,
    random_pure_state,
    reduced_density_matrix,
    tensor_product,
)

from oracles import (
    eig_oracle,
    partial_trace_oracle,
    passive_energy_enumeration_oracle,
    random_density,
    random_hermitian,
    random_unitary_energies,
)

EXCITED = np.diag([0.0, 1.0]).astype(complex)  # local Hamiltonian |1><1|


# ---------------------------------------------------------------- package namespace


def test_emps_submodule_is_not_shadowed():
    import empskit
    import empskit.emps as module

    assert module is sys.modules["empskit.emps"]
    assert empskit.emps is module
    assert module.emps_vector is empskit.emps_vector
    assert "emps" not in empskit.__all__


# ---------------------------------------------------------------- passive energy


def test_passive_energy_maximally_mixed_qubit():
    rho = DensityMatrix(np.eye(2) / 2)
    assert abs(passive_energy(rho, EXCITED) - 0.5) <= 1e-12


def test_passive_energy_moves_large_population_down():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    assert abs(passive_energy(rho, EXCITED) - 0.3) <= 1e-12


def test_passive_energy_matches_pairing_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(10):
        rho = random_density(4, rng)
        ham = random_hermitian(4, rng)
        got = passive_energy(DensityMatrix(rho), ham)
        want = passive_energy_enumeration_oracle(rho, ham)
        assert abs(got - want) <= 1e-9


def test_passive_energy_lower_bounds_unitary_orbit_samples():
    rng = np.random.default_rng(103)
    rho = random_density(4, rng)
    ham = random_hermitian(4, rng)
    samples = random_unitary_energies(rho, ham, 2000, rng)
    assert passive_energy(DensityMatrix(rho), ham) <= samples.min() + 1e-10


def test_passive_energy_never_exceeds_state_energy():
    rng = np.random.default_rng(107)
    for _ in range(20):
        rho = random_density(4, rng)
        ham = random_hermitian(4, rng)
        current = np.trace(rho @ ham).real
        assert passive_energy(DensityMatrix(rho), ham) <= current + 1e-10


def test_passive_energy_dimension_mismatch():
    with pytest.raises(ArgumentError):
        passive_energy(DensityMatrix(np.eye(2) / 2), np.eye(4))


# ---------------------------------------------------------------- marginal energies


def test_emps_of_product_state_is_zero():
    psi = basis_state("010")
    for i in (1, 2, 3):
        assert emps(psi, i) == 0.0


def test_emps_of_maximal_ghz_is_half():
    g = build_ghz(3, math.pi / 4)
    for i in (1, 2, 3):
        assert abs(emps(g, i) - 0.5) <= 1e-12


def test_emps_of_noisy_w_mixture():
    v1 = 0.2
    w = build_dicke(3, 1)
    rho = DensityMatrix((1 - v1) * w.density().entries + v1 / 8 * np.eye(8))
    for i in (1, 2, 3):
        assert abs(emps(rho, i) - (2 + v1) / 6) <= 1e-12


def test_emps_index_out_of_range():
    with pytest.raises(ArgumentError):
        emps(basis_state("00"), 3)
    with pytest.raises(ArgumentError):
        emps(basis_state("00"), 0)


@pytest.mark.parametrize("qubit", [1.0, np.float64(2), True, "1", None])
def test_emps_qubit_must_be_an_integer(qubit):
    for state in (basis_state("00"), basis_state("00").density()):
        with pytest.raises(ArgumentError, match="must be an integer, got"):
            emps(state, qubit)


def test_emps_accepts_a_numpy_integer_qubit():
    rho = DensityMatrix(random_density(8, np.random.default_rng(111)))
    assert emps(rho, np.int64(2)) == emps(rho, 2)


def test_emps_agrees_with_passive_energy_of_marginal():
    rng = np.random.default_rng(109)
    for _ in range(10):
        psi = random_pure_state(4, rng)
        q = int(rng.integers(1, 5))
        red = reduced_density_matrix(psi, (q,))
        assert abs(emps(psi, q) - passive_energy(red, EXCITED)) <= 1e-10


def test_geometric_entanglement_is_twice_the_marginal_energy():
    # the geometric entanglement across a qubit-vs-rest cut: 1 for GHZ, 0 for a product state
    assert abs(2 * emps(build_ghz(3, math.pi / 4), 1) - 1.0) <= 1e-12
    assert 2 * emps(basis_state("010"), 2) == 0.0


def test_emps_vector_biseparable_vertex():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))
    bs = tensor_product(bell, basis_state("0"))
    assert np.allclose(emps_vector(bs).values, [0.5, 0.5, 0.0], atol=1e-12)


def test_emps_vector_uniform_w():
    v = emps_vector(build_w([1 / 3] * 3))
    assert np.allclose(v.values, 1 / 3, atol=1e-12)


def test_emps_vector_all_zeros_product():
    assert np.array_equal(emps_vector(basis_state("0000")).values, np.zeros(4))


def test_emps_vector_values_are_read_only_on_every_path():
    w = build_w([1 / 3] * 3)
    vectors = [
        emps_vector(w),
        emps_vector(w.density()),
        EmpsVector._trusted(np.zeros(3)),
        *slocc_orbit_sample(w, 3, seed=1),
    ]
    for v in vectors:
        assert not v.values.flags.writeable
        with pytest.raises(ValueError):
            v.values[0] = 0.25


def test_emps_vector_owns_its_values():
    values = np.array([0.1, 0.2, 0.3])
    v = EmpsVector(n=3, values=values)
    values[0] = 9.0  # the caller's array changes after validation
    assert v.values.tolist() == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("hamiltonian", [[[1, 2], [3]], [["a", "b"], ["c", "d"]]], ids=["ragged", "strings"])
def test_passive_energy_rejects_a_ragged_or_non_numeric_hamiltonian(hamiltonian):
    with pytest.raises(ValidationError, match="rectangular array of numbers"):
        passive_energy(np.eye(2) / 2, hamiltonian)


def test_emps_vector_validation():
    with pytest.raises(ValidationError):
        EmpsVector(n=3, values=np.array([0.6, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        EmpsVector(n=2, values=np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ValidationError, match="at least one qubit"):
        EmpsVector(n=0, values=[])


def test_emps_vectors_rejects_malformed_stacks():
    with pytest.raises(ValidationError, match="shape"):
        emps_vectors(np.full(8, 8 ** -0.5))
    with pytest.raises(ValidationError, match="power of two"):
        emps_vectors(np.full((2, 6), 6 ** -0.5))
    with pytest.raises(CapacityError, match="13 qubits"):
        emps_vectors(np.eye(1, 2 ** 13))
    amps = np.full((4, 8), 8 ** -0.5)
    amps[2] *= 1.01
    with pytest.raises(ValidationError, match="amplitude row 2 is not normalized"):
        emps_vectors(amps)
    with pytest.raises(ValidationError, match="nonempty last axis"):
        worst_slacks(np.zeros((3, 0)))


# ---------------------------------------------------------------- closed-form marginal kernel


def _explicit_marginals(amps, n):
    # each qubit's marginal by an einsum over the (left, qubit, right) split
    out = []
    for q in range(n):
        a = amps.reshape(2 ** q, 2, -1)
        out.append(np.einsum("lir,ljr->ij", a, a.conj()))
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_matches_lapack_and_bisection_on_haar_states(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        psi = random_pure_state(n, rng)
        got = emps_vector(psi).values
        marginals = _explicit_marginals(psi.amps, n)
        lapack = np.array([np.linalg.eigvalsh(m)[0] for m in marginals])
        bisection = np.array([eig_oracle(m, tol=1e-13)[0] for m in marginals])
        assert np.max(np.abs(got - lapack)) <= 1e-12
        assert np.max(np.abs(got - bisection)) <= 1e-12
        if n <= 6:
            rho = psi.density().entries
            traced = [partial_trace_oracle(rho, n, [q]) for q in range(1, n + 1)]
            assert np.allclose(traced, marginals, atol=1e-12)


def test_closed_form_of_product_states():
    # marginals that are exact projectors in floating point give exactly 0
    plus = PureState(np.full(16, 0.25))
    for psi in (basis_state("0110"), plus):
        assert np.array_equal(emps_vector(psi).values, np.zeros(4))
    # otherwise the rounding in the amplitudes leaves at most a few ulps
    rng = np.random.default_rng(717)
    for _ in range(50):
        psi = random_pure_state(1, rng)
        for _ in range(4):
            psi = tensor_product(psi, random_pure_state(1, rng))
        v = emps_vector(psi).values
        assert v.min() >= 0.0 and v.max() <= 1e-15


def test_closed_form_of_ghz_is_half():
    # cos^2 and sin^2 of pi/4 round to either side of 1/2
    for n in (2, 3, 7, 12):
        assert np.max(np.abs(emps_vector(build_ghz(n, math.pi / 4)).values - 0.5)) <= 1e-15
    # diagonals rounded up to 1/2 + 1 ulp are clipped to exactly 1/2
    amps = np.zeros(8)
    amps[[0, 7]] = math.cos(math.pi / 4)
    assert np.array_equal(emps_vector(PureState(amps)).values, np.full(3, 0.5))


def test_closed_form_keeps_tiny_eigenvalues():
    eps = 1e-14
    amps = np.zeros(8)
    amps[0], amps[7] = math.sqrt(1 - eps), math.sqrt(eps)
    v = emps_vector(PureState(amps)).values
    assert np.allclose(v, eps, rtol=1e-9, atol=0.0)
    # a product state tilted by 1e-7 has lambda_min about 1e-14
    rng = np.random.default_rng(719)
    product = tensor_product(random_pure_state(1, rng), random_pure_state(2, rng))
    z = product.amps + 1e-7 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    psi = PureState(z / np.linalg.norm(z))
    got = emps_vector(psi).values
    lapack = np.array([np.linalg.eigvalsh(m)[0] for m in _explicit_marginals(psi.amps, 3)])
    assert 1e-16 < got[0] < 1e-12
    assert np.max(np.abs(got - lapack)) <= 1e-12


def test_closed_form_density_matrix_matches_pure_state():
    rng = np.random.default_rng(727)
    for n in (1, 3, 6):
        psi = random_pure_state(n, rng)
        pure = emps_vector(psi).values
        mixed = emps_vector(psi.density()).values
        assert np.max(np.abs(pure - mixed)) <= 1e-12


def _haar_marginals(n, rng):
    return np.stack(_explicit_marginals(random_pure_state(n, rng).amps, n))


def _twin_stacks():
    # Haar marginals for n = 1..12, then a (B, n, 2, 2) stack of them
    rng = np.random.default_rng(731)
    for n in range(1, 13):
        yield _haar_marginals(n, rng)
    yield np.stack([_haar_marginals(5, rng) for _ in range(7)])
    # product marginals (c = 0, p1 = 0, also as -0.0) and maximally mixed ones
    yield np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, -0.0]], [[-0.0, 0], [0, 1]]], complex)
    yield np.tile(np.eye(2, dtype=complex) / 2, (5, 1, 1))


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def test_closed_form_scalar_and_numpy_paths_are_bit_identical():
    for stack in _twin_stacks():
        qubits = range(1, stack.shape[-3] + 1)
        scalar = _min_eigenvalues_scalar(stack, qubits)
        _assert_same_bits(scalar, _min_eigenvalues_numpy(stack, qubits))
    # a stack with one eigenvalue below the floor: both raise the same error, naming qubit 3
    rng = np.random.default_rng(733)
    stack = np.stack([_haar_marginals(4, rng) for _ in range(3)])
    stack[1, 2] = [[0.5, 0.6], [0.6, 0.5]]
    messages = []
    for path in (_min_eigenvalues_scalar, _min_eigenvalues_numpy):
        with pytest.raises(ValidationError, match="qubit 3 ") as info:
            path(stack, range(1, 5))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 12])
def test_single_state_path_matches_stack_entry_points_bit_for_bit(n):
    # criterion 02's batched twin covers n = 3..8
    rng = np.random.default_rng(740 + n)
    z = rng.standard_normal((6, 2 ** n)) + 1j * rng.standard_normal((6, 2 ** n))
    amps = z / np.linalg.norm(z, axis=1)[:, None]
    energies = emps_vectors(amps)
    slacks = worst_slacks(energies)
    for row, want, slack in zip(amps, energies, slacks):
        v = emps_vector(PureState(row))
        _assert_same_bits(v.values, want)
        assert polygon_check(v).worst_slack.hex() == float(slack).hex()
        if n >= 3:
            assert eta_indicator(v).hex() == float(slack).hex()


def _gather_kernel_emps(amps):
    # the gather/zgemm kernel that serves states below qcore._DOT_MARGINALS qubits
    n = amps.size.bit_length() - 1
    marginals = qcore._marginals(amps[None, :], qcore._subset_table(n, 1))
    return _min_eigenvalues_2x2(marginals, range(1, n + 1))[0]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_dot_path_energies_match_the_gather_kernel(n):
    rng = np.random.default_rng(750 + n)
    product = random_pure_state(1, rng)
    for _ in range(n - 1):
        product = tensor_product(product, random_pure_state(1, rng))
    states = [random_pure_state(n, rng) for _ in range(3)] + [
        build_ghz(n, math.pi / 4),
        build_ghz(n, 0.3),
        build_w([1 / n] * n),
        basis_state("1" + "0" * (n - 1)),
        product,
    ]
    for psi in states:
        got = emps_vector(psi).values
        assert np.max(np.abs(got - _gather_kernel_emps(psi.amps))) <= 4e-15


@pytest.mark.parametrize("n", [10, 11, 12])
def test_dot_path_exact_values(n):
    # marginals that are exact projectors give exactly 0
    plus = tensor_product(PureState(np.full(2 ** (n - 1), 2.0 ** (-(n - 1) / 2))), basis_state("0"))
    for psi in (basis_state("01" * (n // 2) + "0" * (n % 2)), plus):
        assert np.array_equal(emps_vector(psi).values, np.zeros(n))
    # GHZ: 1/2 exactly when both amplitudes round alike, else the gather kernel's bits
    amps = np.zeros(2 ** n)
    amps[[0, -1]] = math.cos(math.pi / 4)
    assert np.array_equal(emps_vector(PureState(amps)).values, np.full(n, 0.5))
    ghz = build_ghz(n, math.pi / 4)
    assert np.array_equal(emps_vector(ghz).values, _gather_kernel_emps(ghz.amps))
    assert np.max(np.abs(emps_vector(ghz).values - 0.5)) <= 1e-15


@pytest.mark.parametrize("n", [3, 9, 10, 12])
def test_emps_of_one_qubit_has_the_bits_of_emps_vector(n):
    rng = np.random.default_rng(760 + n)
    psi = random_pure_state(n, rng)
    states = [psi]
    if n <= 10:  # the density path, on the projector and on a mixture of two pure states
        mixed = 0.6 * psi.density().entries + 0.4 * random_pure_state(n, rng).density().entries
        states += [psi.density(), DensityMatrix._trusted(mixed)]
    for state in states:
        want = emps_vector(state).values
        for q in range(1, n + 1):
            assert emps(state, q).hex() == float(want[q - 1]).hex(), (state, q)


def test_orbit_sample_prefix_stability_on_the_dot_path():
    psi = random_pure_state(10, np.random.default_rng(770))
    short = slocc_orbit_sample(psi, 3, seed=21)
    long = slocc_orbit_sample(psi, 5, seed=21)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(short, long))


def test_closed_form_rejects_non_positive_marginal():
    # Hermitian, unit trace, eigenvalues -0.1 and 1.1: not a state's marginal
    rho = DensityMatrix._trusted(np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))
    with pytest.raises(ValidationError, match="qubit 1"):
        emps_vector(rho)


# ---------------------------------------------------------------- polygon / total / eta


def test_polygon_uniform_w_slack():
    report = polygon_check(EmpsVector(3, np.array([1 / 3, 1 / 3, 1 / 3])))
    assert report.satisfied
    assert abs(report.worst_slack - 1 / 3) <= 1e-12
    assert report.violating_index is None


def test_polygon_boundary_all_zero():
    report = polygon_check(EmpsVector(3, np.zeros(3)))
    assert report.satisfied
    assert report.worst_slack == 0.0


def test_polygon_constructed_violation():
    # (1/2, 0, 0) can never arise from a genuine pure state
    report = polygon_check(EmpsVector(3, np.array([0.5, 0.0, 0.0])))
    assert not report.satisfied
    assert report.violating_index == 1
    assert abs(report.worst_slack + 0.5) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_total_uniform_w_is_one(n):
    v = emps_vector(build_w([1 / n] * n))
    assert abs(v.total() - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("theta", [0.2, 0.5, math.pi / 4])
def test_total_ghz_formula(n, theta):
    v = emps_vector(build_ghz(n, theta))
    assert abs(v.total() - n * math.sin(theta) ** 2) <= 1e-9


@pytest.mark.parametrize("n,l", [(4, 1), (4, 2), (5, 2), (6, 3), (6, 4)])
def test_total_dicke_facet(n, l):
    v = emps_vector(build_dicke(n, l))
    assert abs(v.total() - min(l, n - l)) <= 1e-9


def test_eta_generalized_ghz():
    for theta in (0.3, math.pi / 4):
        assert abs(eta_indicator(build_ghz(3, theta)) - math.sin(theta) ** 2) <= 1e-9


def test_eta_biseparable_is_zero():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))
    bs = tensor_product(basis_state("0"), bell)
    assert abs(eta_indicator(bs)) <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_eta_ghz_at_w_facet_angle(n):
    theta = math.asin(math.sqrt(1 / n))
    assert abs(eta_indicator(build_ghz(n, theta)) - (n - 2) / n) <= 1e-9


def test_eta_needs_three_qubits():
    with pytest.raises(ArgumentError):
        eta_indicator(basis_state("00"))
    with pytest.raises(ArgumentError):
        eta_indicator(EmpsVector(2, np.array([0.1, 0.1])))


def test_eta_equals_polygon_worst_slack_exactly():
    rng = np.random.default_rng(211)
    for _ in range(20):
        v = emps_vector(random_pure_state(4, rng))
        assert eta_indicator(v) == polygon_check(v).worst_slack


def test_eta_accepts_vector_and_state():
    g = build_ghz(3, 0.4)
    assert eta_indicator(g) == eta_indicator(emps_vector(g))


# ---------------------------------------------------------------- random-state laws


@pytest.mark.parametrize("n", [3, 5, 8])
def test_polygon_law_on_haar_sample(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(300):
        v = emps_vector(random_pure_state(n, rng))
        assert polygon_check(v).worst_slack >= -1e-9
        assert v.values.min() >= 0.0
        assert v.values.max() <= 0.5 + 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6))
def test_emps_bounds_property(seed, n):
    v = emps_vector(random_pure_state(n, np.random.default_rng(seed)))
    assert np.all(v.values >= 0.0)
    assert np.all(v.values <= 0.5 + 1e-10)
