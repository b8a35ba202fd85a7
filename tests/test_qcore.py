import itertools
import math
import numbers
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empskit import cli, qcore
from empskit.classify import build_dicke, build_ghz, build_noisy_ghz, build_noisy_w, build_w, discriminate_noisy
from empskit.emps import emps_vector, passive_energy
from empskit.errors import NumericError, ValidationError
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

from oracles import eig_oracle, partial_trace_oracle, random_density, random_hermitian

BELL = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


# ---------------------------------------------------------------- types


def test_pure_state_is_immutable():
    psi = basis_state("01")
    with pytest.raises(AttributeError):
        psi.n = 3
    with pytest.raises(ValueError):
        psi.amps[0] = 1.0


def test_pure_state_owns_its_amplitudes():
    a = np.array([1, 0, 0, 0], dtype=complex)
    psi = PureState(a)
    a[0], a[3] = 5, 7  # the caller's array changes after validation
    assert np.array_equal(psi.amps, [1, 0, 0, 0])
    assert np.array_equal(emps_vector(psi).values, [0.0, 0.0])


@pytest.mark.parametrize("d", [2, 8, 32])
def test_density_matrix_stores_the_symmetrized_entries(d):
    rng = np.random.default_rng(d)
    m = random_density(d, rng) + 1e-13 * random_hermitian(d, rng) * 1j  # Hermitian to within the tolerance only
    assert DensityMatrix(m).entries.tobytes() == (0.5 * (m + m.conj().T)).tobytes()


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
def test_a_raw_matrix_and_its_density_matrix_solve_the_same_hermitian_part(d):
    # a defect inside the tolerance: LAPACK reads one matrix whichever way it is given
    rng = np.random.default_rng(100 + d)
    hamiltonian = random_hermitian(d, rng)
    for _ in range(10):
        skew = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = random_density(d, rng) + 2e-13 * skew / np.max(np.abs(skew))
        assert np.max(np.abs(m - m.conj().T)) <= 4e-13
        rho = DensityMatrix(m)
        assert eig_hermitian(m).eigenvalues.tobytes() == eig_hermitian(rho).eigenvalues.tobytes()
        raw, stored = eig_hermitian(m, vectors=True), eig_hermitian(rho, vectors=True)
        assert raw.eigenvalues.tobytes() == stored.eigenvalues.tobytes()
        assert raw.eigenvectors.tobytes() == stored.eigenvectors.tobytes()
        assert passive_energy(m, hamiltonian) == passive_energy(rho, hamiltonian)


def test_basis_state_and_projector():
    psi = basis_state("010")
    assert psi.n == 3
    assert psi.amps[2] == 1.0
    rho = psi.density()
    assert rho.dim == 8
    assert rho.entries[2, 2] == 1.0
    assert basis_state("1" * 12).amps[-1] == 1.0


# ---------------------------------------------------------------- tensor product


def test_tensor_product_basis_case():
    out = tensor_product(basis_state("0"), basis_state("1"))
    expected = np.zeros(4)
    expected[1] = 1.0  # |01>
    assert np.array_equal(out.amps, expected)


def test_tensor_product_plus_plus():
    plus = PureState(np.array([1, 1]) / math.sqrt(2))
    out = tensor_product(plus, plus)
    assert np.allclose(out.amps, 0.5)


def test_tensor_product_bell_times_zero():
    out = tensor_product(BELL, basis_state("0"))
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / math.sqrt(2)  # |000> and |110>
    assert np.allclose(out.amps, expected)


def test_fresh_unit_vectors_keep_their_bits_read_only():
    # random_pure_state and tensor_product build their states through PureState, which owns a read-only copy
    rng, replay = np.random.default_rng(31), np.random.default_rng(31)
    for n in (1, 5, 12):
        psi = random_pure_state(n, rng)
        z = replay.standard_normal(2 ** n) + 1j * replay.standard_normal(2 ** n)
        assert psi.n == n and np.array_equal(psi.amps, PureState(z / np.linalg.norm(z)).amps)
        assert not psi.amps.flags.writeable
    a, b = random_pure_state(2, rng), random_pure_state(3, rng)
    out = tensor_product(a, b)
    assert out.n == 5 and np.array_equal(out.amps, PureState(np.kron(a.amps, b.amps)).amps)
    assert not out.amps.flags.writeable


def test_tensor_product_density_matrices():
    a = basis_state("0").density()
    b = basis_state("1").density()
    out = tensor_product(a, b)
    assert out.dim == 4
    assert out.entries[1, 1] == 1.0


def test_permute_qubits_roundtrip_and_value():
    psi = basis_state("100")
    moved = permute_qubits(psi, (2, 3, 1))  # original qubit 1 goes to position 3
    assert np.array_equal(moved.amps, basis_state("001").amps)
    rng = np.random.default_rng(5)
    psi = random_pure_state(4, rng)
    back = permute_qubits(permute_qubits(psi, (2, 4, 1, 3)), (3, 1, 4, 2))
    assert np.allclose(back.amps, psi.amps)


# ---------------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rho = tensor_product(basis_state("0").density(), basis_state("1").density())
    red = partial_trace(rho, (1,))
    assert np.allclose(red.entries, basis_state("0").density().entries)


def test_partial_trace_ghz_marginal_is_maximally_mixed():
    ghz = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
    red = partial_trace(ghz.density(), (1,))
    assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_summation_oracle():
    rng = np.random.default_rng(42)
    psi = random_pure_state(4, rng)
    rho = psi.density()
    for keep in [(1, 2), (2, 4), (3,), (1, 2, 3)]:
        got = partial_trace(rho, keep).entries
        want = partial_trace_oracle(rho.entries, 4, keep)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_partial_trace_respects_keep_order():
    rng = np.random.default_rng(7)
    rho = random_pure_state(3, rng).density()
    ab = partial_trace(rho, (1, 3)).entries
    ba = partial_trace(rho, (3, 1)).entries
    want = partial_trace_oracle(rho.entries, 3, (3, 1))
    assert np.max(np.abs(ba - want)) <= 1e-12
    # swapping the kept labels permutes the 2-qubit basis as expected
    swap = [0, 2, 1, 3]
    assert np.allclose(ba, ab[np.ix_(swap, swap)])


def test_numpy_integer_qubit_labels_and_counts_are_accepted():
    psi = random_pure_state(3, np.random.default_rng(4))
    keep = (np.int64(3), np.uint8(1))
    assert np.array_equal(reduced_density_matrix(psi, keep).entries, reduced_density_matrix(psi, (3, 1)).entries)
    rho = psi.density()
    assert np.array_equal(partial_trace(rho, keep).entries, partial_trace(rho, (3, 1)).entries)
    order = (np.int32(2), np.int64(3), np.uint16(1))
    assert np.array_equal(permute_qubits(psi, order).amps, permute_qubits(psi, (2, 3, 1)).amps)
    assert random_pure_state(np.int64(2), np.random.default_rng(0)).n == 2


# each record that holds an array, as the library returns it
_ARRAY_RECORDS = {
    "EmpsVector": lambda: emps_vector(build_w([0.5, 0.25, 0.25])),
    "Spectrum": lambda: eig_hermitian(np.diag([0.0, 1.0]), vectors=True),
    "NoisyReport": lambda: discriminate_noisy(build_noisy_w(0.2), "w"),
}


@pytest.mark.parametrize("kind", list(_ARRAY_RECORDS))
def test_records_holding_arrays_compare_and_hash_by_identity(kind):
    first, second = _ARRAY_RECORDS[kind](), _ARRAY_RECORDS[kind]()
    assert first == first and first != second
    assert len({first, second, first}) == 2


def _density_inputs(n, rng):
    # a random full-rank state, white-noise W and GHZ mixtures, and a pure projector
    states = [DensityMatrix(random_density(2 ** n, rng)), random_pure_state(n, rng).density()]
    if n == 3:
        states += [build_noisy_w(0.2), build_noisy_ghz(0.5)]
    elif n >= 2:
        for pure in (build_dicke(n, 1), build_ghz(n, math.pi / 4)):
            states.append(DensityMatrix(0.7 * pure.density().entries + 0.3 / 2 ** n * np.eye(2 ** n)))
    return states


def _relabel(marginal, order):
    # the marginal of a sorted kept subset with its qubits read in `order` (positions into the subset)
    k = len(order)
    t = marginal.reshape([2] * (2 * k))
    return t.transpose(list(order) + [k + i for i in order]).reshape(2 ** k, 2 ** k)


@pytest.mark.parametrize("n", range(1, 7))
def test_density_marginals_match_the_summation_oracle_in_every_order(n):
    # every kept subset in every order, up to all n qubits permuted; from five qubits
    # on the oracle runs once per subset and each order relabels its output
    rng = np.random.default_rng(1100 + n)
    eps = np.finfo(float).eps
    for rho in _density_inputs(n, rng):
        for k in range(1, n + 1):
            # the oracle adds 2^(n-k) terms one after another; on the noisy W mixture at
            # n = 6 its own rounding reaches 1e-15 (the kernel's is checked below)
            tol = max(1e-15, 2 ** (n - k - 2) * eps)
            for subset in itertools.combinations(range(1, n + 1), k):
                sorted_want = partial_trace_oracle(rho.entries, n, subset)
                for order in itertools.permutations(range(k)):
                    keep = tuple(subset[i] for i in order)
                    want = partial_trace_oracle(rho.entries, n, keep) if n <= 4 else _relabel(sorted_want, order)
                    got = partial_trace(rho, keep).entries
                    assert np.max(np.abs(got - want)) <= tol, keep
                    assert np.array_equal(reduced_density_matrix(rho, keep).entries, got), keep
        every = qcore._state_marginals(rho)
        singles = [partial_trace_oracle(rho.entries, n, (q,)) for q in range(1, n + 1)]
        assert np.max(np.abs(every - singles)) <= max(1e-15, 2 ** (n - 3) * eps)
        # each qubit's populations against the exactly rounded sums of the diagonal
        diag = rho.entries.diagonal().real
        for q in range(n):
            bit = np.arange(2 ** n) >> (n - 1 - q) & 1
            exact = [math.fsum(diag[bit == 0]), math.fsum(diag[bit == 1])]
            assert np.max(np.abs(every[q].diagonal().real - exact)) <= 2 * eps, q


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_density_marginals_are_exactly_hermitian(n):
    # entry [b, a] sums the conjugates of entry [a, b]'s terms in the same order
    rng = np.random.default_rng(1200 + n)
    rho = DensityMatrix._trusted(random_density(2 ** n, rng))
    groups = [None, [(q,) for q in range(n)][::-1]]
    if n >= 3:
        groups.append([(n - 1, 0, 1)])
    for group in groups:
        m = qcore._state_marginals(rho, group)
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))
        assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)) <= 1e-14


def test_density_marginals_of_every_qubit_read_the_cached_table():
    rho = DensityMatrix(random_density(16, np.random.default_rng(13)))
    qcore._state_marginals(rho)
    before = qcore._subset_table.cache_info()
    qcore._state_marginals(rho)
    after = qcore._subset_table.cache_info()
    assert after.hits == before.hits + 1 and after.currsize == before.currsize
    for keep in itertools.permutations(range(1, 5), 3):
        partial_trace(rho, keep)
    assert qcore._subset_table.cache_info().currsize == before.currsize


def test_reduced_density_matrix_pure_fast_path_agrees():
    rng = np.random.default_rng(9)
    psi = random_pure_state(5, rng)
    rho = psi.density()
    for keep in [(2,), (1, 4), (5, 2)]:
        fast = reduced_density_matrix(psi, keep).entries
        slow = partial_trace(rho, keep).entries
        assert np.max(np.abs(fast - slow)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), split=st.integers(0, 5))
def test_partial_trace_consistency_trace_s_then_t(seed, split):
    # tracing over S then T equals tracing over S union T on 5-qubit states
    pairs = [
        ((2,), (4,)),
        ((1, 3), (5,)),
        ((5,), (1, 2)),
        ((2, 4), (1,)),
        ((1,), (2, 3)),
        ((3, 5), (2,)),
    ]
    s, t = pairs[split]
    rho = random_pure_state(5, np.random.default_rng(seed)).density()
    union = set(s) | set(t)
    keep_final = tuple(q for q in range(1, 6) if q not in union)
    direct = partial_trace(rho, keep_final).entries

    keep_first = tuple(q for q in range(1, 6) if q not in set(s))
    step1 = partial_trace(rho, keep_first)
    relabel = {q: i + 1 for i, q in enumerate(keep_first)}
    keep_second = tuple(relabel[q] for q in keep_final)
    two_step = partial_trace(step1, keep_second).entries
    assert np.max(np.abs(direct - two_step)) <= 1e-12


# ---------------------------------------------------------------- eigensolver


def test_eig_diagonal_case():
    spec = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(spec.eigenvalues, [0.3, 0.7])


def test_eig_noisy_w_marginal_spectrum():
    # reduced qubit of the white-noise W mixture at v1 = 0.2
    v1 = 0.2
    w = PureState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
    rho = DensityMatrix((1 - v1) * w.density().entries + v1 / 8 * np.eye(8))
    red = partial_trace(rho, (1,))
    spec = eig_hermitian(red)
    assert np.allclose(spec.eigenvalues, [(2 + v1) / 6, (4 - v1) / 6], atol=1e-12)


def test_eig_matches_root_finding_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        got = eig_hermitian(h).eigenvalues
        want = eig_oracle(h)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(17)
    h = random_hermitian(16, rng)
    spec = eig_hermitian(h, vectors=True)
    v = spec.eigenvectors
    recon = (v * spec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(h - recon)) <= 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(16))) <= 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_tolerance_is_relative_to_the_largest_entry_past_one(scale):
    # one skew defect at 0.5-2x the tolerance 1e-12 max(1, max |M|): the verdict is that rule's, at every scale
    rng = np.random.default_rng(29)
    verdicts = set()
    for _ in range(40):
        m = scale * random_hermitian(4, rng)
        m[0, 2] += rng.uniform(0.5, 2.0) * 1e-12 * max(1.0, np.max(np.abs(m))) * np.exp(2j * np.pi * rng.uniform())
        hermitian = np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(m)))
        try:
            eig_hermitian(m)
        except ValidationError as exc:
            assert "matrix is not Hermitian" in str(exc) and not hermitian
        else:
            assert hermitian
        verdicts.add(hermitian)
    assert verdicts == {True, False}


def test_eig_handles_degenerate_spectra():
    # exactly repeated eigenvalues, plus a degenerate block coupled off-diagonally
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 1] = m[1, 0] = 0.25
    spec = eig_hermitian(m, vectors=True)
    assert np.allclose(spec.eigenvalues, [0.0, 0.25, 0.25, 0.5], atol=1e-12)
    assert np.allclose(spec.eigenvalues, eig_oracle(m), atol=1e-8)
    v = spec.eigenvectors
    recon = (v * spec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(m - recon)) <= 1e-9


def test_eig_is_deterministic():
    h = random_hermitian(8, np.random.default_rng(23))
    a = eig_hermitian(h, vectors=True)
    b = eig_hermitian(h, vectors=True)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_of_a_stack_matches_one_at_a_time():
    rng = np.random.default_rng(31)
    stack = np.stack([random_hermitian(4, rng) for _ in range(5)])
    spec = eig_hermitian(stack, vectors=True)
    assert spec.eigenvalues.shape == (5, 4)
    for k, h in enumerate(stack):
        assert np.max(np.abs(spec.eigenvalues[k] - eig_hermitian(h).eigenvalues)) <= 1e-12
        v = spec.eigenvectors[k]
        assert np.max(np.abs((v * spec.eigenvalues[k]) @ v.conj().T - h)) <= 1e-9


# values a rule may see, from the exact-type fast path's int and float to the ABC path's NumPy scalars
_RULE_VALUES = [0, -3, 2 ** 70, 1.5, float("nan"), float("inf"), True, False, np.int64(2), np.uint8(1),
                np.float32(0.5), np.float64(2.0), np.bool_(True), 1j, np.complex128(1), "1", None, [1], Fraction(1, 2)]


@pytest.mark.parametrize("value", _RULE_VALUES, ids=repr)
def test_number_rules_keep_the_abc_truth_table(value):
    is_bool = isinstance(value, bool)
    assert qcore._is_integer(value) == (isinstance(value, numbers.Integral) and not is_bool)
    for kind in (numbers.Real, numbers.Complex):
        assert qcore._is_number(value, kind) == (isinstance(value, kind) and not is_bool)


def test_lapack_failure_is_a_numeric_error(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        eig_hermitian(np.eye(2))
    with pytest.raises(NumericError):
        eig_hermitian(np.eye(2), vectors=True)
    assert cli.run(["ising", "--model", "longrange"]) == 3
    assert "numeric error" in capsys.readouterr().err


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), dim=st.sampled_from([2, 3, 4, 6, 8]))
def test_eig_sum_equals_trace(seed, dim):
    h = random_hermitian(dim, np.random.default_rng(seed))
    spec = eig_hermitian(h)
    assert abs(spec.eigenvalues.sum() - np.trace(h).real) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), size=st.sampled_from([1, 2]))
def test_pure_state_marginal_symmetry(seed, size):
    # both sides of a bipartition of a pure state share their nonzero spectrum
    rng = np.random.default_rng(seed)
    psi = random_pure_state(5, rng)
    part = tuple(sorted(rng.choice(np.arange(1, 6), size=size, replace=False).tolist()))
    rest = tuple(q for q in range(1, 6) if q not in part)
    small = eig_hermitian(reduced_density_matrix(psi, part)).eigenvalues
    large = eig_hermitian(reduced_density_matrix(psi, rest)).eigenvalues
    top = min(small.size, large.size)
    assert np.max(np.abs(np.sort(small)[::-1][:top] - np.sort(large)[::-1][:top])) <= 1e-9
    assert np.all(np.sort(large)[::-1][top:] <= 1e-9)


# ---------------------------------------------------------------- entropy


def test_entropy_of_pure_projector_is_zero():
    assert abs(von_neumann_entropy(BELL.density())) <= 1e-12


def test_entropy_of_maximally_mixed_qubit_is_one():
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - 1.0) <= 1e-12


def test_entropy_of_w_marginal_is_binary_entropy():
    w = PureState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
    red = reduced_density_matrix(w, (2,))
    # H2(1/3) evaluated directly from the known marginal spectrum {1/3, 2/3}
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert abs(expected - 0.9182958340544896) < 1e-15
    assert abs(von_neumann_entropy(red) - expected) <= 1e-10


def test_entropy_of_nine_qubit_state_with_known_spectrum():
    # nine qubits (d = 512): PSD check and entropy both run a dense eigensolve
    rng = np.random.default_rng(37)
    d = 2 ** 9
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    p = rng.random(d)
    p /= p.sum()
    start = time.perf_counter()
    rho = DensityMatrix((u * p) @ u.conj().T)
    entropy = von_neumann_entropy(rho)
    elapsed = time.perf_counter() - start
    assert rho.n == 9
    assert abs(entropy - float(-np.sum(p * np.log2(p)))) <= 1e-10
    assert elapsed < 10.0


def _einsum_marginal(amps, group):
    # Tr_rest |psi><psi| by one einsum over the amplitude tensor, independent of qcore's gather table
    n = amps.size.bit_length() - 1
    t = amps.reshape([2] * n)
    cols = [n + q if q in group else q for q in range(n)]
    k = len(group)
    red = np.einsum(t, list(range(n)), t.conj(), cols, list(group) + [n + q for q in group])
    return red.reshape(2 ** k, 2 ** k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
def test_pair_marginals_match_reduced_density_matrix(n):
    psi = random_pure_state(n, np.random.default_rng(700 + n))
    pairs = tuple(map(tuple, qcore._subset_indices(n, 2).T.tolist()))
    stack = qcore._marginals(psi.amps[None, :], qcore._subset_table(n, 2))[0]
    assert pairs == tuple(itertools.combinations(range(n), 2))
    assert stack.shape == (len(pairs), 4, 4)
    # at 12 qubits a spot check: both ends of the order and a middle pair
    checked = pairs if n < 12 else pairs[:3] + ((4, 8),) + pairs[-3:]
    for i, j in checked:
        got = stack[pairs.index((i, j))]
        assert np.max(np.abs(got - _einsum_marginal(psi.amps, (i, j)))) <= 1e-15, (i, j)
        if n <= 8:
            expected = partial_trace(psi.density(), (i + 1, j + 1)).entries
            assert np.max(np.abs(got - expected)) <= 1e-15, (i, j)
        assert np.array_equal(reduced_density_matrix(psi, (i + 1, j + 1)).entries, got), (i, j)


@pytest.mark.parametrize("b", [1, 2, 50])
def test_qubit_marginals_gather_and_loop_layouts_agree(monkeypatch, b):
    # _GATHER_MAX_ENTRIES is forced to one take for every group, then to one group per take
    rng = np.random.default_rng(800 + b)
    for n in range(1, 13):
        amps = rng.standard_normal((b, 2 ** n)) + 1j * rng.standard_normal((b, 2 ** n))
        families = [tuple(itertools.combinations(range(n), 1))]
        if 2 <= n and (b < 50 or n <= 10):  # 50 states' pairs at 11-12 qubits take > 100 MB
            families.append(tuple(itertools.combinations(range(n), 2)))
        if 3 <= n:
            families.append(((2, 0, 1),))
        for groups in families:
            table = qcore._gather_table(n, groups)
            monkeypatch.setattr(qcore, "_GATHER_MAX_ENTRIES", b * len(groups) * 2 ** n)
            one_take = qcore._marginals(amps, table)
            monkeypatch.setattr(qcore, "_GATHER_MAX_ENTRIES", 1)
            per_group = qcore._marginals(amps, table)
            k = len(groups[0])
            assert one_take.shape == (b, len(groups), 2 ** k, 2 ** k)
            assert np.array_equal(one_take, per_group), (n, groups)
            if n <= 8:
                for row in (0, b - 1):
                    scale = 1e-12 * np.vdot(amps[row], amps[row]).real
                    for group, got in zip(groups, one_take[row]):
                        assert np.max(np.abs(got - _einsum_marginal(amps[row], group))) <= scale, group
            if n <= 4:  # the index-summation oracle is slow beyond a few qubits
                for row in (0, b - 1):
                    rho = np.outer(amps[row], amps[row].conj())
                    for group, got in zip(groups, one_take[row]):
                        want = partial_trace_oracle(rho, n, [q + 1 for q in group])
                        assert np.max(np.abs(got - want)) <= 1e-12 * np.trace(rho).real, group


def _single_qubit_test_states(n, rng):
    # Haar, GHZ(pi/4), W, a basis state and a product of random one-qubit states
    product = np.array([1.0 + 0j])
    for _ in range(n):
        product = np.kron(product, random_pure_state(1, rng).amps)
    return [
        random_pure_state(n, rng).amps,
        build_ghz(n, math.pi / 4).amps,
        build_w([1 / n] * n).amps,
        basis_state("10" * (n // 2) + "1" * (n % 2)).amps,
        product,
    ]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_dot_marginals_match_the_gather_kernel(n):
    # the gather kernel on the single-qubit table stays callable as the cross-check
    rng = np.random.default_rng(820 + n)
    for amps in _single_qubit_test_states(n, rng):
        got = qcore._qubit_marginals(amps[None, :])
        want = qcore._marginals(amps[None, :], qcore._subset_table(n, 1))
        assert got.shape == want.shape == (1, n, 2, 2)
        assert np.max(np.abs(got - want)) <= 1e-15
        # both sides of the transposed copy, against an einsum that uses neither kernel
        for q in (0, n // 2 - 1, n // 2, n - 1):
            assert np.max(np.abs(got[0, q] - _einsum_marginal(amps, (q,)))) <= 1e-15, q


def test_single_qubit_marginals_switch_to_dot_products_at_ten_qubits(monkeypatch):
    calls = []
    gather = qcore._marginals
    monkeypatch.setattr(qcore, "_marginals", lambda amps, table: calls.append(amps.shape) or gather(amps, table))
    rng = np.random.default_rng(825)
    for n in (9, 10):
        z = rng.standard_normal((2, 2 ** n)) + 1j * rng.standard_normal((2, 2 ** n))
        qcore._qubit_marginals(z)
        qcore._qubit_marginals(z, [0])
    assert calls == [(2, 2 ** 9)] * 2


@pytest.mark.parametrize("n", [3, 9, 10, 12])
def test_named_qubit_marginals_have_the_bits_of_every_qubit_stack(n):
    # on both sides of the switch: any named qubits in any order, any B, one kept qubit
    rng = np.random.default_rng(830 + n)
    z = rng.standard_normal((3, 2 ** n)) + 1j * rng.standard_normal((3, 2 ** n))
    amps = z / np.linalg.norm(z, axis=1)[:, None]
    full = qcore._qubit_marginals(amps)
    for row in range(3):
        assert np.array_equal(qcore._qubit_marginals(amps[row:row + 1])[0], full[row])
    named = [n - 1, 0, n // 2]
    assert np.array_equal(qcore._qubit_marginals(amps, named), full[:, named])
    psi = PureState(amps[0])
    for q in range(n):
        want = DensityMatrix._trusted(full[0, q]).entries
        assert np.array_equal(reduced_density_matrix(psi, (q + 1,)).entries, want), q
    # a stack that is not C-contiguous is read as its contiguous copy
    assert np.array_equal(qcore._qubit_marginals(np.asfortranarray(amps)), full)


def test_kept_subset_tables_are_not_cached():
    # only the single-qubit and pair tables are kept; a kept subset's table is built per call
    psi = random_pure_state(6, np.random.default_rng(12))
    before = qcore._subset_table.cache_info().currsize
    for keep in itertools.permutations(range(1, 7), 3):
        reduced_density_matrix(psi, keep)
    assert qcore._subset_table.cache_info().currsize == before
    assert not qcore._subset_table(6, 2).flags.writeable


def test_stacked_entropy_matches_von_neumann_entropy():
    rng = np.random.default_rng(41)
    rhos = [DensityMatrix(random_density(4, rng)) for _ in range(5)] + [BELL.density()]
    lam = qcore._eigh(np.stack([r.entries for r in rhos]))[0]
    assert qcore._entropy_bits(lam).tolist() == [von_neumann_entropy(r) for r in rhos]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_entropy_additive_on_products(seed):
    rng = np.random.default_rng(seed)
    a = DensityMatrix(random_density(2, rng))
    b = DensityMatrix(random_density(4, rng))
    combined = tensor_product(a, b)
    assert abs(
        von_neumann_entropy(combined) - von_neumann_entropy(a) - von_neumann_entropy(b)
    ) <= 1e-9


# ---------------------------------------------------------------- serialization


def test_state_dict_roundtrip_pure():
    rng = np.random.default_rng(31)
    psi = random_pure_state(3, rng)
    back = state_from_dict(state_to_dict(psi))
    assert np.array_equal(back.amps, psi.amps)


def test_state_dict_roundtrip_density():
    rho = DensityMatrix(random_density(4, np.random.default_rng(33)))
    back = state_from_dict(state_to_dict(rho))
    assert np.array_equal(back.entries, rho.entries)


def test_state_from_dict_infers_dim_from_the_entry_count():
    rho = DensityMatrix(random_density(4, np.random.default_rng(35)))
    payload = state_to_dict(rho)
    del payload["dim"]
    assert np.array_equal(state_from_dict(payload).entries, rho.entries)


def test_state_from_dict_accepts_numpy_integer_sizes():
    pure = [[1.0, 0.0], [0.0, 0.0]]
    assert state_from_dict({"n": np.int64(1), "amps": pure}).n == 1
    assert state_from_dict({"dim": np.int32(2), "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}).dim == 2

