"""Symmetries of states and spin chains as properties of their indicators, across the kernels' switches.

A global phase e^{i phi} psi of a random state of n = 3..12 qubits keeps its
marginals, and so its energies (emps_vector and its emps_vectors row) and
its entropy criterion. The draws cross qcore._DOT_MARGINALS, and stacks of 2
to 6 rows cross emps._SCALAR_MARGINALS.

Each chain property maps a random chain of N = 3..9 sites to a chain with
the same spectrum and the same ground-state indicators, and needs no
reference solver:

- reversing the site order (each extra string reversed) permutes the qubits;
- negating every coefficient of a string with an odd number of Y letters is
  complex conjugation of H and of its ground state;
- the global X flip, on a chain whose extra strings hold only I and X, maps
  h to -h.

State values agree within SLACK_TOL, the tolerance of the indicator verdicts.
Chain energies agree within EIGENPAIR_RESIDUAL_TOL times the chain's bound
B, the accuracy every accepted eigenpair is checked to; eta and the entropy
criterion within SLACK_TOL, and only on rows that neither side flags as
degenerate, where the ground state is defined.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from empskit import spinchain
from empskit.emps import SLACK_TOL, emps_vector, emps_vectors
from empskit.qcore import PureState, random_pure_state
from empskit.spinchain import EIGENPAIR_RESIDUAL_TOL, SpinChainSpec, entropy_criterion, indicator_sweep

_SITES = st.integers(3, 9)  # both sides of spinchain._DENSE_MAX_SITES
_SEEDS = st.integers(0, 2 ** 31 - 1)


def _row(spec):
    """The sweep row that `ising` prints for the chain: the one-row sweep at its own h."""
    return indicator_sweep(spec, "h", [spec.h])[0]


def _signed(rng, size=None):
    """Coefficients of magnitude 0.3..1.5 and either sign."""
    return rng.uniform(0.3, 1.5, size) * rng.choice([-1.0, 1.0], size)


def _strings(rng, n, letters, count):
    return ["".join(rng.choice(list(letters), n)) for _ in range(count)]


def _chain(rng, n, strings):
    coeffs = _signed(rng, len(strings)).tolist()
    return SpinChainSpec(N=n, J=_signed(rng), h=_signed(rng), extra_terms=tuple(zip(coeffs, strings)))


def _assert_same_rows(spec, image):
    a, b = _row(spec), _row(image)
    bound = spinchain._bounds(spinchain._chain_terms(spec)[1])[0]
    assert abs(a.ground_energy - b.ground_energy) <= EIGENPAIR_RESIDUAL_TOL * bound
    if not (a.degenerate or b.degenerate):
        assert abs(a.eta - b.eta) <= SLACK_TOL
        assert abs(a.entropy_criterion - b.entropy_criterion) <= SLACK_TOL


@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, n=_SITES)
def test_reversing_the_sites_keeps_the_ground_row(seed, n):
    rng = np.random.default_rng(seed)
    spec = _chain(rng, n, _strings(rng, n, "IXYZ", int(rng.integers(1, 4))))
    reversed_terms = tuple((c, s[::-1]) for c, s in spec.extra_terms)
    _assert_same_rows(spec, SpinChainSpec(N=n, J=spec.J, h=spec.h, extra_terms=reversed_terms))


@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, n=_SITES)
def test_negating_the_odd_y_coefficients_is_complex_conjugation(seed, n):
    rng = np.random.default_rng(seed)
    site = int(rng.integers(n))
    rest = "".join(rng.choice(list("IXZ"), n - 1))
    strings = [rest[:site] + "Y" + rest[site:]] + _strings(rng, n, "IXYZ", int(rng.integers(0, 3)))
    spec = _chain(rng, n, strings)
    conjugate = tuple((-c if s.count("Y") % 2 else c, s) for c, s in spec.extra_terms)
    _assert_same_rows(spec, SpinChainSpec(N=n, J=spec.J, h=spec.h, extra_terms=conjugate))


@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, n=_SITES)
def test_the_global_x_flip_maps_h_to_minus_h(seed, n):
    rng = np.random.default_rng(seed)
    spec = _chain(rng, n, _strings(rng, n, "IX", int(rng.integers(1, 4))))
    _assert_same_rows(spec, SpinChainSpec(N=n, J=spec.J, h=-spec.h, extra_terms=spec.extra_terms))


@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, n=st.integers(3, 12), phase=st.floats(0.0, 2 * np.pi), pairs=st.integers(1, 3))
def test_a_global_phase_keeps_the_energies_and_the_entropy_criterion(seed, n, phase, pairs):
    psi = random_pure_state(n, np.random.default_rng(seed))
    rotated = PureState(np.exp(1j * phase) * psi.amps)
    energies = emps_vector(psi).values
    assert np.max(np.abs(emps_vector(rotated).values - energies)) <= SLACK_TOL
    stacked = emps_vectors(np.stack([psi.amps, rotated.amps] * pairs))  # 2n to 6n marginals
    assert np.max(np.abs(stacked[-1] - energies)) <= SLACK_TOL
    assert abs(entropy_criterion(rotated) - entropy_criterion(psi)) <= SLACK_TOL
