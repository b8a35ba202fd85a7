"""Exact diagonalization of small Ising-type spin chains.

The base model is an open chain of N spin-1/2 sites,
H = -J sum_i s^z_i s^z_{i+1} - h sum_i s^z_i with s^z = sigma_z / 2,
optionally extended by extra Pauli-string terms (per-site letters I/X/Y/Z
with full Pauli matrices), each filled into the dense matrix from its bit
masks. Ground states feed the energy indicator and the pairwise entropy
criterion for genuine multipartite entanglement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import combinations
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import qcore
from .emps import eta_indicator
from .errors import ArgumentError, NumericError, ValidationError
from .qcore import PureState

MIN_SITES = 2
MAX_SITES = qcore.MAX_QUBITS

DEGENERACY_GAP_TOL = 1e-8
EIGENPAIR_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SpinChainSpec:
    """Open-chain Ising parameters plus optional Pauli-string couplings."""

    N: int = 5
    J: float = 1.0
    h: float = 1.0
    extra_terms: Tuple[Tuple[float, str], ...] = ()

    def __post_init__(self):
        try:
            object.__setattr__(self, "N", operator.index(self.N))
        except TypeError:
            raise ValidationError(f"site count N must be an integer, got {self.N!r}") from None
        if not MIN_SITES <= self.N <= MAX_SITES:
            raise ValidationError(f"site count N must be in {MIN_SITES}..{MAX_SITES}, got {self.N}")
        terms = tuple((float(c), str(s).upper()) for c, s in self.extra_terms)
        for _, s in terms:
            if len(s) != self.N:
                raise ValidationError(f"Pauli string {s!r} has length {len(s)}, expected N={self.N}")
            _pauli_masks(s)
        object.__setattr__(self, "extra_terms", terms)


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: PureState
    degeneracy_gap: float
    degenerate: bool


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    ground_energy: float
    gap: float
    eta: float
    entropy_criterion: float
    degenerate: bool


def _pauli_masks(letters: str) -> Tuple[int, int, int]:
    """(x mask, z mask, Y count) of a Pauli string, site 1 the most significant bit."""
    bad = set(letters) - set("IXYZ")
    if bad:
        raise ValidationError(f"Pauli string {letters!r} has invalid letters {sorted(bad)}")
    x = int("0" + letters.translate(str.maketrans("IXYZ", "0110")), 2)  # X and Y sites
    z = int("0" + letters.translate(str.maketrans("IXYZ", "0011")), 2)  # Z and Y sites
    return x, z, letters.count("Y")


def _pauli_sum(n: int, terms: Sequence[Tuple[float, str]]) -> np.ndarray:
    """Dense sum of coeff * Pauli string over n sites, terms added in list order.

    Column i of a string holds i^nY (-1)^popcount(i & z) at row i ^ x.
    """
    dim = 1 << n
    idx = np.arange(dim)
    signs = np.prod(1 - 2 * ((idx[:, None] >> np.arange(n)) & 1), axis=1)  # signed (-1)^popcount(i)
    ham = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, letters in terms:
        x, z, ny = _pauli_masks(letters)
        ham[idx ^ x, idx] += coeff * (1, 1j, -1, -1j)[ny % 4] * signs[idx & z]
    return ham


def pauli_string_matrix(letters: str) -> np.ndarray:
    """Dense tensor product of per-site Pauli matrices, site 1 most significant."""
    return _pauli_sum(len(letters), [(1.0, letters.upper())])


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N Hermitian matrix: ZZ bonds, then Z fields, then the extra strings."""
    n = spec.N
    # s^z s^z = sigma_z sigma_z / 4 and s^z = sigma_z / 2
    bonds = [(-0.25 * spec.J, "I" * i + "ZZ" + "I" * (n - 2 - i)) for i in range(n - 1)]
    fields = [(-0.5 * spec.h, "I" * i + "Z" + "I" * (n - 1 - i)) for i in range(n)]
    return _pauli_sum(n, bonds + fields + list(spec.extra_terms))


def nearest_neighbor_chain(N: int = 5, J: float = 1.0, h: float = 1.0) -> SpinChainSpec:
    """Plain open Ising chain with no extra couplings."""
    return SpinChainSpec(N=N, J=J, h=h)


def long_range_chain(J: float = 1.0, h: float = 1.0) -> SpinChainSpec:
    """Five-site chain with three multi-site transverse couplings.

    Adds 4 X_2 X_3 X_4 + 3 X_1 X_3 X_4 X_5 + 3 X_1 X_2 X_4 X_5 on top of the
    nearest-neighbor chain; its ground state is genuinely multipartite
    entangled at J = h = 1.
    """
    return SpinChainSpec(
        N=5,
        J=J,
        h=h,
        extra_terms=((4.0, "IXXXI"), (3.0, "XIXXX"), (3.0, "XXIXX")),
    )


def ground_state(hamiltonian: Union[np.ndarray, SpinChainSpec]) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian operator, with a deterministic eigenvector.

    The returned state is the first column of the ascending-sorted eigenbasis
    with its global phase fixed so the largest-magnitude amplitude is real
    and positive. The result is flagged degenerate when the gap to the next
    level is below DEGENERACY_GAP_TOL, in which case indicator values
    computed from it are not well defined.
    """
    ham = build_hamiltonian(hamiltonian) if isinstance(hamiltonian, SpinChainSpec) else np.asarray(hamiltonian)
    if ham.ndim != 2 or ham.shape[0] != ham.shape[1] or ham.shape[0] & (ham.shape[0] - 1):
        raise ValidationError(
            f"Hamiltonian must be square with power-of-two dimension, got shape {ham.shape}"
        )
    spec = qcore.eig_hermitian(ham, vectors=True)
    energy = float(spec.eigenvalues[0])
    gap = float(spec.eigenvalues[1] - spec.eigenvalues[0]) if spec.eigenvalues.size > 1 else float("inf")
    vec = spec.eigenvectors[:, 0].copy()
    k = int(np.argmax(np.abs(vec)))
    vec *= np.conj(vec[k]) / abs(vec[k])
    residual = float(np.linalg.norm(ham @ vec - energy * vec))
    if not residual <= EIGENPAIR_RESIDUAL_TOL:
        raise NumericError(f"ground-state residual {residual:.3e} exceeds {EIGENPAIR_RESIDUAL_TOL}")
    return GroundStateResult(
        energy=energy,
        state=PureState(vec / np.linalg.norm(vec)),
        degeneracy_gap=gap,
        degenerate=gap < DEGENERACY_GAP_TOL,
    )


def _marginal_entropies(stack: np.ndarray) -> np.ndarray:
    """Entropies in bits of a (K, d, d) stack of marginals, from one stacked eigensolve.

    Each matrix is first replaced by its exactly Hermitian part, as a
    DensityMatrix stores it, so every value is the bits of von_neumann_entropy
    on the same marginal.
    """
    herm = 0.5 * (stack + stack.conj().swapaxes(1, 2))
    return qcore._entropy_bits(qcore._eigh(herm)[0])


def entropy_criterion(psi: PureState) -> float:
    """min over pairs i<j of |S(rho_ij) - S(rho_i) - S(rho_j)|, in bits.

    A strictly positive value witnesses genuine multipartite entanglement of
    the pure state; any product structure across a cut drives some pair to
    additivity and the minimum to zero.
    """
    n = psi.n
    if n < 3:
        raise ArgumentError(f"entropy criterion needs at least 3 qubits, got n={n}")
    singles = _marginal_entropies(qcore._qubit_marginals(psi.amps[None, :])[0])
    pairs = _marginal_entropies(qcore._pair_marginals(psi.amps))
    i, j = np.array(list(combinations(range(n), 2))).T
    return float(np.min(np.abs(pairs - singles[i] - singles[j])))


def indicator_sweep(spec: SpinChainSpec, parameter: str, values: Sequence[float]) -> List[SweepRow]:
    """Ground-state indicators along a one-parameter family of chains.

    parameter is one of "J", "h", or "coefficient"; the last scales every
    extra-term coefficient by the swept value. Rows with a degenerate ground
    level are flagged rather than silently resolved, since the indicators are
    not well defined on an arbitrary vector of the ground space.
    """
    if parameter not in ("J", "h", "coefficient"):
        raise ArgumentError(f'parameter must be "J", "h", or "coefficient", got {parameter!r}')
    rows: List[SweepRow] = []
    for x in values:
        x = float(x)
        if parameter == "coefficient":
            varied = replace(spec, extra_terms=tuple((c * x, s) for c, s in spec.extra_terms))
        else:
            varied = replace(spec, **{parameter: x})
        gs = ground_state(varied)
        rows.append(
            SweepRow(
                parameter=x,
                ground_energy=gs.energy,
                gap=gs.degeneracy_gap,
                eta=eta_indicator(gs.state),
                entropy_criterion=entropy_criterion(gs.state),
                degenerate=gs.degenerate,
            )
        )
    return rows


def spec_from_dict(payload: dict) -> SpinChainSpec:
    """Parse {"N", "J", "h", "extra_terms": [[coeff, "IXZ..."], ...]}."""
    if not isinstance(payload, dict):
        raise ValidationError("spin chain spec must be a JSON object")
    known = {"N", "J", "h", "extra_terms"}
    unknown = set(payload) - known
    if unknown:
        raise ValidationError(f"unknown spin chain fields {sorted(unknown)}")
    try:
        n, J, h = (float(payload.get(k, d)) for k, d in (("N", 5), ("J", 1.0), ("h", 1.0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("spin chain fields N, J and h must be numbers") from exc
    if not n.is_integer():
        raise ValidationError(f"site count N must be an integer, got {payload['N']!r}")
    terms = payload.get("extra_terms", [])
    try:
        extra = tuple((float(c), str(s)) for c, s in terms)
    except (TypeError, ValueError) as exc:
        raise ValidationError("extra_terms must be [coefficient, pauli_string] pairs") from exc
    return SpinChainSpec(N=int(n), J=J, h=h, extra_terms=extra)
