"""Exact diagonalization of small Ising-type spin chains.

The base model is an open chain of N spin-1/2 sites,
H = -J sum_i s^z_i s^z_{i+1} - h sum_i s^z_i with s^z = sigma_z / 2,
optionally extended by extra Pauli-string terms (per-site letters I/X/Y/Z
with full Pauli matrices). Ground states feed the energy indicator and the
pairwise entropy criterion for genuine multipartite entanglement.

A chain is one tuple of Pauli strings and a (K, T) table of their
coefficients (_chain_terms): one row for a spec, or one row per swept
value of J, h or the extra-term scale. A table, or a sweep chunk's slice
of it, is one operator grouped by x mask, one row of values per group and
chain (_PauliSum); everything but the coefficients is cached per term list
(_pauli_structure). The dense fill and the matrix-free product both read it:

- N <= 7: the dense matrices, float64 when no term has an odd number of Y
  letters and complex128 otherwise, are filled as one stack and go to one
  stacked LAPACK eigh, which gives each matrix the bits of its own solve.
  The gap is the difference of the two lowest eigenvalues with
  multiplicity.
- N = 8..12: Lanczos with full reorthogonalisation from a seeded start
  vector, once for the ground pair and once more orthogonal to the ground
  vector for the next level, so a degenerate ground level gives a zero gap.
  Either solve not converged by the Krylov dimension 2^N raises
  NumericError. A 12-site transverse-field chain takes about 0.1 s.

On both paths, and for a raw matrix, one rule (_checked_result) fixes the
phase of every state of a chunk and checks its eigenpair residual against
EIGENPAIR_RESIDUAL_TOL, and `degenerate` means a gap below
DEGENERACY_GAP_TOL. A sweep takes eta and the entropy criterion of all its
ground states from one stack of single-qubit marginals. The first table
row whose sum of |c_t| is not finite (SpinChainSpec._first_unbounded, the
spec's own size rule) ends a sweep: the rows before it are solved, then
that row's spec raises its own message.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import qcore
from .emps import _CHUNK_AMPLITUDES, _min_eigenvalues_2x2, worst_slacks
from .errors import ArgumentError, NumericError, ValidationError
from .qcore import PureState

MIN_SITES = 2
MAX_SITES = qcore.MAX_QUBITS

DEGENERACY_GAP_TOL = 1e-8
EIGENPAIR_RESIDUAL_TOL = 1e-8

# Chains up to this many sites are solved densely, longer ones by Lanczos:
# where the two solvers' times cross on transverse-field and odd-Y chains.
_DENSE_MAX_SITES = 7
# A Lanczos Ritz pair is accepted once its residual is below this times the
# largest |Ritz value| (at least 1).
_LANCZOS_TOL = 1e-10
_LANCZOS_SEED = 0


@dataclass(frozen=True)
class SpinChainSpec:
    """Open-chain Ising parameters plus optional Pauli-string couplings."""

    N: int = 5
    J: float = 1.0
    h: float = 1.0
    extra_terms: Tuple[Tuple[float, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "N", qcore._integer(self.N, "site count N", ValidationError))
        if not MIN_SITES <= self.N <= MAX_SITES:
            raise ValidationError(f"site count N must be in {MIN_SITES}..{MAX_SITES}, got {self.N}")
        for name in ("J", "h"):
            value = getattr(self, name)
            try:
                finite = qcore._is_number(value) and math.isfinite(value)
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        try:
            terms = tuple((qcore._number(c, "coefficient", TypeError), str(s).upper()) for c, s in self.extra_terms)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"extra_terms must be (coefficient, Pauli string) pairs: {exc}") from None
        for c, s in terms:
            if len(s) != self.N:
                raise ValidationError(f"Pauli string {s!r} has length {len(s)}, expected N={self.N}")
            _require_pauli(s)
            if not math.isfinite(c):
                raise ValidationError(f"extra_terms coefficient of {s!r} must be finite, got {c!r}")
        object.__setattr__(self, "extra_terms", terms)
        if self._first_unbounded(_chain_terms(self)[1]) == 0:
            raise ValidationError(
                "J, h and extra_terms are too large: the sum of the chain's |coefficients| is not finite"
            )

    @staticmethod
    def _first_unbounded(table: np.ndarray) -> int:
        """Index of the first row of a (K, T) coefficient table whose sum of |c_t| is not finite, else K."""
        # Python float sums: an overflow is inf without a warning
        return next((k for k, row in enumerate(table.tolist()) if not math.isfinite(sum(map(abs, row)))), len(table))


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


# Per-site bits of each Pauli letter, site 1 the most significant bit.
_X_BITS = str.maketrans("IXYZ", "0110")  # X and Y flip the site
_Z_BITS = str.maketrans("IXYZ", "0011")  # Z and Y sign the site


def _require_pauli(letters: str) -> None:
    """ValidationError unless every letter of a Pauli string is one of I, X, Y, Z."""
    bad = set(letters) - set("IXYZ")
    if bad:
        raise ValidationError(f"Pauli string {letters!r} has invalid letters {sorted(bad)}")


# a sweep and the chains of a session reuse a few term lists; the bound caps
# the memory (README, "Numerical conventions")
@functools.lru_cache(maxsize=8)
def _pauli_structure(n: int, letters: Tuple[str, ...]) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...], np.ndarray]:
    """(masks, rows, group, signs) of a term list over n sites: a _PauliSum without its coefficients.

    masks holds the x masks in order of first appearance, which fixes
    matvec's summation order; rows[g, j] = j ^ masks[g]; group[t] is term
    t's group; signs[t, j] is term t's phase times the parity of its entry
    in row j. Cached per (n, term strings), so the rows of a sweep and every
    call on one chain share it; the arrays are read-only. The one place
    that parses a term list: its letters are checked by _require_pauli.
    """
    for s in letters:
        _require_pauli(s)
    x, z = (np.array([int("0" + s.translate(bits), 2) for s in letters]) for bits in (_X_BITS, _Z_BITS))
    ny = np.array([s.count("Y") for s in letters])
    first = {}
    group = tuple(first.setdefault(m, len(first)) for m in x.tolist())
    masks = np.array(list(first), dtype=np.int64)
    idx = np.arange(1 << n)
    rows = idx ^ masks[:, None]
    # the term's entry in row j sits in column j ^ x, whose phase it takes
    phases = np.array([1, 1j, -1, -1j])[ny % 4] if np.any(ny % 2) else 1.0 - ny % 4
    parity = np.prod(1 - 2 * ((idx[:, None] >> np.arange(n)) & 1), axis=1)  # (-1)^popcount(i)
    signs = phases[:, None] * parity[rows[list(group)] & z[:, None]]
    for arr in (masks, rows, signs):
        arr.flags.writeable = False
    return masks, rows, group, signs


class _PauliSum:
    """K operators sum_t coeffs[k, t] * letters[t] over n sites (coeffs a float64 table), grouped by x mask.

    All K rows share one list of term strings. A string with x mask x, z
    mask z and Y count nY sends basis state i to i ^ x with the phase
    i^nY (-1)^popcount(i & z). All terms of one x mask share their nonzero
    pattern, so group g of row k is one row of values:
    H_k[j, rows[g, j]] = vals[k, g, j] with rows[g, j] = j ^ masks[g]. Each
    value is accumulated in term order, each term as coeff * (phase *
    parity), so an entry has the same bits whatever K is and whichever rows
    share the stack. vals is float64 when every term has an even Y count
    (every phase is then real) and complex128 otherwise. Only vals is built
    per operator; the rest comes from _pauli_structure.
    """

    def __init__(self, letters: Sequence[str], coeffs: np.ndarray):
        self.masks, self.rows, group, signs = _pauli_structure(len(letters[0]), tuple(letters))
        self.vals = np.zeros((len(coeffs), *self.rows.shape), dtype=signs.dtype)
        for g, term in zip(group, coeffs.T[:, :, None] * signs[:, None]):
            self.vals[:, g] += term

    def dense(self) -> np.ndarray:
        """(K, 2^n, 2^n) stack of the dense matrices."""
        k, _, dim = self.vals.shape
        ham = np.zeros((k, dim, dim), dtype=self.vals.dtype)
        ham[:, np.arange(dim), self.rows] = self.vals
        return ham

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(H v)[j] = sum over groups g of vals[0, g, j] * v[j ^ masks[g]], without the dense matrix.

        For a K = 1 operator, as Lanczos builds it.
        """
        return (self.vals[0] * v[self.rows]).sum(axis=0)


def _chain_terms(spec: SpinChainSpec, parameter=None, values=()) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The chain's Pauli strings (ZZ bonds, Z fields, extra_terms) and its (K, T) coefficient table.

    One row for spec, or one per value of parameter ("coefficient" scales every extra
    term), in Python floats: a row has its own spec's bits, and an overflow is a silent inf.
    """
    n, extra = spec.N, spec.extra_terms
    letters = tuple("I" * i + "Z" * w + "I" * (n - w - i) for w in (2, 1) for i in range(n + 1 - w))  # ZZ, then Z
    letters += tuple(s for _, s in extra)
    fields = {"J": spec.J, "h": spec.h, "coefficient": 1.0}
    rows = [fields.values()] if parameter is None else [{**fields, parameter: x}.values() for x in values]
    # s^z s^z = sigma_z sigma_z / 4 and s^z = sigma_z / 2
    table = [[-0.25 * J] * (n - 1) + [-0.5 * h] * n + [c * x for c, _ in extra] for J, h, x in rows]
    return letters, np.array(table, dtype=np.float64).reshape(len(rows), len(letters))


def pauli_string_matrix(letters: str) -> np.ndarray:
    """Dense tensor product of per-site Pauli matrices, site 1 most significant.

    float64 when the string has an even number of Y letters, complex128 otherwise.
    """
    return _PauliSum([letters.upper()], np.ones((1, 1))).dense()[0]


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N Hermitian matrix: ZZ bonds, then Z fields, then the extra strings.

    float64 (real symmetric) when no extra string has an odd number of Y
    letters, complex128 otherwise.
    """
    return _PauliSum(*_chain_terms(spec)).dense()[0]


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

    A chain spec of up to 7 sites is filled densely in the operator's dtype
    and solved by LAPACK; from 8 sites on it is solved matrix-free by
    Lanczos (see _lanczos_ground_state). A raw ndarray must be Hermitian
    on 1 to 12 qubits and is solved densely. The state's global phase is
    fixed so its largest-magnitude amplitude is real and positive. The
    result is flagged degenerate when the gap to the next level is below
    DEGENERACY_GAP_TOL, in which case indicator values from it are not well defined.
    """
    if isinstance(hamiltonian, SpinChainSpec):
        return _ground_states(*_chain_terms(hamiltonian))[0]
    try:
        ham = np.asarray(hamiltonian)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"Hamiltonian must be a rectangular array of numbers: {exc}") from None
    if ham.ndim != 2 or ham.shape[0] != ham.shape[1] or ham.shape[0] & (ham.shape[0] - 1):
        raise ValidationError(
            f"Hamiltonian must be square with power-of-two dimension, got shape {ham.shape}"
        )
    qcore._qubit_count_for_dim(ham.shape[0], "Hamiltonian")  # 1 to 12 qubits, before any solve
    spec = qcore.eig_hermitian(ham, vectors=True)
    w, v = spec.eigenvalues, spec.eigenvectors
    return _checked_result(w[:1], v[None, :, 0], w[1:2] - w[:1], _product(ham))[0]


def _ground_states(letters: Sequence[str], table: np.ndarray) -> List[GroundStateResult]:
    """ground_state of the chain of each row of a (K, T) coefficient table over one term list.

    Up to _DENSE_MAX_SITES sites the chains are filled as one stack and
    solved by one stacked LAPACK eigh, which runs the same routine on each
    matrix, so every row has the bits of its own solve. Longer chains take
    one Lanczos solve each.
    """
    if len(letters[0]) > _DENSE_MAX_SITES:
        return [_lanczos_ground_state(_PauliSum(letters, row[None])) for row in table]
    ham = _PauliSum(letters, table).dense()
    w, v = qcore._eigh(ham, vectors=True)  # Hermitian by construction
    return _checked_result(w[:, 0], v[:, :, 0], w[:, 1] - w[:, 0], _product(ham))


def _product(ham: np.ndarray):
    """The map from a (K, 2^n) stack of vectors to their products with a matrix or a K-stack of matrices."""
    return lambda vecs: (ham @ vecs[:, :, None])[:, :, 0]


def _checked_result(energies: np.ndarray, vecs: np.ndarray, gaps: np.ndarray, apply) -> List[GroundStateResult]:
    """Phase-fixed ground states of K eigenpairs, after checking each |H vec - energy vec| <= EIGENPAIR_RESIDUAL_TOL.

    energies and gaps have shape (K,) and vecs (K, 2^n); apply maps such a
    stack to its rows' products with their operators. The one rule for a
    dense chunk, a Lanczos solve (K = 1) and a raw matrix: each row's phase
    makes its first largest-magnitude entry real and positive. A row's top
    entry, its factor and its norm come from that row alone, and |top| from a
    NumPy scalar (NumPy's array abs of a complex entry can differ from the
    scalar's in the last bit), so each state has the bits of a K = 1 call.
    """
    top = [np.abs(vec).argmax() for vec in vecs]
    scale = np.empty(len(vecs), dtype=vecs.dtype)
    for r, k in enumerate(top):
        scale[r] = np.conj(vecs[r, k]) / abs(vecs[r, k])
    vecs = vecs * scale[:, None]
    for r, k in enumerate(top):
        vecs[r, k] = abs(vecs[r, k])  # the product leaves a rounding-level imaginary part on complex vectors
    residuals = np.linalg.norm(apply(vecs) - energies[:, None] * vecs, axis=1)
    if not residuals.max() <= EIGENPAIR_RESIDUAL_TOL:  # NaN fails too
        residual = residuals[~(residuals <= EIGENPAIR_RESIDUAL_TOL)][0]  # the first row that fails
        raise NumericError(f"ground-state residual {residual:.3e} exceeds {EIGENPAIR_RESIDUAL_TOL}")
    return [
        GroundStateResult(
            energy=energy,
            state=PureState(vec / np.linalg.norm(vec)),
            degeneracy_gap=gap,
            degenerate=gap < DEGENERACY_GAP_TOL,
        )
        for energy, vec, gap in zip(energies.tolist(), vecs, gaps.tolist())
    ]


def _lanczos_ground_state(op: _PauliSum) -> GroundStateResult:
    """Ground state and gap of a one-row chain operator by two Lanczos solves.

    The first solve gives the ground pair. The second starts from a fresh
    vector and is kept orthogonal to the ground vector, so its lowest value
    is the next level counted with multiplicity: a degenerate ground level
    shows up as a zero gap, which a single Krylov space cannot see. Both
    start vectors come from a fixed seed, so results are reproducible.
    """
    rng = np.random.default_rng(_LANCZOS_SEED)
    energy, vec = _lanczos_lowest(op, rng.standard_normal(op.rows.shape[1]))
    vec /= np.linalg.norm(vec)
    second, _ = _lanczos_lowest(op, rng.standard_normal(op.rows.shape[1]), deflate=vec)
    # Both values are within their residuals of eigenvalues; a difference
    # below zero is a degenerate level seen through rounding.
    gap = max(second - energy, 0.0)
    return _checked_result(np.array([energy]), vec[None], np.array([gap]), lambda vecs: op.matvec(vecs[0])[None])[0]


def _lanczos_lowest(op: _PauliSum, start: np.ndarray, deflate=None) -> Tuple[float, np.ndarray]:
    """Lowest Ritz pair of op on the orthogonal complement of the unit vector deflate.

    Lanczos with full reorthogonalisation (classical Gram-Schmidt, twice per
    step, against every basis vector and deflate). The pair is accepted once
    its residual beta_k |s_k| is at most _LANCZOS_TOL times the largest
    |Ritz value| (at least 1); the tridiagonal matrix is solved every 8 steps,
    when the next beta vanishes, and at the end. NumericError if the pair has
    not been accepted by the dimension of the space.
    """
    dim = start.size
    fixed = 0 if deflate is None else 1
    basis = np.empty((dim, dim), dtype=op.vals.dtype)  # rows are committed only when written
    v = start.astype(op.vals.dtype)
    if fixed:
        basis[0] = deflate
        v -= deflate * np.vdot(deflate, v)
    v /= np.linalg.norm(v)
    alpha: List[float] = []
    beta: List[float] = []
    for k in range(1, dim - fixed + 1):
        m = fixed + k
        basis[m - 1] = v
        w = op.matvec(v)
        alpha.append(float(np.vdot(v, w).real))
        for _ in range(2):
            w -= basis[:m].T @ np.conj(basis[:m] @ w.conj())
        b = float(np.linalg.norm(w))
        if b <= _LANCZOS_TOL or k % 8 == 0 or k == dim - fixed:
            theta, s = qcore._eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1), vectors=True)
            if b * abs(s[-1, 0]) <= _LANCZOS_TOL * max(1.0, abs(theta[0]), abs(theta[-1])):
                return float(theta[0]), basis[fixed:m].T @ s[:, 0]
        beta.append(b)
        v = w / b
    raise NumericError(f"Lanczos did not converge within Krylov dimension {dim - fixed}")


def _entropy_criteria(amps: np.ndarray, qubit_marginals: np.ndarray) -> np.ndarray:
    """entropy_criterion of each row of a (B, 2^n) stack of pure-state amplitudes, n >= 3.

    qubit_marginals is the stack's qcore._qubit_marginals, which the caller
    may share with the energies. Every single-qubit and every pair marginal,
    each group in one stacked eigensolve; a row's value does not depend on B.
    """
    n = amps.shape[1].bit_length() - 1
    singles = qcore._marginal_entropies(qubit_marginals)
    pairs = qcore._marginal_entropies(qcore._marginals(amps, qcore._subset_table(n, 2)))
    i, j = qcore._subset_indices(n, 2)
    return np.min(np.abs(pairs - singles[:, i] - singles[:, j]), axis=1)


def entropy_criterion(psi: PureState) -> float:
    """min over pairs i<j of |S(rho_ij) - S(rho_i) - S(rho_j)|, in bits.

    A strictly positive value witnesses genuine multipartite entanglement of
    the pure state; any product structure across a cut drives some pair to
    additivity and the minimum to zero.
    """
    qcore._require_pure(psi, "entropy criterion")
    if psi.n < 3:
        raise ArgumentError(f"entropy criterion needs at least 3 qubits, got n={psi.n}")
    amps = psi.amps[None, :]
    return float(_entropy_criteria(amps, qcore._qubit_marginals(amps))[0])


def indicator_sweep(spec: SpinChainSpec, parameter: str, values: Sequence[float]) -> List[SweepRow]:
    """Ground-state indicators along a one-parameter family of chains.

    parameter is one of "J", "h", or "coefficient"; the last scales every
    extra-term coefficient by the swept value, so it needs a chain with
    extra terms. Both indicators need N >= 3. Rows with a degenerate ground
    level are flagged rather than silently resolved, since the indicators are
    not well defined on an arbitrary vector of the ground space.

    The values make one coefficient table, a row each, and no SpinChainSpec.
    Rows are solved in chunks of at most _CHUNK_AMPLITUDES matrix entries,
    which bounds the working set: one table slice, stacked fill and eigh per
    chunk (one Lanczos solve per row from 8 sites on), then eta and the
    entropy criterion of the whole chunk from one marginal pass. Every row
    has the bits of ground_state, eta_indicator and entropy_criterion on its
    own chain, whatever the chunk size. The first row that breaks the spec's
    rules raises, with that row's spec's message, after the rows before it
    are solved, as a row-by-row loop would; a value that is not a number
    raises before any solve, unless such a row comes first.
    """
    if not isinstance(spec, SpinChainSpec):
        raise ArgumentError(f"chain sweep needs a SpinChainSpec, got {type(spec).__name__}")
    if parameter not in ("J", "h", "coefficient"):
        raise ArgumentError(f'parameter must be "J", "h", or "coefficient", got {parameter!r}')
    if spec.N < 3:
        raise ArgumentError(f"energy indicator needs at least 3 qubits, got n={spec.N}")
    if parameter == "coefficient" and not spec.extra_terms:
        raise ArgumentError('parameter "coefficient" scales the extra terms, and the chain has none')
    try:
        values = iter(values)
    except TypeError:
        raise ArgumentError(f"sweep values must be an iterable of numbers, got {type(values).__name__}") from None
    xs, unread = [], None
    try:
        for value in values:
            xs.append(qcore._number(value, "sweep value"))
    except ArgumentError as exc:  # not a number: raised before any solve, unless an invalid row precedes it
        unread = exc
    letters, table = _chain_terms(spec, parameter, xs)
    invalid = SpinChainSpec._first_unbounded(table)
    if invalid == len(xs) and unread is not None:
        raise unread
    rows: List[SweepRow] = []
    step = max(1, _CHUNK_AMPLITUDES >> 2 * spec.N)
    for start in range(0, invalid, step):
        states = _ground_states(letters, table[start:min(start + step, invalid)])
        amps = np.stack([gs.state.amps for gs in states])
        marginals = qcore._qubit_marginals(amps)  # one pass for eta and the entropy criterion
        etas = worst_slacks(_min_eigenvalues_2x2(marginals, range(1, spec.N + 1))).tolist()
        criteria = _entropy_criteria(amps, marginals).tolist()
        rows += (
            SweepRow(x, gs.energy, gs.degeneracy_gap, eta, criterion, gs.degenerate)
            for x, gs, eta, criterion in zip(xs[start:], states, etas, criteria)
        )
    if invalid < len(xs):  # that row's spec raises its own message
        x = xs[invalid]
        scaled = {"extra_terms": tuple((c * x, s) for c, s in spec.extra_terms)}
        replace(spec, **(scaled if parameter == "coefficient" else {parameter: x}))
    return rows


def spec_from_dict(payload: dict) -> SpinChainSpec:
    """Parse {"N", "J", "h", "extra_terms": [[coeff, "IXZ..."], ...]}; N may be a whole float such as 4.0."""
    qcore._json_fields(payload, "spin chain spec", [(None, "N", "J", "h", "extra_terms")])
    n, J, h = (payload.get(k, d) for k, d in (("N", 5), ("J", 1.0), ("h", 1.0)))
    if not all(map(qcore._is_number, (n, J, h))):
        raise ValidationError("spin chain fields N, J and h must be numbers")
    n = int(n) if isinstance(n, float) and n.is_integer() else n  # SpinChainSpec rejects other floats
    return SpinChainSpec(N=n, J=J, h=h, extra_terms=payload.get("extra_terms", ()))
