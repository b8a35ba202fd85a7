"""Marginal passive-state energies and the polygon/indicator criteria built on them.

Every qubit carries the local Hamiltonian H_i = E|1><1| with E = 1, so all
energies returned here are dimensionless multiples of E. The marginal
passive energy of qubit i is the smallest eigenvalue of its reduced density
matrix; for an n-qubit pure state these values obey the polygon
inequalities, each one at most the sum of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import qcore
from .errors import ArgumentError, ValidationError
from .qcore import DensityMatrix, State

# Slack tolerance for inequality verdicts: an order above eigensolver error,
# well below any physically meaningful violation.
SLACK_TOL = 1e-9

DEFAULT_SEED = 42


@dataclass(frozen=True, eq=False)
class EmpsVector:
    """Per-qubit marginal passive energies (E_1, ..., E_n), each in [0, 1/2]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        n = qcore._integer(self.n, "declared qubit count n", ValidationError)
        if n < 1:
            raise ValidationError("energy vector needs at least one qubit")
        arr = qcore._numbers(self.values, "values", np.float64).reshape(-1).copy()  # the caller's array may change later
        if n != arr.size:
            raise ValidationError(f"declared n={n} but got {arr.size} values")
        floor = qcore.EIGENVALUE_FLOOR
        if not (arr.min() >= floor and arr.max() <= 0.5 - floor):
            raise ValidationError(
                f"marginal passive energies must lie in [0, 1/2], got {arr.tolist()}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "EmpsVector":
        # Internal constructor for kernel output: a 1-D float64 array that
        # _min_eigenvalues_2x2 has already clipped into [0, 1/2]. Row views of
        # a read-only stack are read-only already and skip the flag write.
        if values.flags.writeable:
            values.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", values.size)
        object.__setattr__(obj, "values", values)
        return obj

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class PolygonReport:
    """Outcome of the polygon inequalities E_i <= sum_{j != i} E_j."""

    satisfied: bool
    worst_slack: float
    violating_index: Optional[int] = None  # 1-based, set when violated


def passive_energy(rho: Union[DensityMatrix, np.ndarray], hamiltonian: np.ndarray) -> float:
    """Energy of the passive state reachable from rho by unitaries.

    Equals sum_k lam_k(down) * eps_k(up): state eigenvalues sorted descending
    paired against Hamiltonian eigenvalues sorted ascending. This is the
    minimum of Tr(U rho U^dag H) over all unitaries U.
    """
    lam = qcore.eig_hermitian(rho).eigenvalues
    eps = qcore.eig_hermitian(hamiltonian).eigenvalues
    if lam.size != eps.size:
        raise ArgumentError(
            f"state dimension {lam.size} does not match Hamiltonian dimension {eps.size}"
        )
    return float(np.dot(lam[::-1], eps))


# Stacks of at most this many 2x2 marginals take the closed form on Python
# floats, larger ones the numpy form. The loop costs about 1 µs per marginal,
# the numpy form a fixed cost of a dozen ufunc calls; the two measured times
# cross at about this size (README, "Numerical conventions").
_SCALAR_MARGINALS = 24


def _min_eigenvalues_2x2(marginals: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2x2 in a (..., len(qubits), 2, 2) stack.

    For [[p0, c], [c*, p1]] it is 2 det / (tr + sqrt((p0 - p1)^2 + 4|c|^2)),
    which avoids the cancellation of (tr - sqrt(...)) / 2 as det -> 0.
    A value below qcore.EIGENVALUE_FLOOR means the input was not a marginal
    of a state (ValidationError naming the 1-based qubit); rounding noise is
    clipped into [0, 1/2]. Small stacks are evaluated on Python floats and
    large ones with numpy, in the same IEEE operations, so both give the
    same bits.
    """
    if marginals.size <= 4 * _SCALAR_MARGINALS:
        return _min_eigenvalues_scalar(marginals, qubits)
    return _min_eigenvalues_numpy(marginals, qubits)


def _min_eigenvalues_numpy(marginals: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    p0 = marginals[..., 0, 0].real
    p1 = marginals[..., 1, 1].real
    c = marginals[..., 0, 1]
    c_sq = c.real ** 2 + c.imag ** 2
    lam_min = 2.0 * (p0 * p1 - c_sq) / (p0 + p1 + np.sqrt((p0 - p1) ** 2 + 4.0 * c_sq))
    if not lam_min.min() >= qcore.EIGENVALUE_FLOOR:
        index = tuple(np.argwhere(~(lam_min >= qcore.EIGENVALUE_FLOOR))[0])
        raise _negative_marginal(qubits[index[-1]], lam_min[index])
    # the same values as np.clip, at half its per-call cost on a few entries
    return np.minimum(np.maximum(lam_min, 0.0), 0.5)


def _min_eigenvalues_scalar(marginals: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    # _min_eigenvalues_numpy operation for operation. Squares are x * x, as
    # numpy's `** 2` computes them; Python's x ** 2 goes through pow and can
    # round differently. Each float64 row is p0, Im p0, Re c, Im c, Re c*,
    # Im c*, p1, Im p1.
    per_stack = marginals.shape[-3]
    out = []
    for p0, _, cr, ci, _, _, p1, _ in marginals.reshape(-1, 4).view(np.float64).tolist():
        c_sq = cr * cr + ci * ci
        d = p0 - p1
        lam = 2.0 * (p0 * p1 - c_sq) / (p0 + p1 + math.sqrt(d * d + 4.0 * c_sq))
        if not lam >= qcore.EIGENVALUE_FLOOR:
            raise _negative_marginal(qubits[len(out) % per_stack], lam)
        # np.maximum(-0.0, 0.0) is +0.0, so -0.0 becomes +0.0 here too
        out.append(0.5 if lam >= 0.5 else lam if lam > 0.0 else 0.0)
    return np.array(out).reshape(marginals.shape[:-2])


def _negative_marginal(qubit: int, value: float) -> ValidationError:
    return ValidationError(f"marginal of qubit {qubit} has eigenvalue {value:.3e} < 0")


def _pure_emps(amps: np.ndarray) -> np.ndarray:
    """Marginal passive energies, as (B, n), of a (B, 2^n) stack of normalized amplitude rows.

    The kernel of the stack entry points emps_vectors and
    slocc_orbit_sample: every single-qubit marginal from
    qcore._qubit_marginals, then the closed form of _min_eigenvalues_2x2, so
    no eigensolver runs (indicator_sweep takes the same two steps and shares
    the marginals with the entropy criterion). Each row's result does not
    depend on B.
    """
    n = amps.shape[1].bit_length() - 1
    return _min_eigenvalues_2x2(qcore._qubit_marginals(amps), range(1, n + 1))


def emps(state: State, qubit: int) -> float:
    """Marginal passive energy of one qubit, in units of E.

    With the local Hamiltonian E|1><1| this is the smallest eigenvalue of the
    qubit's reduced density matrix, which for pure states is half the
    geometric entanglement measure across the qubit-vs-rest cut.
    """
    qcore._require_state(state, "marginal passive energy")
    (q,) = qcore._check_keep([qubit], state.n)
    return float(_min_eigenvalues_2x2(qcore._state_marginals(state, [(q - 1,)]), [q])[0])


def emps_vector(state: State) -> EmpsVector:
    """Marginal passive energies of every qubit, as the characteristic vector."""
    qcore._require_state(state, "energy vector")
    return EmpsVector._trusted(_min_eigenvalues_2x2(qcore._state_marginals(state), range(1, state.n + 1)))


# Amplitudes per batch (1 MiB of complex128) for the stack entry points:
# bounds the working set whatever the stack size; the results do not depend on it.
_CHUNK_AMPLITUDES = 1 << 16


def emps_vectors(amps) -> np.ndarray:
    """Marginal passive energies of every row of a (B, 2^n) stack of pure-state amplitudes, as (B, n).

    Row k is bit-identical to emps_vector(PureState(amps[k])).values. The
    width must be a power of two for 1 to 12 qubits (CapacityError beyond
    12) and every row must have unit norm within qcore.NORMALIZATION_ATOL
    (ValidationError naming the first bad row). That is PureState's
    tolerance but not its sum: qcore._require_normalized_rows sums
    |amps|^2 per row where PureState takes np.vdot, so a row within
    rounding of the bound can get the opposite verdict. Rows are processed
    in batches of at most 2^16 amplitudes, which bounds the working set and
    does not change the result.
    """
    arr = qcore._numbers(amps, "amps")
    if arr.ndim != 2:
        raise ValidationError(f"amplitude stack must have shape (B, 2^n), got {arr.shape}")
    n = qcore._qubit_count_for_dim(arr.shape[1], "state vector")
    qcore._require_normalized_rows(arr, "amplitude row")
    out = np.empty((arr.shape[0], n))
    batch = max(1, _CHUNK_AMPLITUDES // arr.shape[1])
    for start in range(0, arr.shape[0], batch):
        out[start:start + batch] = _pure_emps(arr[start:start + batch])
    return out


def _require_vector(v, what: str) -> None:
    """ArgumentError unless v is an EmpsVector: the rule of every entry point that reads a caller's energies."""
    if not isinstance(v, EmpsVector):
        raise ArgumentError(f"{what} needs an EmpsVector, got {type(v).__name__}")


def polygon_check(v: EmpsVector) -> PolygonReport:
    """Check E_i <= sum_{j != i} E_j for every qubit i.

    worst_slack is min_i (sum_{j != i} E_j - E_i); the inequalities hold when
    it is >= -SLACK_TOL. Pure multi-qubit states always satisfy them.
    """
    _require_vector(v, "polygon check")
    worst, worst_slack = _worst_slack(v.values)
    satisfied = worst_slack >= -SLACK_TOL
    return PolygonReport(
        satisfied=satisfied,
        worst_slack=worst_slack,
        violating_index=None if satisfied else worst + 1,
    )


def _polygon_slacks(energies: np.ndarray) -> Tuple[float, List[float]]:
    """(total, slacks) of one energy vector: sum_i E_i, and sum_{j != i} E_j - E_i for every qubit i in order.

    worst_slacks' arithmetic on Python floats: one numpy sum, then
    total - 2 E_i, so every slack has its bits.
    """
    total = float(energies.sum())
    return total, [total - 2.0 * e for e in energies.tolist()]


def _worst_slack(energies: np.ndarray) -> Tuple[int, float]:
    """(i, slack) of the smallest polygon slack of one energy vector; i is the first minimum, as np.argmin gives it."""
    slacks = _polygon_slacks(energies)[1]
    worst = min(slacks)
    return slacks.index(worst), worst


def worst_slacks(energies) -> np.ndarray:
    """min_i (sum_{j != i} E_j - E_i) along the last axis of an energy stack, e.g. emps_vectors' (B, n).

    Entry k is bit-identical to polygon_check's worst_slack for row k, and
    so to eta_indicator of that state when n >= 3.
    """
    arr = qcore._numbers(energies, "energies", np.float64)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise ValidationError(f"energy stack needs a nonempty last axis, got shape {arr.shape}")
    return (arr.sum(axis=-1, keepdims=True) - 2.0 * arr).min(axis=-1)


def eta_indicator(state_or_vector: Union[State, EmpsVector]) -> float:
    """Energy indicator min_j (sum_{k != j} E_k - E_j) for n >= 3 qubits.

    For pure states a positive value certifies genuine tripartite
    entanglement at n = 3, where a factored qubit drives a slack to 0. From
    n = 4 it certifies only entanglement: Bell x Bell has eta = 1. It equals
    polygon_check's worst_slack by construction.
    """
    if isinstance(state_or_vector, EmpsVector):
        v = state_or_vector
    else:
        v = emps_vector(state_or_vector)
    if v.n < 3:
        raise ArgumentError(f"energy indicator needs at least 3 qubits, got n={v.n}")
    return _worst_slack(v.values)[1]
