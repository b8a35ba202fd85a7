"""Dense complex linear algebra for small multi-qubit systems.

States live on up to 12 qubits (dimension 4096). Qubit labels are 1-based
and qubit 1 is the most significant bit of the computational-basis index,
so |s_1 s_2 ... s_n> sits at index s_1*2^(n-1) + ... + s_n. All operations
are pure functions over immutable inputs and safe to run in parallel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ArgumentError, CapacityError, NumericError, ValidationError

MAX_QUBITS = 12

# Validation tolerances, chosen for double precision at dim <= 4096: tight
# enough to catch real defects, loose enough for accumulated Kronecker rounding.
HERMITICITY_ATOL = 1e-12
NORMALIZATION_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def _qubit_count_for_dim(dim: int, what: str) -> int:
    """The qubit count of a dimension: a power of two for 1 to MAX_QUBITS qubits."""
    n = int(round(math.log2(dim))) if dim > 0 else 0
    if dim <= 0 or 2 ** n != dim:
        raise ValidationError(f"{what} dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise CapacityError(f"{what} needs {n} qubits, limit is {MAX_QUBITS}")
    if n < 1:
        raise ValidationError(f"{what} needs at least one qubit")
    return n


def _is_integer(value) -> bool:
    """numbers.Integral, NumPy integers too, but not bool: True as a count or a qubit is a slip."""
    # an exact int answers before the ABC check, which costs several times more
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_number(value, kind: type = numbers.Real) -> bool:
    """An instance of kind (numbers.Real, or Complex for amplitudes) but not bool, nor a string; NaN and inf count."""
    # an exact float or int is Real and Complex alike and answers before the ABC check
    return type(value) in (float, int) or (isinstance(value, kind) and not isinstance(value, bool))


def _integer(value, what: str, error: type = ArgumentError) -> int:
    if not _is_integer(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str, error: type = ArgumentError) -> float:
    if not _is_number(value):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} must be a finite number, got an integer past the float range") from None


def _numbers(values, what: str, dtype: type = np.complex128, error: type = ValidationError) -> np.ndarray:
    """values as an array of dtype (complex128 or float64), not copied if it is one already.

    error, naming what, for ragged rows and for entries numpy does not store
    as numbers: strings, objects (None, a dict, an integer past 64 bits) and,
    where float64 is asked for, complex numbers. Bools read as 1 and 0.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.dtype.kind not in ("biuf" if dtype is np.float64 else "biufc"):
        found = "ragged rows" if arr is None else f"dtype {arr.dtype}"
        raise error(f"{what} must be a rectangular array of numbers, got {found}")
    return arr.astype(dtype, copy=False)


def _require_pure(state, what: str) -> None:
    """ArgumentError unless state is a PureState: the rule of every entry point that reads a caller's amplitudes."""
    if not isinstance(state, PureState):
        raise ArgumentError(f"{what} needs a pure state")


def _require_state(state, what: str, kinds: tuple = ()) -> None:
    """ArgumentError naming what was expected unless state is one of kinds (default: PureState or DensityMatrix)."""
    kinds = kinds or (PureState, DensityMatrix)
    if not isinstance(state, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ArgumentError(f"{what} needs a {expected}, got {type(state).__name__}")


def _json_fields(payload, what: str, forms: Sequence[tuple]) -> Optional[str]:
    """The name of the form a JSON object takes: the first form whose name, its first field, it holds.

    A form named None is always taken. ValidationError for a non-object, no form, or a field outside it.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for form in forms:
        if form[0] is None or form[0] in payload:
            unknown = sorted(set(payload) - set(form))
            if unknown:
                raise ValidationError(f"{what} has fields {unknown} outside {[f for f in form if f]}")
            return form[0]
    raise ValidationError(f"{what} needs " + " or ".join(f'"{form[0]}"' for form in forms))


def _require_hermitian(arr: np.ndarray, what: str, atol: float):
    defect = float(np.max(np.abs(arr - arr.conj().swapaxes(-1, -2))))
    if not defect <= atol:
        raise ValidationError(f"{what} is not Hermitian: max |M - M^dag| = {defect:.3e}")


def _require_normalized_rows(amps: np.ndarray, what: str, first: int = 0):
    """Reject a (B, 2^n) amplitude stack with a row whose sum |amps|^2 is off 1 by more than
    NORMALIZATION_ATOL. The message names the first such row, numbered from `first`.
    """
    norm_sq = np.sum(np.abs(amps) ** 2, axis=1)
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= NORMALIZATION_ATOL))
    if bad.size:
        raise ValidationError(
            f"{what} {first + bad[0]} is not normalized: "
            f"sum |amps|^2 = {float(norm_sq[bad[0]])!r} (tolerance {NORMALIZATION_ATOL})"
        )


class PureState:
    """Normalized amplitude vector over n qubits (qubit 1 = most significant bit)."""

    __slots__ = ("n", "amps")

    def __init__(self, amps, n: Optional[int] = None):
        arr = _numbers(amps, "amps").reshape(-1).copy()  # the caller's array may change later
        inferred = _qubit_count_for_dim(arr.size, "state vector")
        if n is not None and _integer(n, "declared qubit count n", ValidationError) != inferred:
            raise ValidationError(f"declared n={n} but amplitude vector has 2^{inferred} entries")
        norm_sq = float(np.vdot(arr, arr).real)
        if not abs(norm_sq - 1.0) <= NORMALIZATION_ATOL:
            raise ValidationError(
                f"state is not normalized: sum |amps|^2 = {norm_sq!r} (tolerance {NORMALIZATION_ATOL})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "n", inferred)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, *_):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix._trusted(np.outer(self.amps, self.amps.conj()))

    def __repr__(self):
        return f"PureState(n={self.n})"


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix on a power-of-two dimension."""

    __slots__ = ("dim", "n", "entries")

    def __init__(self, entries, dim: Optional[int] = None):
        arr = _numbers(entries, "entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {arr.shape}")
        d = arr.shape[0]
        if dim is not None and _integer(dim, "declared dimension dim", ValidationError) != d:
            raise ValidationError(f"declared dim={dim} but entries are {d}x{d}")
        self._store(arr)
        lam_min = _eigh(self.entries)[0][0]
        if not lam_min >= EIGENVALUE_FLOOR:
            raise ValidationError(
                f"density matrix has negative eigenvalue {lam_min:.3e} below {EIGENVALUE_FLOOR}"
            )

    def __setattr__(self, *_):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "DensityMatrix":
        # Internal constructor for matrices that are PSD by construction
        # (projectors, partial traces, convex mixtures of valid states); skips
        # the eigenvalue scan but keeps the cheap hermiticity/trace checks.
        obj = object.__new__(cls)
        obj._store(np.asarray(entries, dtype=np.complex128))
        return obj

    def _store(self, arr: np.ndarray):
        # Checks shared by both constructors: qubit dimension, Hermiticity and
        # unit trace. Stores the exactly Hermitian part, read-only.
        n = _qubit_count_for_dim(arr.shape[0], "density matrix")
        _require_hermitian(arr, "density matrix", HERMITICITY_ATOL)
        tr = complex(np.trace(arr))
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
        arr = 0.5 * (arr + arr.conj().T)
        arr.flags.writeable = False
        object.__setattr__(self, "dim", arr.shape[0])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", arr)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending; eigenvectors (unitary columns) when requested.

    For a stack of matrices both carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None


State = Union[PureState, DensityMatrix]


def basis_state(bits: str) -> PureState:
    """Computational basis state from a bit string, e.g. "010" -> |010>."""
    if not bits or any(c not in "01" for c in bits):
        raise ValidationError(f"basis label must be a nonempty string of 0/1, got {bits!r}")
    n = _qubit_count_for_dim(1 << len(bits), "basis state")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return PureState(amps)


def random_pure_state(n: int, rng: Optional[np.random.Generator] = None) -> PureState:
    """Haar-random pure state: normalized vector of independent standard complex Gaussians."""
    n = _integer(n, "qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ArgumentError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    rng = np.random.default_rng() if rng is None else rng
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(z / np.linalg.norm(z))


def tensor_product(a: State, b: State) -> State:
    """Kronecker product of two states of the same kind; a's qubits become the leading ones."""
    pure = isinstance(a, PureState) and isinstance(b, PureState)
    if not (pure or (isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix))):
        raise ArgumentError("tensor_product operands must both be PureState or both DensityMatrix")
    _qubit_count_for_dim(a.dim * b.dim, "tensor product")
    if pure:
        return PureState(np.kron(a.amps, b.amps))
    return DensityMatrix._trusted(np.kron(a.entries, b.entries))


def permute_qubits(psi: PureState, order: Sequence[int]) -> PureState:
    """Rearrange qubits so position k of the result holds original qubit order[k-1] (1-based)."""
    _require_pure(psi, "qubit permutation")
    n = psi.n
    order = [_integer(q, "qubit index") for q in order]
    if sorted(order) != list(range(1, n + 1)):
        raise ArgumentError(f"order must be a permutation of 1..{n}, got {tuple(order)}")
    return PureState(psi.amps.reshape([2] * n).transpose([q - 1 for q in order]))


def _check_keep(keep: Iterable[int], n: int) -> list:
    kept = [_integer(q, "qubit index") for q in keep]
    if not kept:
        raise ArgumentError("keep must name at least one qubit")
    if len(set(kept)) != len(kept):
        raise ArgumentError(f"keep has duplicate qubit indices: {kept}")
    for q in kept:
        if not 1 <= q <= n:
            raise ArgumentError(f"qubit index {q} out of range 1..{n}")
    return kept


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubits (1-based), in the order given.

    The density-matrix case of reduced_density_matrix: the traced-out qubits
    are summed over, and the result keeps trace 1 and positivity.
    """
    return reduced_density_matrix(rho, keep)


def reduced_density_matrix(state: State, keep: Iterable[int]) -> DensityMatrix:
    """Marginal of a pure or mixed state on the kept qubits (1-based, order preserved).

    From _state_marginals: a pure input's full projector is never built, and
    one kept qubit's marginal has its bits among all single-qubit marginals.
    """
    _require_state(state, "reduced density matrix")
    kept = _check_keep(keep, state.n)
    return DensityMatrix._trusted(_state_marginals(state, (tuple(q - 1 for q in kept),))[0])


def _state_marginals(state: State, groups: Optional[Sequence[Sequence[int]]] = None) -> np.ndarray:
    """(G, 2^k, 2^k) marginals of a state on G groups of k distinct 0-based qubits (default: every qubit).

    The one place that picks a marginal kernel; rows and columns follow the
    group's qubit order. Pure states: _qubit_marginals for single qubits,
    _marginals for larger groups. A density matrix reads the index table T
    as rho_g[a, b] = sum_r rho[T[a, r], T[b, r]]: one take of G 2^k 2^n
    entries (at most rho's 4^n for one group or distinct single qubits),
    exactly Hermitian since [b, a] sums [a, b]'s conjugates in order. Every
    qubit reads the cached _subset_table(n, 1), named groups a fresh table.
    """
    if isinstance(state, PureState):
        amps = state.amps[None, :]
        if groups is None or len(groups[0]) == 1:
            return _qubit_marginals(amps, None if groups is None else [q for q, in groups])[0]
        return _marginals(amps, _gather_table(state.n, groups))[0]
    table = _subset_table(state.n, 1) if groups is None else _gather_table(state.n, groups)
    return state.entries[table[:, :, None, :], table[:, None, :, :]].sum(axis=-1)


# One take gathers at most this many amplitudes (B * 2^n per group for a
# stack of B states, 128 KiB of complex128), and always at least one group:
# larger fresh gather buffers cost more than the extra takes they save
# (README, "Numerical conventions"). Single-qubit marginals of states with
# _DOT_MARGINALS qubits or more do not pass through the gather.
_GATHER_MAX_ENTRIES = 1 << 13

# States of at least this many qubits take their single-qubit marginals from
# strided dot products, smaller ones from the gather kernel: the two measured
# times cross here (README, "Numerical conventions").
_DOT_MARGINALS = 10


def _gather_table(n: int, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """(G, 2^k, 2^(n-k)) basis-state indices for G groups of k distinct 0-based qubits.

    Row r of group g lists the basis states whose bits on g's qubits, read
    in g's order, spell r; along the row the other qubits keep ascending
    index order. Pure marginals gather amplitudes by it, density-matrix
    marginals entries.
    """
    idx = np.arange(1 << n).reshape([2] * n)
    k = len(groups[0])
    table = np.empty((len(groups), 1 << k, 1 << (n - k)), dtype=idx.dtype)
    for g, block in zip(groups, table):
        block.reshape([2] * n)[...] = idx.transpose([*g, *(q for q in range(n) if q not in g)])
    return table


@lru_cache(maxsize=2 * MAX_QUBITS)
def _subset_table(n: int, k: int) -> np.ndarray:
    """Read-only _gather_table of every k-subset of n qubits, in _subset_indices order.

    Cached per (n, k) for the single-qubit and pair marginals; a kept
    subset's table is built per call and not cached.
    """
    table = _gather_table(n, _subset_indices(n, k).T)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=2 * MAX_QUBITS)
def _subset_indices(n: int, k: int) -> np.ndarray:
    """Read-only (k, C) array of the k-subsets of qubits 0..n-1 in combinations order: row r holds their r-th qubits."""
    indices = np.array(list(combinations(range(n), k))).T
    indices.flags.writeable = False
    return indices


def _marginals(amps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(B, G, 2^k, 2^k) marginals of a (B, 2^n) pure-amplitude stack on the G groups of a _gather_table.

    A marginal's rows and columns follow its group's qubit order. Each
    group's amplitudes are gathered, kept qubits first, into (2^k, 2^(n-k))
    rows, and one batched t t^dag gives the marginals. Groups are taken as
    many at a time as _GATHER_MAX_ENTRIES allows; a single take's product is
    returned as is, and several fill one output. Each marginal is its own
    product over the same rows, so the bits depend neither on that split
    nor on B. Single-qubit marginals go through _qubit_marginals, which
    calls this kernel only below _DOT_MARGINALS qubits.
    """
    b, dim = amps.shape
    g, d = table.shape[:2]
    step = max(1, _GATHER_MAX_ENTRIES // (b * dim))
    if step >= g:
        t = np.take(amps, table, axis=1)
        # batched matmul: an einsum of the same contraction is 2-2.5x slower at n >= 6
        return t @ t.conj().swapaxes(-1, -2)
    out = np.empty((b, g, d, d), dtype=np.complex128)
    for start in range(0, g, step):
        t = np.take(amps, table[start:start + step], axis=1)
        np.matmul(t, t.conj().swapaxes(-1, -2), out=out[:, start:start + step])
    return out


@lru_cache(maxsize=MAX_QUBITS)
def _bit_table(n: int) -> np.ndarray:
    """Read-only 0/1 table that turns sums of squared amplitude parts into every qubit's (p0, p1).

    The squared real and imaginary parts of n-qubit amplitudes, laid out as
    a (2^h, 2^(n-h+1)) grid with h = n // 2, have qubits 1..h on the row
    index and qubits h+1..n, then re/im, on the column index. The grid's
    row sums followed by its column sums, times this table, give
    (p0, p1) of qubits 1..n, interleaved.
    """

    def pairs(bits: np.ndarray) -> np.ndarray:
        # (rows, k) qubit bits -> (rows, 2k) columns: bit == 0, bit == 1 per qubit
        return np.stack([1 - bits, bits], axis=-1).reshape(len(bits), -1)

    h = n // 2
    high = np.arange(1 << h)[:, None] >> np.arange(h - 1, -1, -1) & 1
    low = np.arange(2 << (n - h))[:, None] >> np.arange(n - h, 0, -1) & 1  # drops the re/im bit
    table = np.zeros((len(high) + len(low), 2 * n))
    table[:len(high), :2 * h] = pairs(high)
    table[len(high):, 2 * h:] = pairs(low)
    table.flags.writeable = False
    return table


def _qubit_marginals(amps: np.ndarray, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
    """(B, Q, 2, 2) marginals of a (B, 2^n) pure-amplitude stack on Q single 0-based qubits (default all).

    Below _DOT_MARGINALS qubits this is the gather kernel _marginals. From
    there on each row is taken on its own, as a marginal [[p0, c], [c*, p1]]
    per qubit: p0 and p1 of every qubit from the row and column sums of its
    squared amplitude parts (_bit_table), and c = <a_1|a_0> of each named
    qubit from one vdot over strided views of the row. Qubits h+1..n (h =
    n // 2) are read from a transposed copy, where their views are runs of
    at least 2^h amplitudes. A qubit's marginal has the same bits whichever
    qubits are named and whatever B is.
    """
    n = amps.shape[1].bit_length() - 1
    every = qubits is None
    if n < _DOT_MARGINALS:
        table = _subset_table(n, 1) if every else _gather_table(n, tuple((q,) for q in qubits))
        return _marginals(amps, table)
    qubits = list(range(n)) if every else list(qubits)
    h = n // 2
    bits = _bit_table(n)
    # per qubit p0, c, c*, p1: the row-major entries of its marginal
    out = np.empty((amps.shape[0], len(qubits), 4), dtype=np.complex128)
    for row, flat in zip(np.ascontiguousarray(amps), out):
        parts = row.view(np.float64)
        squares = (parts * parts).reshape(1 << h, -1)
        p = (np.concatenate([squares.sum(axis=1), squares.sum(axis=0)]) @ bits).reshape(n, 2)
        flat[:, ::3] = p if every else p[qubits]
        low = row.reshape(1 << h, -1).T.ravel() if max(qubits) >= h else None
        for i, q in enumerate(qubits):
            x = row.reshape(1 << q, 2, -1) if q < h else low.reshape(1 << (q - h), 2, -1)
            flat[i, 1] = np.vdot(x[:, 1], x[:, 0])
        flat[:, 2] = flat[:, 1].conj()
    return out.reshape(-1, len(qubits), 2, 2)


def _eigh(matrix: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of a Hermitian matrix (or stack), plus eigenvectors if asked.

    LAPACK (numpy.linalg.eigvalsh / eigh) reads the lower triangle only. A
    failure to converge surfaces as NumericError.
    """
    try:
        if vectors:
            return np.linalg.eigh(matrix)
        return np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc


def eig_hermitian(matrix: Union[DensityMatrix, np.ndarray], vectors: bool = False) -> Spectrum:
    """Full real spectrum (ascending) of a Hermitian matrix, by LAPACK eigh.

    Accepts a DensityMatrix, a raw Hermitian ndarray, or a stack of them of
    shape (..., d, d), which is solved in one call with spectra along the last
    axis. Non-Hermitian, non-square, ragged, non-numeric or empty input
    raises ValidationError, anything but a DensityMatrix, ndarray, list or
    tuple ArgumentError, and failure of LAPACK to converge NumericError.
    """
    if isinstance(matrix, DensityMatrix):
        arr = matrix.entries
    elif not isinstance(matrix, (np.ndarray, list, tuple)):
        raise ArgumentError(f"expected a DensityMatrix or a Hermitian array, got {type(matrix).__name__}")
    else:
        arr = _numbers(matrix, "matrix")
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.size == 0:
            raise ValidationError(f"expected a nonempty square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        _require_hermitian(arr, "matrix", HERMITICITY_ATOL * scale)
    w, v = _eigh(arr, vectors)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum(lam * log2 lam) over the last axis of ascending spectra, in bits.

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped to
    zero, as are positive values below 1e-14 (so exact-rank states report
    exact entropies); a lowest eigenvalue below the negative floor anywhere
    in the stack is rejected.
    """
    low = float(lam[..., 0].min())
    if not low >= EIGENVALUE_FLOOR:
        raise ValidationError(f"eigenvalue {low:.3e} below {EIGENVALUE_FLOOR}; not a density matrix")
    pos = np.where(lam > 1e-14, lam, 1.0)  # 1 log2 1 = 0 exactly
    return -(pos * np.log2(pos)).sum(axis=-1)


def _marginal_entropies(stack: np.ndarray) -> np.ndarray:
    """Entropies in bits of a (..., d, d) stack of marginals, from one stacked eigensolve.

    Each matrix is first replaced by its exactly Hermitian part, as a
    DensityMatrix stores it, so every value is the bits of von_neumann_entropy
    on the same marginal.
    """
    return _entropy_bits(_eigh(0.5 * (stack + stack.conj().swapaxes(-1, -2)))[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0*log 0 = 0.

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped to
    zero, as are positive values below 1e-14 (so exact-rank states report
    exact entropies); anything below the negative floor is rejected.
    """
    _require_state(rho, "von Neumann entropy", (DensityMatrix,))
    return float(_entropy_bits(_eigh(rho.entries)[0]))


def state_to_dict(state: State) -> dict:
    """JSON-ready description of a state (see state_from_dict for the schema)."""
    _require_state(state, "state description")
    if isinstance(state, PureState):
        return {
            "n": state.n,
            "amps": [[float(a.real), float(a.imag)] for a in state.amps],
        }
    return {
        "dim": state.dim,
        "entries": [[float(x.real), float(x.imag)] for x in state.entries.reshape(-1)],
    }


# The forms of state_from_dict, each named by its first field
_STATE_FORMS = (("amps", "n"), ("entries", "dim"))


def state_from_dict(payload: dict) -> State:
    """Parse {"n", "amps": [[re, im], ...]} or {"dim", "entries": row-major [[re, im], ...]}.

    n and dim are optional integers; any other field is a ValidationError.
    Builder-style payloads ({"builder": ..., "params": ...}) are handled one
    level up, by the classify module's state factory.
    """
    if _json_fields(payload, "state description", _STATE_FORMS) == "amps":
        n = payload.get("n")
        n = None if n is None else _integer(n, 'state field "n"', ValidationError)
        return PureState(_pairs_to_complex(payload["amps"], "amps"), n)
    entries = _pairs_to_complex(payload["entries"], "entries")
    dim = payload.get("dim")
    dim = round(math.sqrt(entries.size)) if dim is None else _integer(dim, 'state field "dim"', ValidationError)
    if dim < 1 or dim * dim != entries.size:
        raise ValidationError(
            f"entries has {entries.size} values, which is not dim^2 for dim={dim}"
        )
    return DensityMatrix(entries.reshape(dim, dim), dim=dim)


def _pairs_to_complex(values, what: str) -> np.ndarray:
    arr = _numbers(values, f"{what} must be a list of [re, im] pairs: the pairs", np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what} must be a list of [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]
