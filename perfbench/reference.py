"""Reference values built with numpy alone, never through empskit.

The benchmark checks every output the program under test returns against
these: marginals come from reshapes and einsum, eigenvalues from LAPACK
(`numpy.linalg.eigvalsh`/`eigh`), chain Hamiltonians from bit arithmetic,
and orbit samples from a replay of the documented seeding contract
(sample k draws its 2x2 factors from `default_rng(seed + k)`, redrawing a
factor while |det| < 1e-6).

Qubit 1 is the most significant bit of the basis index throughout.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

DET_FLOOR = 1e-6
DEGENERACY_GAP_TOL = 1e-8


def pure_marginal(amps: np.ndarray, n: int, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state on the 0-based qubits `keep`."""
    t = np.moveaxis(amps.reshape([2] * n), list(keep), list(range(len(keep))))
    a = t.reshape(2 ** len(keep), -1)
    return np.einsum("ik,jk->ij", a, a.conj())


def mixed_marginal(rho: np.ndarray, n: int, q: int) -> np.ndarray:
    """Single-qubit reduced density matrix of qubit q (0-based) of a mixed state."""
    before, after = 2 ** q, 2 ** (n - q - 1)
    r = rho.reshape(before, 2, after, before, 2, after)
    return np.einsum("aibajb->ij", r)


def _smallest_eigenvalues(marginals) -> np.ndarray:
    # One batched LAPACK call over the stack, clipped to [0, 1/2] as the library reports it.
    return np.clip(np.linalg.eigvalsh(np.stack(marginals))[:, 0], 0.0, 0.5)


def emps_of_pure(amps: np.ndarray) -> np.ndarray:
    """Per-qubit smallest marginal eigenvalue."""
    n = int(round(np.log2(amps.size)))
    return _smallest_eigenvalues([pure_marginal(amps, n, [q]) for q in range(n)])


def emps_of_mixed(rho: np.ndarray) -> np.ndarray:
    n = int(round(np.log2(rho.shape[0])))
    return _smallest_eigenvalues([mixed_marginal(rho, n, q) for q in range(n)])


def worst_slack(e: np.ndarray) -> float:
    """min_i (sum_{j != i} E_j - E_i)."""
    return float(np.min(e.sum() - 2.0 * e))


def entropy_bits(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log2(lam)))


def entropy_criterion(amps: np.ndarray) -> float:
    """min over pairs i<j of |S(rho_ij) - S(rho_i) - S(rho_j)|."""
    n = int(round(np.log2(amps.size)))
    singles = [entropy_bits(pure_marginal(amps, n, [q])) for q in range(n)]
    return min(
        abs(entropy_bits(pure_marginal(amps, n, [i, j])) - singles[i] - singles[j])
        for i, j in combinations(range(n), 2)
    )


def chain_hamiltonian(N: int, J: float, h: float, x_terms: Sequence) -> np.ndarray:
    """H = -J/4 sum Z_i Z_{i+1} - h/2 sum Z_i + sum_t c_t P_t, P_t made of I and X only."""
    dim = 2 ** N
    idx = np.arange(dim)
    z = 1 - 2 * ((idx[:, None] >> (N - 1 - np.arange(N))[None, :]) & 1)
    diag = -0.25 * J * np.sum(z[:, :-1] * z[:, 1:], axis=1) - 0.5 * h * np.sum(z, axis=1)
    ham = np.diag(diag.astype(np.complex128))
    for coeff, letters in x_terms:
        if set(letters) - {"I", "X"}:
            raise ValueError(f"reference Hamiltonian supports I/X strings only, got {letters!r}")
        xmask = sum(1 << (N - 1 - k) for k, c in enumerate(letters) if c == "X")
        ham[idx ^ xmask, idx] += coeff
    return ham


def chain_ground(N: int, J: float, h: float, x_terms: Sequence):
    """(ground energy, gap to the next level, ground vector) by LAPACK."""
    w, v = np.linalg.eigh(chain_hamiltonian(N, J, h, x_terms))
    return float(w[0]), float(w[1] - w[0]), v[:, 0]


def orbit_row(amps: np.ndarray, n: int, seed: int, k: int) -> np.ndarray:
    """Energy vector of orbit sample k: local factors drawn from default_rng(seed + k)."""
    rng = np.random.default_rng(seed + k)
    t = amps.reshape([2] * n)
    for axis in range(n):
        while True:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) >= DET_FLOOR:
                break
        t = np.moveaxis(np.tensordot(g, t, axes=([1], [axis])), 0, axis)
    phi = t.reshape(-1)
    return emps_of_pure(phi / np.linalg.norm(phi))


# State families as the CLI documents them, built from their definitions.

def w_state(coeffs: Sequence[float]) -> np.ndarray:
    n = len(coeffs)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    for i, a in enumerate(coeffs):
        amps[1 << (n - 1 - i)] = np.sqrt(a)
    return amps


def ghz_state(n: int, theta: float) -> np.ndarray:
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0], amps[-1] = np.cos(theta), np.sin(theta)
    return amps


def weight_indices(n: int, l: int) -> list:
    return [i for i in range(2 ** n) if bin(i).count("1") == l]


def dicke_state(n: int, l: int, coeffs: Sequence[float] = None) -> np.ndarray:
    idx = weight_indices(n, l)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[idx] = 1.0 / np.sqrt(len(idx)) if coeffs is None else np.asarray(coeffs)
    return amps


def noisy(amps: np.ndarray, v: float) -> np.ndarray:
    """(1 - v)|psi><psi| + v * I / d."""
    d = amps.size
    return (1.0 - v) * np.outer(amps, amps.conj()) + (v / d) * np.eye(d)
