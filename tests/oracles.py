"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: the partial
trace is a literal index-summation loop, eigenvalues come from bisection on
an inertia count (a root finder on det(A - x) sign structure, robust to
multiplicities), passive energy is an enumeration over all
eigenvalue pairings, spin-chain Hamiltonians are sums of dense
Kronecker products of 2x2 Pauli matrices, and an orbit sample is replayed
from its own default_rng one factor at a time and applied as a dense
Kronecker product. The 3-tangle reads a three-qubit state's SLOCC class off
its amplitudes, with no marginal energy in sight.
"""

from itertools import permutations

import numpy as np


def partial_trace_oracle(entries: np.ndarray, n: int, keep) -> np.ndarray:
    """Brute-force partial trace by explicit summation over traced bit patterns.

    Qubit indices are 1-based, qubit 1 is the most significant bit, and the
    kept qubits appear in the order given.
    """
    keep0 = [q - 1 for q in keep]
    traced0 = [i for i in range(n) if i not in keep0]
    k = len(keep0)
    m = len(traced0)
    out = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for r in range(2 ** k):
        rbits = [(r >> (k - 1 - a)) & 1 for a in range(k)]
        for c in range(2 ** k):
            cbits = [(c >> (k - 1 - a)) & 1 for a in range(k)]
            acc = 0.0 + 0.0j
            for t in range(2 ** m):
                tbits = [(t >> (m - 1 - a)) & 1 for a in range(m)]
                row = 0
                col = 0
                for pos, q in enumerate(keep0):
                    row |= rbits[pos] << (n - 1 - q)
                    col |= cbits[pos] << (n - 1 - q)
                for pos, q in enumerate(traced0):
                    row |= tbits[pos] << (n - 1 - q)
                    col |= tbits[pos] << (n - 1 - q)
                acc += entries[row, col]
            out[r, c] = acc
    return out


def count_eigenvalues_below(a: np.ndarray, x: float) -> int:
    """Number of eigenvalues of a Hermitian matrix strictly below x.

    Uses the inertia of A - x: symmetric Gaussian elimination without
    pivoting, counting negative pivots. Near-singular pivots get a tiny
    nudge, which cannot change the count by more than the bisection width.
    """
    d = a.shape[0]
    m = np.array(a, dtype=complex) - x * np.eye(d)
    negatives = 0
    for kk in range(d):
        piv = m[kk, kk].real
        if abs(piv) < 1e-300:
            piv = 1e-300
        if piv < 0:
            negatives += 1
        if kk + 1 < d:
            factor = m[kk + 1:, kk] / piv
            m[kk + 1:, kk + 1:] -= np.outer(factor, m[kk, kk + 1:])
    return negatives


def eig_oracle(a: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending with multiplicity.

    Bisection on count_eigenvalues_below inside the Gershgorin interval;
    each eigenvalue is located to within tol.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    radius = float(np.max(np.sum(np.abs(a), axis=1))) if d else 0.0
    out = []
    for k in range(1, d + 1):
        lo, hi = -radius - 1.0, radius + 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_eigenvalues_below(a, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def passive_energy_enumeration_oracle(rho: np.ndarray, hamiltonian: np.ndarray) -> float:
    """Minimum of sum lam_sigma(k) * eps_k over all pairings sigma.

    The unitary orbit of rho reaches exactly the states with rho's spectrum,
    so the passive energy is the best assignment of state eigenvalues to
    energy levels. Feasible for dim <= 6 or so.
    """
    lam = eig_oracle(rho)
    eps = eig_oracle(hamiltonian)
    return min(float(np.dot(perm, eps)) for perm in permutations(lam))


PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_kron_oracle(letters: str) -> np.ndarray:
    """Kronecker product of per-site Pauli matrices, site 1 most significant."""
    m = np.array([[1.0 + 0j]])
    for c in letters:
        m = np.kron(m, PAULI[c])
    return m


def chain_hamiltonian_kron_oracle(n: int, J: float, h: float, extra_terms=()) -> np.ndarray:
    """-J/4 sum Z_i Z_{i+1} - h/2 sum Z_i + sum c P, one dense Kronecker product per term.

    Terms are added in that order (bonds, fields, extra strings), so a
    builder that adds the same entries in the same order agrees bit for bit.
    """
    ham = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for i in range(n - 1):
        ham -= J * 0.25 * pauli_kron_oracle("I" * i + "ZZ" + "I" * (n - i - 2))
    for i in range(n):
        ham -= h * 0.5 * pauli_kron_oracle("I" * i + "Z" + "I" * (n - i - 1))
    for coeff, letters in extra_terms:
        ham += coeff * pauli_kron_oracle(letters)
    return ham


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Haar-distributed unitaries via QR with phase correction."""
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[:, None, :]


def random_unitary_energies(
    rho: np.ndarray, hamiltonian: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Tr(U rho U^dag H) for `count` Haar-random unitaries U."""
    u = haar_unitaries(rho.shape[0], count, rng)
    # U rho U^dag by two batched matmuls, then its trace against H: np.einsum
    # does not optimise the order of more than two operands by default
    return np.einsum("kim,mi->k", (u @ rho) @ u.conj().swapaxes(1, 2), hamiltonian).real


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart normalized to unit trace)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def orbit_factors_oracle(n: int, seed: int, det_floor: float):
    """The n local factors of the orbit sample seeded at `seed`, and whether any was redrawn.

    The seeding contract one factor at a time: default_rng(seed) draws each
    2x2 factor as real then imaginary part, redrawing while |det g| < det_floor.
    """
    rng = np.random.default_rng(seed)
    factors, redrawn = [], False
    for _ in range(n):
        while True:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(g)) >= det_floor:
                break
            redrawn = True
        factors.append(g)
    return factors, redrawn


def min_marginal_eigenvalues_oracle(phi: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every single-qubit marginal of a normalized pure state."""
    n = phi.size.bit_length() - 1
    t = phi.reshape([2] * n)
    out = []
    for q in range(n):
        a = np.moveaxis(t, q, 0).reshape(2, -1)
        out.append(np.linalg.eigvalsh(a @ a.conj().T)[0])
    return np.clip(out, 0.0, 0.5)


def orbit_row_kron_oracle(amps: np.ndarray, seed: int, det_floor: float):
    """Energy vector of the orbit sample seeded at `seed`, and whether a factor was redrawn.

    G = g_1 x ... x g_n is formed as a dense 2^n x 2^n Kronecker product.
    """
    n = amps.size.bit_length() - 1
    factors, redrawn = orbit_factors_oracle(n, seed, det_floor)
    g = np.array([[1.0 + 0j]])
    for f in factors:
        g = np.kron(g, f)
    phi = g @ amps
    return min_marginal_eigenvalues_oracle(phi / np.linalg.norm(phi)), redrawn


def three_tangle(amps: np.ndarray) -> float:
    """tau = 4 |Cayley hyperdeterminant| of a three-qubit pure state (Coffman-Kundu-Wootters, quant-ph/9907047).

    A genuinely entangled state is in the GHZ class exactly when tau > 0 and
    in the W class when tau = 0 (Dur-Vidal-Cirac, quant-ph/0005115);
    biseparable and product states have tau = 0 too. p holds the products
    a_x a_(7-x) of the four complementary basis pairs.
    """
    a = np.asarray(amps, dtype=complex).reshape(8)
    p = [a[x] * a[7 - x] for x in (0, 1, 2, 4)]
    hdet = sum(q * q for q in p) - 2 * sum(p[k] * p[m] for k in range(4) for m in range(k + 1, 4))
    hdet += 4 * (a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4])
    return 4 * abs(hdet)
