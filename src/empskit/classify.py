"""SLOCC entanglement classification through marginal passive energies.

State builders for the standard multi-qubit families (W, GHZ, Dicke,
biseparable, and their white-noise mixtures), the three-qubit polytope
facet tests, an energy-indicator classifier, and random sampling of SLOCC
orbits for empirical polytope-containment checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from . import qcore
from .emps import (
    _CHUNK_AMPLITUDES,
    DEFAULT_SEED,
    SLACK_TOL,
    EmpsVector,
    _pure_emps,
    _require_vector,
    emps_vector,
    eta_indicator,
)
from .errors import ArgumentError, EmpskitError, ValidationError
from .qcore import DensityMatrix, PureState, State

DET_FLOOR = 1e-6  # resample a local operator when |det| falls below this


class ClassVerdict(str, Enum):
    FULLY_SEPARABLE = "fully_separable"
    BISEPARABLE = "biseparable"
    W_CLASS = "w_class"
    GHZ_CLASS = "ghz_class"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class FacetEvidence:
    """One inequality behind a verdict: positive slack means satisfied."""

    name: str
    value: float
    threshold: float
    slack: float


@dataclass(frozen=True)
class ClassLabel:
    verdict: ClassVerdict
    description: str
    cut: Optional[int] = None  # factored qubit for biseparable verdicts
    genuinely_entangled: Optional[bool] = None
    evidence: List[FacetEvidence] = field(default_factory=list)


@dataclass(frozen=True)
class StateBuilderSpec:
    """Named state family plus its parameters; see build_state for the catalogue."""

    family: str
    params: dict


@dataclass(frozen=True)
class PolytopeReport:
    member: bool
    facet_slacks: Dict[str, float]


@dataclass(frozen=True)
class NoisyReport:
    """Total-energy discrimination record for a white-noise W or GHZ mixture."""

    family: str
    emps: np.ndarray
    total: float
    noise_estimate: Optional[float]
    evidence: FacetEvidence


def _require(cond: bool, constraint: str):
    if not cond:
        raise ValidationError(f"builder parameters violate: {constraint}")


def _indices_with_excitations(n: int, l: int) -> List[int]:
    """Basis indices of the n-qubit states with l ones, for integers 2 <= n <= MAX_QUBITS, 1 <= l <= n-1."""
    _require(qcore._is_integer(n) and 2 <= n <= qcore.MAX_QUBITS, f"2 <= n <= {qcore.MAX_QUBITS}")
    _require(qcore._is_integer(l) and 1 <= l <= n - 1, "1 <= l <= n-1")
    return [i for i in range(2 ** n) if bin(i).count("1") == l]


def build_ghz(n: int, theta: float) -> PureState:
    """cos(theta)|0...0> + sin(theta)|1...1> with theta in (0, pi/4]."""
    _require(qcore._is_integer(n) and 2 <= n <= qcore.MAX_QUBITS, f"2 <= n <= {qcore.MAX_QUBITS}")
    # slack admits pi/4 rounded to fewer digits than a double carries
    _require(0.0 < theta <= math.pi / 4 + 1e-9, "theta in (0, pi/4]")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = math.cos(theta)
    amps[-1] = math.sin(theta)
    return PureState(amps)


def build_w(coeffs: Sequence[float]) -> PureState:
    """sum_i sqrt(a_i) |0..1_i..0> with a_i >= 0 summing to 1."""
    a = qcore._numbers(coeffs, "coeffs", np.float64, TypeError)
    n = a.size
    _require(2 <= n <= qcore.MAX_QUBITS, f"2 <= n <= {qcore.MAX_QUBITS}")
    _require(bool(np.all(a >= 0.0)), "all coefficients a_i >= 0")
    _require(abs(float(a.sum()) - 1.0) <= qcore.NORMALIZATION_ATOL, "sum of coefficients equals 1")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    for i in range(n):
        amps[1 << (n - 1 - i)] = math.sqrt(a[i])  # qubit i+1 excited
    return PureState(amps)


def build_dicke(n: int, l: int) -> PureState:
    """Symmetric state of n qubits with exactly l excitations, uniform over permutations."""
    idx = _indices_with_excitations(n, l)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[idx] = 1.0 / math.sqrt(len(idx))
    return PureState(amps)


def build_generalized_dicke(n: int, l: int, coeffs: Sequence[complex]) -> PureState:
    """Arbitrary unit-norm coefficients over the l-excitation basis states.

    Coefficient order follows ascending basis index of the bit strings with
    exactly l ones.
    """
    idx = _indices_with_excitations(n, l)
    c = qcore._numbers(coeffs, "coeffs", error=TypeError).reshape(-1)
    _require(c.size == len(idx), f"coefficient count equals C({n},{l}) = {len(idx)}")
    _require(abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= qcore.NORMALIZATION_ATOL, "coefficients have unit norm")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[idx] = c
    return PureState(amps)


def build_biseparable(alpha: complex, beta: complex, position: int) -> PureState:
    """Three-qubit state |0> at `position` times alpha|00> + beta|11> on the other two."""
    _require(qcore._is_integer(position) and position in (1, 2, 3), "position in {1, 2, 3}")
    unit = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= qcore.NORMALIZATION_ATOL  # a string fails here: wrong type
    _require(unit and all(qcore._is_number(a, numbers.Complex) for a in (alpha, beta)), "|alpha|^2 + |beta|^2 = 1")
    pair = [q for q in (1, 2, 3) if q != position]
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = alpha
    amps[(1 << (3 - pair[0])) | (1 << (3 - pair[1]))] = beta
    return PureState(amps)


def _white_noise(psi: PureState, v: float, name: str) -> DensityMatrix:
    """(1 - v) |psi><psi| + v/d * identity, d the dimension of psi, for the weight v named name in [0, 1]."""
    _require(0.0 <= v <= 1.0 and qcore._is_number(v), f"{name} in [0, 1]")
    # the outer product is exactly Hermitian, so _trusted's symmetrized copy keeps its bits
    projector = np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix._trusted((1.0 - v) * projector + (v / psi.dim) * np.eye(psi.dim))


def build_noisy_w(v1: float) -> DensityMatrix:
    """(1 - v1) |W><W| + v1/8 * identity on three qubits, v1 in [0, 1]."""
    return _white_noise(build_dicke(3, 1), v1, "v1")


def build_noisy_ghz(v2: float) -> DensityMatrix:
    """(1 - v2) |GHZ><GHZ| + v2/8 * identity on three qubits, v2 in [0, 1]."""
    return _white_noise(build_ghz(3, math.pi / 4), v2, "v2")


_BUILDERS = {
    "ghz": (build_ghz, ("n", "theta")),
    "w": (build_w, ("coeffs",)),
    "dicke": (build_dicke, ("n", "l")),
    "generalized_dicke": (build_generalized_dicke, ("n", "l", "coeffs")),
    "biseparable": (build_biseparable, ("alpha", "beta", "position")),
    "noisy_w": (build_noisy_w, ("v1",)),
    "noisy_ghz": (build_noisy_ghz, ("v2",)),
}


def build_state(spec: StateBuilderSpec) -> State:
    """Construct a state from a named family.

    Families and parameters:
      ghz(n, theta)                        generalized GHZ, theta in (0, pi/4]
      w(coeffs)                            generalized W, coeffs sum to 1
      dicke(n, l)                          uniform Dicke state, 1 <= l <= n-1
      generalized_dicke(n, l, coeffs)      unit-norm coefficients over C(n,l) terms
      biseparable(alpha, beta, position)   |0> at position, alpha|00>+beta|11| elsewhere
      noisy_w(v1), noisy_ghz(v2)           white-noise mixtures, v in [0, 1]
    """
    if not isinstance(spec, StateBuilderSpec):
        raise ArgumentError(f"state builder needs a StateBuilderSpec, got {type(spec).__name__}")
    if spec.family not in _BUILDERS:
        raise ValidationError(
            f"unknown state family {spec.family!r}; known: {sorted(_BUILDERS)}"
        )
    fn, names = _BUILDERS[spec.family]
    if not isinstance(spec.params, dict):
        kind = type(spec.params).__name__
        raise ValidationError(f"family {spec.family!r} parameters must be an object, got {kind}")
    params = dict(spec.params)
    missing = [k for k in names if k not in params]
    if missing:
        raise ValidationError(f"family {spec.family!r} missing parameters {missing}")
    extra = [k for k in params if k not in names]
    if extra:
        raise ValidationError(f"family {spec.family!r} got unknown parameters {extra}")
    try:
        return fn(**params)
    except EmpskitError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"family {spec.family!r} got a parameter of the wrong type: {exc}") from exc


W_TOTAL_FACET = "w_total"


def polytope_membership_3q(v: EmpsVector, polytope: Union[str, ClassVerdict]) -> PolytopeReport:
    """Facet test of a 3-qubit energy vector against the W or GHZ polytope.

    The GHZ polytope is 0 <= E_i <= 1/2 together with the polygon
    inequalities; the W polytope additionally caps the total at 1. Membership
    means every facet slack is >= -SLACK_TOL.
    """
    _require_vector(v, "polytope membership")
    if v.n != 3:
        raise ArgumentError(f"polytope facets are defined for n=3, got n={v.n}")
    which = polytope.value if isinstance(polytope, ClassVerdict) else str(polytope).lower()
    if which not in ("w", "w_class", "ghz", "ghz_class"):
        raise ArgumentError(f"polytope must be 'w' or 'ghz', got {polytope!r}")
    want_w = which in ("w", "w_class")
    e = v.values
    total = v.total()
    slacks: Dict[str, float] = {}
    for i in range(3):
        slacks[f"nonneg_e{i + 1}"] = float(e[i])
        slacks[f"cap_e{i + 1}"] = float(0.5 - e[i])
        slacks[f"polygon_e{i + 1}"] = float(total - 2.0 * e[i])
    if want_w:
        slacks[W_TOTAL_FACET] = float(1.0 - total)
    member = all(s >= -SLACK_TOL for s in slacks.values())
    return PolytopeReport(member=member, facet_slacks=slacks)


def classify_three_qubit(psi: PureState) -> ClassLabel:
    """Classify a 3-qubit pure state from its marginal passive energies.

    A total above 1 certifies GHZ-class entanglement. A positive energy
    indicator with total <= 1 certifies genuine tripartite entanglement but
    cannot separate the W class from GHZ states inside the overlap region,
    so that case is reported as undetermined with the region named. A zero
    indicator falls through to the biseparable/separable patterns.
    """
    qcore._require_pure(psi, "classification")
    if psi.n != 3:
        raise ArgumentError("classification needs a 3-qubit pure state")
    v = emps_vector(psi)
    e = v.values
    total = v.total()
    eta = eta_indicator(v)
    evidence = [
        FacetEvidence("w_facet_total", total, 1.0, 1.0 - total),
        FacetEvidence("eta_indicator", eta, 0.0, eta),
    ]
    if total > 1.0 + SLACK_TOL:
        return ClassLabel(
            verdict=ClassVerdict.GHZ_CLASS,
            description="GHZ class (total energy exceeds the W facet)",
            genuinely_entangled=True,
            evidence=evidence,
        )
    if eta > SLACK_TOL:
        return ClassLabel(
            verdict=ClassVerdict.UNDETERMINED,
            description="W-or-GHZ region, genuinely entangled",
            genuinely_entangled=True,
            evidence=evidence,
        )
    if float(e.max()) <= SLACK_TOL:
        evidence.append(FacetEvidence("max_emps", float(e.max()), 0.0, SLACK_TOL - float(e.max())))
        return ClassLabel(
            verdict=ClassVerdict.FULLY_SEPARABLE,
            description="fully separable",
            genuinely_entangled=False,
            evidence=evidence,
        )
    zeros = [i for i in range(3) if e[i] <= SLACK_TOL]
    if len(zeros) == 1:
        cut = zeros[0]
        j, k = [i for i in range(3) if i != cut]
        gap = abs(float(e[j] - e[k]))
        if gap <= SLACK_TOL:
            evidence.append(FacetEvidence(f"zero_marginal_q{cut + 1}", float(e[cut]), 0.0, SLACK_TOL - float(e[cut])))
            evidence.append(FacetEvidence("offcut_pair_gap", gap, 0.0, SLACK_TOL - gap))
            return ClassLabel(
                verdict=ClassVerdict.BISEPARABLE,
                description=f"biseparable (qubit {cut + 1} factored)",
                cut=cut + 1,
                genuinely_entangled=False,
                evidence=evidence,
            )
    return ClassLabel(
        verdict=ClassVerdict.UNDETERMINED,
        description="undetermined (zero indicator, no separable pattern)",
        genuinely_entangled=None,
        evidence=evidence,
    )


def _det_2x2(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def _random_local_operator(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(_det_2x2(g)) >= DET_FLOOR:
            return g


# default_rng(seed) seeds PCG64 through NumPy's SeedSequence (NEP 19, a pool
# of four 32-bit words) and PCG64's srandom (O'Neill 2014). Both are fixed
# algorithms, so _pcg64_states derives the state of default_rng(seed) for a
# whole run of seeds at once from these constants: SeedSequence's hash
# constants, each hash step's multiplier (the INIT constant times one more
# power of MULT per step), and the 128-bit PCG64 multiplier.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_HASH_A = tuple(_SS_INIT_A * pow(_SS_MULT_A, k, 1 << 32) % (1 << 32) for k in range(17))
_SS_HASH_B = tuple(_SS_INIT_B * pow(_SS_MULT_B, k, 1 << 32) % (1 << 32) for k in range(9))
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1
# Seeds with more than two 32-bit entropy words build their own default_rng.
_DERIVED_SEED_BOUND = 1 << 64


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one hash step per row of words (uint32, wrapping)
    h = words ^ xor
    h *= mult
    h ^= h >> 16
    return h


def _pcg64_states(start: int, count: int) -> Iterator[dict]:
    """bit_generator.state of default_rng(start + k) for k < count, all seeds below 2^64.

    SeedSequence hashes the seed's 32-bit words (low word first, zeros after)
    into its pool, mixes every pool word into every other, and hashes the
    pool out again as generate_state(4, uint64); PCG64 then runs srandom on
    those words. The hashing runs on every seed at once in uint32 arithmetic,
    srandom's 128-bit steps on Python ints.
    """
    seeds = np.arange(count, dtype=np.uint64) + np.uint64(start)
    pool = np.zeros((4, count), dtype=np.uint32)  # one row per pool word
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    a = np.array(_SS_HASH_A, dtype=np.uint32)[:, None]
    pool = _hashmix(pool, a[:4], a[1:5])
    for src in range(4):
        # each other word x, in row order, becomes mix(x, hashmix(pool[src])):
        # (MIX_L x - MIX_R y) ^ >> 16, one hash step per destination
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = pool[dst] * np.uint32(_SS_MIX_L)
        mixed -= _hashmix(pool[src], a[k:k + 3], a[k + 1:k + 4]) * np.uint32(_SS_MIX_R)
        mixed ^= mixed >> 16
        pool[dst] = mixed
    b = np.array(_SS_HASH_B, dtype=np.uint32)[:, None]
    words = _hashmix(np.tile(pool, (2, 1)), b[:8], b[1:]).astype(np.uint64)
    words = words[0::2] | (words[1::2] << np.uint64(32))  # little-endian uint64 pairs
    for s_hi, s_lo, i_hi, i_lo in words.T.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK_128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK_128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _local_factors(n: int, start: int, count: int) -> np.ndarray:
    """The n 2x2 factors of the orbit samples seeded at start + k for k < count, as (count, n, 2, 2).

    Sample k takes one draw of 8n normals from default_rng(start + k), which
    consumes the stream exactly as n _random_local_operator calls do when no
    factor needs a redraw. For seeds below 2^64 that stream comes from one
    reused PCG64 whose state is set to exactly that of default_rng(start + k).
    Larger seeds, and samples with any factor below DET_FLOOR, are replayed
    from their own default_rng, factor by factor.
    """
    z = np.zeros((count, n, 2, 2, 2))  # rows past the bound stay zero until replayed
    derived = min(count, max(0, _DERIVED_SEED_BOUND - start))
    if derived:  # a run starting at or past the bound has no derived states
        bit_generator = np.random.PCG64(0)  # its state is replaced before each draw
        generator = np.random.Generator(bit_generator)
        for row, state in zip(z[:derived], _pcg64_states(start, derived)):
            bit_generator.state = state
            generator.standard_normal(out=row)
    g = z[:, :, 0] + 1j * z[:, :, 1]
    replay = np.any(np.abs(_det_2x2(g)) < DET_FLOOR, axis=1)
    replay[derived:] = True
    for k in np.flatnonzero(replay):
        rng = np.random.default_rng(start + int(k))
        g[k] = [_random_local_operator(rng) for _ in range(n)]
    return g


def _apply_local_factors(amps: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Rows (g_k1 x ... x g_kn) amps for a (B, n, 2, 2) stack of factors, as (B, 2^n).

    Qubit q + 1 leads the amplitude tensor at step q: its 2x2 factor is
    applied by one batched matmul, then the axis rotates to the back, so
    after n steps the qubit order is restored. Every row is computed on its
    own, and no 2^n x 2^n operator is formed.
    """
    b, n = factors.shape[:2]
    t = np.broadcast_to(amps, (b, amps.size))
    for q in range(n):
        t = (factors[:, q] @ t.reshape(b, 2, -1)).swapaxes(1, 2)
    return t.reshape(b, -1)


def slocc_orbit_sample(psi: PureState, count: int, seed: int = DEFAULT_SEED) -> List[EmpsVector]:
    """Energy vectors of `count` random states in the SLOCC orbit of psi.

    Each sample applies an invertible G = g_1 x ... x g_n with independent
    complex-Gaussian 2x2 factors (resampled when |det g_i| < 1e-6) and
    renormalizes. Sample k draws its factors from its own generator,
    default_rng(seed + k), so sample k is the same bits whatever the count
    and however the samples are batched. psi is a PureState, count and seed
    integers (NumPy integers too, bools not); anything else is an ArgumentError.

    Samples are processed in batches of at most 2^16 amplitudes: the factors
    act as per-qubit 2x2 contractions on the batch's amplitude tensor (no
    2^n x 2^n Kronecker product is formed), the rows are normalized, and one
    call to the marginal kernel gives every qubit's energy in closed form.
    """
    qcore._require_pure(psi, "orbit sampling")
    count = qcore._integer(count, "sample count")
    seed = qcore._integer(seed, "orbit seed")
    if count < 1:
        raise ArgumentError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise ArgumentError(f"orbit seed must be a non-negative integer, got {seed}")
    n = psi.n
    batch = max(1, _CHUNK_AMPLITUDES // psi.dim)
    energies = np.empty((count, n))
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        phi = _apply_local_factors(psi.amps, _local_factors(n, seed + start, stop - start))
        phi /= np.linalg.norm(phi, axis=1)[:, None]
        qcore._require_normalized_rows(phi, "orbit sample", start)
        energies[start:stop] = _pure_emps(phi)
    energies.flags.writeable = False  # and with it every row view
    return [EmpsVector._trusted(row) for row in energies]


# W-family mixtures stay genuinely multipartite entangled below this noise
# level, with total energy strictly under 43/34; GHZ mixtures sit at 3/2.
W_NOISE_GME_MAX = 9.0 / 17.0
W_TOTAL_BOUND = 43.0 / 34.0
GHZ_TOTAL = 1.5


def discriminate_noisy(rho: DensityMatrix, which: str) -> NoisyReport:
    """Total-energy report separating white-noise W mixtures from GHZ mixtures.

    For the W family the total equals (2 + v1)/2, which stays below 43/34 on
    the genuinely entangled range v1 < 9/17 and lets us read the noise level
    back off the total. GHZ mixtures have maximally mixed marginals at any
    noise level, so their total is pinned at 3/2.
    """
    qcore._require_state(rho, "noisy discrimination")
    if rho.n != 3:
        raise ArgumentError(f"noisy discrimination is defined for 3 qubits, got n={rho.n}")
    if not isinstance(which, str) or which.lower() not in ("w", "ghz"):
        raise ArgumentError(f"which must be 'w' or 'ghz', got {which!r}")
    which = which.lower()
    v = emps_vector(rho)
    total = v.total()
    if which == "w":
        noise = 2.0 * total - 2.0
        evidence = FacetEvidence("w_total_below_43_34", total, W_TOTAL_BOUND, W_TOTAL_BOUND - total)
        return NoisyReport(family="w", emps=v.values, total=total, noise_estimate=noise, evidence=evidence)
    evidence = FacetEvidence("ghz_total_equals_3_2", total, GHZ_TOTAL, GHZ_TOTAL - total)
    return NoisyReport(family="ghz", emps=v.values, total=total, noise_estimate=None, evidence=evidence)


def random_biseparable_three_qubit(
    rng: np.random.Generator, cut: Optional[int] = None
) -> PureState:
    """Random pure state that factors as (1 qubit) x (2 qubits) at the given cut."""
    if cut is None:
        cut = int(rng.integers(1, 4))
    if not (qcore._is_integer(cut) and cut in (1, 2, 3)):
        raise ArgumentError(f"cut must be 1, 2, or 3, got {cut}")
    single = qcore.random_pure_state(1, rng)
    pair = qcore.random_pure_state(2, rng)
    product = qcore.tensor_product(single, pair)  # single qubit leads
    order = {1: (1, 2, 3), 2: (2, 1, 3), 3: (2, 3, 1)}[cut]
    return qcore.permute_qubits(product, order)
