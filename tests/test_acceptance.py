"""Acceptance suite: every release criterion, one test each, at its stated
tolerance. Each test prints a single [criterion NN] PASS/FAIL line (visible
with pytest -s or in captured output on failure)."""

import math
import time

import numpy as np

from empskit.classify import (
    build_biseparable,
    build_dicke,
    build_generalized_dicke,
    build_ghz,
    build_noisy_ghz,
    build_noisy_w,
    build_w,
    discriminate_noisy,
    polytope_membership_3q,
    random_biseparable_three_qubit,
    slocc_orbit_sample,
)
from empskit.emps import (
    DEFAULT_SEED,
    emps_vector,
    emps_vectors,
    eta_indicator,
    passive_energy,
    polygon_check,
    worst_slacks,
)
from empskit.qcore import (
    DensityMatrix,
    PureState,
    basis_state,
    eig_hermitian,
    partial_trace,
    random_pure_state,
)
from empskit.spinchain import (
    entropy_criterion,
    ground_state,
    long_range_chain,
    nearest_neighbor_chain,
)

from oracles import (
    eig_oracle,
    partial_trace_oracle,
    random_density,
    random_hermitian,
    random_unitary_energies,
)

SLACK = 1e-9


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_three_qubit_vertices():
    t0 = time.perf_counter()
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(emps_vector(basis_state("000")).values))))
    for pos in (1, 2, 3):
        bs = build_biseparable(1 / math.sqrt(2), 1 / math.sqrt(2), pos)
        expected = np.array([0.5, 0.5, 0.5])
        expected[pos - 1] = 0.0
        worst = max(worst, float(np.max(np.abs(emps_vector(bs).values - expected))))
    ghz = build_ghz(3, math.pi / 4)
    worst = max(worst, float(np.max(np.abs(emps_vector(ghz).values - 0.5))))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= SLACK and elapsed < 1.0,
        f"vertex energies off by at most {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_polygon_law_haar():
    t0 = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = np.inf
    for n in range(3, 9):
        for _ in range(10_000):
            report = polygon_check(emps_vector(random_pure_state(n, rng)))
            worst = min(worst, report.worst_slack)
            if report.worst_slack < -SLACK:
                break
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst >= -SLACK and elapsed < 60.0,
        f"60000 Haar states, min polygon slack {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_batched_equivalence():
    # the stack entry points against criterion 02's per-state path, bit for bit
    rng = np.random.default_rng(DEFAULT_SEED)
    batched_s = 0.0
    worst = np.inf
    for n in range(3, 9):
        z = rng.standard_normal((10_000, 2 ** n)) + 1j * rng.standard_normal((10_000, 2 ** n))
        amps = z / np.linalg.norm(z, axis=1)[:, None]
        t0 = time.perf_counter()
        energies = emps_vectors(amps)
        slacks = worst_slacks(energies)
        batched_s += time.perf_counter() - t0
        vectors = [emps_vector(PureState(row)) for row in amps]
        assert np.array_equal(energies, [v.values for v in vectors]), n
        assert np.array_equal(slacks, [polygon_check(v).worst_slack for v in vectors]), n
        worst = min(worst, float(slacks.min()))
    _report(
        2,
        worst >= -SLACK,
        f"60000 Haar states batched, bit-identical per state, min slack {worst:.2e}, {batched_s:.2f}s",
    )


def test_criterion_03_w_facet():
    worst_total = 0.0
    for n in range(3, 9):
        v = emps_vector(build_w([1.0 / n] * n))
        worst_total = max(worst_total, abs(v.total() - 1.0))
    worst_dominant = 0.0
    for n in range(3, 9):
        coeffs = [0.6] + [0.4 / (n - 1)] * (n - 1)
        psi = build_w(coeffs)
        v = emps_vector(psi)
        worst_dominant = max(worst_dominant, abs(v.total() - 0.8), abs(eta_indicator(v)))
    ok = worst_total <= SLACK and worst_dominant <= SLACK
    _report(
        3,
        ok,
        f"uniform totals off by {worst_total:.2e}, dominant-coefficient case off by {worst_dominant:.2e}",
    )


def test_criterion_04_ghz_formulas():
    worst = 0.0
    for n in range(3, 9):
        for theta in (0.2, 0.5, math.pi / 4):
            v = emps_vector(build_ghz(n, theta))
            s2 = math.sin(theta) ** 2
            worst = max(worst, abs(v.total() - n * s2), abs(eta_indicator(v) - (n - 2) * s2))
        theta_star = math.asin(math.sqrt(1.0 / n))
        eta = eta_indicator(build_ghz(n, theta_star))
        worst = max(worst, abs(eta - (n - 2) / n))
    _report(4, worst <= SLACK, f"GHZ totals and indicators off by at most {worst:.2e}")


def test_criterion_05_dicke_facets():
    worst = 0.0
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_excess = -np.inf
    for n in (4, 5, 6):
        for l in range(1, n):
            facet = min(l, n - l)
            v = emps_vector(build_dicke(n, l))
            worst = max(worst, abs(v.total() - facet))
            m = math.comb(n, l)
            for _ in range(100):
                c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                c /= np.linalg.norm(c)
                total = emps_vector(build_generalized_dicke(n, l, c)).total()
                worst_excess = max(worst_excess, total - facet)
    ok = worst <= SLACK and worst_excess <= SLACK
    _report(
        5,
        ok,
        f"Dicke facet totals off by {worst:.2e}; generalized states exceed by at most {worst_excess:.2e}",
    )


def test_criterion_06_noisy_discrimination():
    worst_w = 0.0
    for v1 in (0.1, 0.3, 0.5):
        total = discriminate_noisy(build_noisy_w(v1), "w").total
        worst_w = max(worst_w, abs(total - (2 + v1) / 2))
    worst_g = 0.0
    for v2 in (0.1, 0.5):
        total = discriminate_noisy(build_noisy_ghz(v2), "ghz").total
        worst_g = max(worst_g, abs(total - 1.5))
    ordered = all(
        discriminate_noisy(build_noisy_ghz(v2), "ghz").total
        > discriminate_noisy(build_noisy_w(v1), "w").total
        for v1 in (0.1, 0.3, 0.5)
        for v2 in (0.1, 0.5)
    )
    ok = worst_w <= SLACK and worst_g <= SLACK and ordered
    _report(
        6,
        ok,
        f"W totals off by {worst_w:.2e}, GHZ totals off by {worst_g:.2e}, ordering holds: {ordered}",
    )


def test_criterion_07_slocc_orbit_containment():
    t0 = time.perf_counter()
    w_samples = slocc_orbit_sample(build_w([1 / 3] * 3), 10_000, seed=DEFAULT_SEED)
    w_excess = max(v.total() - 1.0 for v in w_samples)
    ghz_samples = slocc_orbit_sample(build_ghz(3, math.pi / 4), 10_000, seed=DEFAULT_SEED)
    ghz_inside = all(polytope_membership_3q(v, "ghz").member for v in ghz_samples)
    above_facet = sum(v.total() > 1.0 for v in ghz_samples)
    elapsed = time.perf_counter() - t0
    ok = w_excess <= SLACK and ghz_inside and above_facet >= 1 and elapsed < 30.0
    _report(
        7,
        ok,
        f"W orbit exceeds facet by at most {w_excess:.2e}; GHZ orbit inside polytope: {ghz_inside} "
        f"({above_facet} samples beyond the W facet), {elapsed:.1f}s",
    )


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(DEFAULT_SEED)

    worst_pt = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        rho = random_pure_state(n, rng).density()
        k = int(rng.integers(1, n + 1))
        keep = tuple(int(q) for q in rng.permutation(np.arange(1, n + 1))[:k])
        got = partial_trace(rho, keep).entries
        want = partial_trace_oracle(rho.entries, n, keep)
        worst_pt = max(worst_pt, float(np.max(np.abs(got - want))))

    worst_eig = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        worst_eig = max(
            worst_eig, float(np.max(np.abs(eig_hermitian(h).eigenvalues - eig_oracle(h))))
        )

    worst_gap = -np.inf
    for i in range(50):
        d = (2, 4, 8)[i % 3]
        rho = random_density(d, rng)
        ham = random_hermitian(d, rng)
        passive = passive_energy(DensityMatrix(rho), ham)
        samples = random_unitary_energies(rho, ham, 10_000, rng)
        worst_gap = max(worst_gap, passive - float(samples.min()))

    ok = worst_pt <= 1e-12 and worst_eig <= 1e-8 and worst_gap <= 1e-10
    _report(
        8,
        ok,
        f"partial-trace mismatch {worst_pt:.2e} (<=1e-12), eigenvalue mismatch {worst_eig:.2e} "
        f"(<=1e-8), passive energy above best unitary sample by {worst_gap:.2e} (<=1e-10)",
    )


def test_criterion_09_ising_reproduction():
    t0 = time.perf_counter()
    plain = ground_state(nearest_neighbor_chain(N=5, J=1.0, h=1.0))
    plain_eta = eta_indicator(plain.state)
    plain_ent = entropy_criterion(plain.state)
    energy_err = abs(plain.energy + 3.5)
    longrange = ground_state(long_range_chain())
    lr_eta = eta_indicator(longrange.state)
    lr_ent = entropy_criterion(longrange.state)
    elapsed = time.perf_counter() - t0
    ok = (
        plain_eta <= SLACK
        and plain_ent <= SLACK
        and energy_err <= SLACK
        and lr_eta > 1e-6
        and lr_ent > 1e-6
        and elapsed < 10.0
    )
    _report(
        9,
        ok,
        f"nearest-neighbor: energy err {energy_err:.2e}, eta {plain_eta:.2e}, entropy {plain_ent:.2e}; "
        f"long-range: eta {lr_eta:.4f}, entropy {lr_ent:.6f}; {elapsed:.1f}s",
    )


def test_criterion_10_biseparable_negative_control():
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for k in range(500):
        psi = random_biseparable_three_qubit(rng, cut=(k % 3) + 1)
        worst = max(worst, abs(eta_indicator(psi)))
    _report(10, worst <= SLACK, f"500 biseparable states, max |eta| = {worst:.2e}")
