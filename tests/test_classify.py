import math
import time
from pathlib import Path

import numpy as np
import pytest

from empskit import classify
from empskit.classify import (
    ClassVerdict,
    StateBuilderSpec,
    build_biseparable,
    build_dicke,
    build_generalized_dicke,
    build_ghz,
    build_noisy_ghz,
    build_noisy_w,
    build_state,
    build_w,
    classify_three_qubit,
    discriminate_noisy,
    polytope_membership_3q,
    random_biseparable_three_qubit,
    slocc_orbit_sample,
)
from empskit.emps import SLACK_TOL, EmpsVector, emps_vector, emps_vectors, eta_indicator
from empskit.qcore import PureState, basis_state, random_pure_state, tensor_product

from oracles import min_marginal_eigenvalues_oracle, orbit_factors_oracle, orbit_row_kron_oracle, three_tangle


# ---------------------------------------------------------------- builders


def test_dicke_3_1_is_uniform_w():
    psi = build_dicke(3, 1)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)  # |001>, |010>, |100>
    assert np.allclose(psi.amps, expected)


def test_ghz_at_pi_over_4():
    psi = build_ghz(3, math.pi / 4)
    assert abs(psi.amps[0] - 1 / math.sqrt(2)) <= 1e-12
    assert abs(psi.amps[7] - 1 / math.sqrt(2)) <= 1e-12
    assert np.all(psi.amps[1:7] == 0)


def test_w_with_degenerate_coefficients_is_product():
    psi = build_w([1.0, 0.0, 0.0])
    assert np.array_equal(psi.amps, basis_state("100").amps)


def test_biseparable_matches_bell_tensor_zero():
    psi = build_biseparable(1 / math.sqrt(2), 1 / math.sqrt(2), 3)
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / math.sqrt(2)  # (|00>+|11>) x |0>
    assert np.allclose(psi.amps, expected)
    # factored qubit in |0>: its marginal energy vanishes
    assert np.allclose(emps_vector(psi).values, [0.5, 0.5, 0.0], atol=1e-12)


def test_biseparable_positions():
    for pos in (1, 2, 3):
        psi = build_biseparable(0.6, 0.8, pos)
        v = emps_vector(psi).values
        assert v[pos - 1] == 0.0
        others = [v[i] for i in range(3) if i != pos - 1]
        assert abs(others[0] - others[1]) <= 1e-12


def test_generalized_dicke_uniform_matches_dicke():
    m = math.comb(4, 2)
    psi = build_generalized_dicke(4, 2, np.full(m, 1 / math.sqrt(m)))
    assert np.allclose(psi.amps, build_dicke(4, 2).amps)


def test_noisy_builders_are_valid_mixtures():
    rho = build_noisy_w(0.3)
    assert rho.dim == 8
    assert abs(np.trace(rho.entries).real - 1.0) <= 1e-12
    rho = build_noisy_ghz(1.0)
    assert np.allclose(rho.entries, np.eye(8) / 8)


@pytest.mark.parametrize("v", [0.0, 0.2, 0.37, 9 / 17, np.float64(0.75), 1.0])
@pytest.mark.parametrize("build, psi", [(build_noisy_w, build_dicke(3, 1)), (build_noisy_ghz, build_ghz(3, math.pi / 4))],
                         ids=["noisy_w", "noisy_ghz"])
def test_noisy_builders_are_the_white_noise_formula_bit_for_bit(build, psi, v):
    expected = (1 - v) * np.outer(psi.amps, psi.amps.conj()) + (v / 8) * np.eye(8)
    assert np.array_equal(build(v).entries, expected)


# ---------------------------------------------------------------- classification


def test_classify_maximal_ghz():
    label = classify_three_qubit(build_ghz(3, math.pi / 4))
    assert label.verdict is ClassVerdict.GHZ_CLASS
    assert label.genuinely_entangled is True
    total = next(e for e in label.evidence if e.name == "w_facet_total")
    assert total.value > 1.0 + 1e-9
    assert total.slack < 0


def test_classify_uniform_w_reports_overlap_region():
    label = classify_three_qubit(build_w([1 / 3] * 3))
    assert label.verdict is ClassVerdict.UNDETERMINED
    assert label.description == "W-or-GHZ region, genuinely entangled"
    assert label.genuinely_entangled is True
    eta = next(e for e in label.evidence if e.name == "eta_indicator")
    assert abs(eta.value - 1 / 3) <= 1e-9


def test_classify_biseparable_cut_three():
    label = classify_three_qubit(build_biseparable(1 / math.sqrt(2), 1 / math.sqrt(2), 3))
    assert label.verdict is ClassVerdict.BISEPARABLE
    assert label.cut == 3
    assert label.genuinely_entangled is False


def test_classify_fully_separable():
    label = classify_three_qubit(basis_state("101"))
    assert label.verdict is ClassVerdict.FULLY_SEPARABLE


def test_classify_zero_indicator_without_pattern():
    # a_1 = 1/2 puts one marginal at the cap, so eta = 0 without biseparability
    label = classify_three_qubit(build_w([0.5, 0.3, 0.2]))
    assert label.verdict is ClassVerdict.UNDETERMINED
    assert label.genuinely_entangled is None


def test_classify_ghz_above_w_facet_angle():
    # total exceeds 1 exactly when theta > arcsin(1/sqrt(3))
    for theta in (0.62, 0.7, math.pi / 4):
        assert classify_three_qubit(build_ghz(3, theta)).verdict is ClassVerdict.GHZ_CLASS
    assert classify_three_qubit(build_ghz(3, 0.6)).verdict is ClassVerdict.UNDETERMINED


# ---------------------------------------------------------------- polytope facets


def test_polytope_membership_maximal_ghz_vertex():
    v = EmpsVector(3, np.array([0.5, 0.5, 0.5]))
    assert polytope_membership_3q(v, "ghz").member
    w = polytope_membership_3q(v, "w")
    assert not w.member
    assert w.facet_slacks["w_total"] < 0


def test_polytope_membership_biseparable_vertex_on_w_facet():
    v = EmpsVector(3, np.array([0.0, 0.5, 0.5]))
    assert polytope_membership_3q(v, "ghz").member
    report = polytope_membership_3q(v, "w")
    assert report.member
    assert abs(report.facet_slacks["w_total"]) <= 1e-12


def test_polytope_membership_interior_point():
    v = EmpsVector(3, np.array([0.4, 0.3, 0.2]))
    report = polytope_membership_3q(v, "w")
    assert report.member
    assert abs(report.facet_slacks["polygon_e1"] - 0.1) <= 1e-12
    assert abs(report.facet_slacks["w_total"] - 0.1) <= 1e-12


def test_polytope_membership_rejects_violations():
    v = EmpsVector(3, np.array([0.5, 0.0, 0.0]))
    report = polytope_membership_3q(v, "ghz")
    assert not report.member
    assert report.facet_slacks["polygon_e1"] < 0


def test_polytope_accepts_verdict_enum():
    v = EmpsVector(3, np.array([0.1, 0.1, 0.1]))
    assert polytope_membership_3q(v, ClassVerdict.W_CLASS).member
    assert polytope_membership_3q(v, ClassVerdict.GHZ_CLASS).member


# ---------------------------------------------------------------- orbit sampling


def test_orbit_of_product_state_stays_at_origin():
    samples = slocc_orbit_sample(basis_state("000"), 25, seed=3)
    for v in samples:
        assert np.max(v.values) <= 1e-12


def test_orbit_of_w_respects_total_facet():
    samples = slocc_orbit_sample(build_w([1 / 3] * 3), 500, seed=42)
    assert all(v.total() <= 1.0 + 1e-9 for v in samples)


def test_orbit_of_ghz_stays_in_polytope():
    samples = slocc_orbit_sample(build_ghz(3, math.pi / 4), 500, seed=42)
    for v in samples:
        assert polytope_membership_3q(v, "ghz").member


def test_orbit_sampling_is_seed_deterministic():
    psi = build_w([0.5, 0.25, 0.25])
    a = slocc_orbit_sample(psi, 10, seed=7)
    b = slocc_orbit_sample(psi, 10, seed=7)
    c = slocc_orbit_sample(psi, 10, seed=8)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, c))


def test_orbit_sample_prefix_stability():
    # per-sample derived seeds: a longer run extends a shorter one
    psi = build_ghz(3, 0.5)
    short = slocc_orbit_sample(psi, 4, seed=11)
    long = slocc_orbit_sample(psi, 8, seed=11)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(short, long))


def test_orbit_of_biseparable_preserves_the_cut():
    # local operators cannot entangle the factored qubit with the pair
    psi = build_biseparable(0.6, 0.8, 2)
    for v in slocc_orbit_sample(psi, 200, seed=21):
        assert v.values[1] <= 1e-9
        assert abs(v.values[0] - v.values[2]) <= 1e-9


def test_orbit_sample_accepts_numpy_integers():
    psi = ORBIT_STATES[3]
    want = [v.values for v in slocc_orbit_sample(psi, 3, seed=7)]
    for count, seed in ((np.int64(3), np.int64(7)), (np.uint8(3), np.uint64(7)), (np.int32(3), 7)):
        got = slocc_orbit_sample(psi, count, seed=seed)
        assert len(got) == 3
        assert all(np.array_equal(v.values, w) for v, w in zip(got, want))
    # seed + k runs on Python ints: a uint64 seed next to 2^64 does not wrap
    top = 2 ** 64 - 2
    got = slocc_orbit_sample(psi, 4, seed=np.uint64(top))
    want = slocc_orbit_sample(psi, 4, seed=top)
    assert all(np.array_equal(v.values, w.values) for v, w in zip(got, want))


def _replay_row_tensordot(psi, seed):
    # the same G applied one qubit at a time, for sizes where the dense G is too big
    factors, _ = orbit_factors_oracle(psi.n, seed, classify.DET_FLOOR)
    t = psi.amps.reshape([2] * psi.n)
    for q, f in enumerate(factors):
        t = np.moveaxis(np.tensordot(f, t, axes=([1], [q])), 0, q)
    phi = t.reshape(-1)
    return min_marginal_eigenvalues_oracle(phi / np.linalg.norm(phi))


ORBIT_STATES = {
    3: build_w([0.5, 0.3, 0.2]),
    4: build_ghz(4, 0.6),
    5: build_dicke(5, 2),
    6: build_generalized_dicke(6, 1, np.full(6, 6 ** -0.5)),
}


@pytest.mark.parametrize("n", sorted(ORBIT_STATES))
def test_orbit_sample_is_the_same_bits_in_any_batch(n):
    psi = ORBIT_STATES[n]
    seed = 1000 + n
    alone = [slocc_orbit_sample(psi, 1, seed=seed + k)[0].values for k in range(257)]
    for count in (4, 50, 257):
        run = slocc_orbit_sample(psi, count, seed=seed)
        assert all(np.array_equal(v.values, alone[k]) for k, v in enumerate(run))


def test_orbit_sample_is_the_same_bits_across_a_batch_boundary():
    psi = ORBIT_STATES[6]
    per_batch = classify._CHUNK_AMPLITUDES // psi.dim
    run = slocc_orbit_sample(psi, per_batch + 3, seed=5)
    for k in (0, per_batch - 2, per_batch - 1, per_batch, per_batch + 2):
        assert np.array_equal(run[k].values, slocc_orbit_sample(psi, 1, seed=5 + k)[0].values)
    # shifting the start moves the boundary to another sample
    shifted = slocc_orbit_sample(psi, per_batch + 3, seed=5 + 7)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(run[7:], shifted))


def test_orbit_sample_batches_at_and_past_2_64():
    psi = ORBIT_STATES[3]
    for seed in (2 ** 64, 2 ** 64 + 5):
        (v,) = slocc_orbit_sample(psi, 1, seed=seed)
        want, _ = orbit_row_kron_oracle(psi.amps, seed, classify.DET_FLOOR)
        assert np.max(np.abs(v.values - want)) <= 1e-12
    # the first batch crosses 2^64, the second starts past it
    psi = ORBIT_STATES[6]
    per_batch = classify._CHUNK_AMPLITUDES // psi.dim
    seed = 2 ** 64 - 2
    run = slocc_orbit_sample(psi, per_batch + 3, seed=seed)
    for k in (0, 1, 2, per_batch - 1, per_batch, per_batch + 2):
        assert np.array_equal(run[k].values, slocc_orbit_sample(psi, 1, seed=seed + k)[0].values)


def test_orbit_rows_match_kron_replay_with_frequent_redraws(monkeypatch):
    monkeypatch.setattr(classify, "DET_FLOOR", 0.5)
    for n in (3, 4, 5):
        psi = ORBIT_STATES[n]
        run = slocc_orbit_sample(psi, 40, seed=77)
        redraws = 0
        for k, v in enumerate(run):
            want, redrawn = orbit_row_kron_oracle(psi.amps, 77 + k, classify.DET_FLOOR)
            redraws += redrawn
            assert np.max(np.abs(v.values - want)) <= 1e-12
        assert 5 <= redraws < 40


def test_orbit_rows_match_kron_replay():
    for n in (3, 4, 5, 6):
        psi = ORBIT_STATES[n]
        for k, v in enumerate(slocc_orbit_sample(psi, 10, seed=31)):
            want, _ = orbit_row_kron_oracle(psi.amps, 31 + k, classify.DET_FLOOR)
            assert np.max(np.abs(v.values - want)) <= 1e-12


def test_derived_pcg64_states_equal_default_rng():
    states = list(classify._pcg64_states(0, 4096))
    assert all(state == np.random.default_rng(s).bit_generator.state for s, state in enumerate(states))
    # one and two 32-bit entropy words, and the last seed below the fallback bound
    for s in (2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1):
        assert list(classify._pcg64_states(s, 1)) == [np.random.default_rng(s).bit_generator.state]


# runs from 0, across the one-word/two-word entropy boundary, into the per-sample
# fallback, and wholly inside it
LOCAL_FACTOR_RUNS = [(0, 300), (2 ** 32 - 2, 5), (2 ** 64 - 3, 6), (2 ** 64, 3), (2 ** 64 + 5, 3)]


@pytest.mark.parametrize("start, count", LOCAL_FACTOR_RUNS)
def test_local_factors_are_the_per_sample_default_rng_draws(start, count):
    n = 3
    g = classify._local_factors(n, start, count)
    assert g.shape == (count, n, 2, 2)
    for k in range(count):  # no factor of these seeds falls below DET_FLOOR
        z = np.random.default_rng(start + k).standard_normal((n, 2, 2, 2))
        assert np.array_equal(g[k], z[:, 0] + 1j * z[:, 1])


@pytest.mark.parametrize("start", [start for start, _ in LOCAL_FACTOR_RUNS])
def test_local_factors_replay_redraws_from_default_rng(monkeypatch, start):
    monkeypatch.setattr(classify, "DET_FLOOR", 0.5)
    n = 3
    g = classify._local_factors(n, start, 40)
    redraws = 0
    for k, row in enumerate(g):
        factors, redrawn = orbit_factors_oracle(n, start + k, classify.DET_FLOOR)
        redraws += redrawn
        assert np.array_equal(row, np.array(factors))
    assert 3 <= redraws < 40


def test_local_factors_build_a_generator_only_to_replay_or_past_2_64(monkeypatch):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: built.append(seed) or default_rng(seed))
    classify._local_factors(3, 10, 200)
    assert built == []
    classify._local_factors(3, 2 ** 64 - 2, 4)
    assert built == [2 ** 64, 2 ** 64 + 1]
    built.clear()
    classify._local_factors(3, 2 ** 64 + 5, 2)
    assert built == [2 ** 64 + 5, 2 ** 64 + 6]
    monkeypatch.setattr(classify, "DET_FLOOR", 0.5)
    replayed = [s for s in range(10, 30) if orbit_factors_oracle(3, s, classify.DET_FLOOR)[1]]
    built.clear()
    classify._local_factors(3, 10, 20)
    assert replayed and built == replayed
    built.clear()
    classify._local_factors(3, 2 ** 64 + 3, 20)  # each seed past 2^64 builds one generator, replayed or not
    assert built == list(range(2 ** 64 + 3, 2 ** 64 + 23))
    assert any(orbit_factors_oracle(3, s, classify.DET_FLOOR)[1] for s in list(built))


def test_twelve_qubit_orbit_without_dense_operator():
    # the dense G alone would be 4096 x 4096 complex (256 MB) per sample
    psi = build_dicke(12, 3)
    start = time.perf_counter()
    run = slocc_orbit_sample(psi, 64, seed=9)
    assert time.perf_counter() - start < 10.0
    assert len(run) == 64
    for k in (0, 41):
        assert np.max(np.abs(run[k].values - _replay_row_tensordot(psi, 9 + k))) <= 1e-12


# ---------------------------------------------------------------- noisy discrimination


def test_noisy_w_total_and_noise_estimate():
    report = discriminate_noisy(build_noisy_w(0.2), "w")
    assert abs(report.total - 1.1) <= 1e-9
    assert abs(report.noise_estimate - 0.2) <= 1e-9
    assert report.evidence.slack > 0  # below the 43/34 bound


def test_noisy_ghz_total_is_pinned():
    for v2 in (0.0, 0.3, 0.9):
        report = discriminate_noisy(build_noisy_ghz(v2), "ghz")
        assert abs(report.total - 1.5) <= 1e-9
        assert report.noise_estimate is None


def test_noisy_w_edge_of_entangled_range():
    v1 = 9 / 17 - 1e-9
    report = discriminate_noisy(build_noisy_w(v1), "w")
    assert report.total < 43 / 34
    assert abs(report.total - 43 / 34) <= 1e-9


def test_noisy_totals_are_ordered():
    for v1, v2 in [(0.1, 0.1), (0.5, 0.3)]:
        w_total = discriminate_noisy(build_noisy_w(v1), "w").total
        g_total = discriminate_noisy(build_noisy_ghz(v2), "ghz").total
        assert g_total > w_total


# ---------------------------------------------------------------- analytic facets


@pytest.mark.parametrize("n", [3, 4, 6])
def test_eta_of_generalized_w_below_cap(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(10):
        a = rng.dirichlet(np.ones(n))
        if a.max() >= 0.5 - 1e-3:
            a = np.full(n, 1.0 / n)
        psi = build_w(a)
        assert abs(eta_indicator(psi) - (1 - 2 * a.max())) <= 1e-9


def test_eta_of_w_with_dominant_coefficient_is_zero():
    psi = build_w([0.6, 0.25, 0.15])
    assert abs(eta_indicator(psi)) <= 1e-9
    v = emps_vector(psi)
    assert abs(v.total() - 0.8) <= 1e-9  # 2 * (1 - 0.6)


@pytest.mark.parametrize("n,l", [(4, 1), (4, 3), (5, 2), (6, 3)])
def test_generalized_dicke_below_facet(n, l):
    rng = np.random.default_rng(700 + 10 * n + l)
    m = math.comb(n, l)
    for _ in range(10):
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c /= np.linalg.norm(c)
        v = emps_vector(build_generalized_dicke(n, l, c))
        assert v.total() <= min(l, n - l) + 1e-9


def test_verdicts_are_consistent_with_evidence():
    # the label's evidence rows must always back the verdict it carries
    rng = np.random.default_rng(900)
    states = [build_ghz(3, 0.7), build_w([0.4, 0.35, 0.25]), basis_state("110"),
              build_biseparable(0.8, 0.6, 1)]
    states += [random_pure_state(3, rng) for _ in range(30)]
    states += [random_biseparable_three_qubit(rng) for _ in range(10)]
    for psi in states:
        label = classify_three_qubit(psi)
        rows = {e.name: e for e in label.evidence}
        total = rows["w_facet_total"].value
        eta = rows["eta_indicator"].value
        if label.verdict is ClassVerdict.GHZ_CLASS:
            assert total > 1.0 + 1e-9
        else:
            assert total <= 1.0 + 1e-9
        if label.genuinely_entangled:
            assert total > 1.0 + 1e-9 or eta > 1e-9
        if label.verdict is ClassVerdict.BISEPARABLE:
            v = emps_vector(psi).values
            assert v[label.cut - 1] <= 1e-9
            others = [v[i] for i in range(3) if i != label.cut - 1]
            assert abs(others[0] - others[1]) <= 1e-9
        if label.verdict is ClassVerdict.FULLY_SEPARABLE:
            assert emps_vector(psi).values.max() <= 1e-9


def test_random_biseparable_has_zero_marginal_at_cut():
    rng = np.random.default_rng(800)
    for cut in (1, 2, 3):
        psi = random_biseparable_three_qubit(rng, cut=cut)
        v = emps_vector(psi).values
        assert v[cut - 1] <= 1e-12
        others = [v[i] for i in range(3) if i != cut - 1]
        assert abs(others[0] - others[1]) <= 1e-9


# ---------------------------------------------------------------- parameter types


@pytest.mark.parametrize("n, l", [(np.int64(4), np.int64(2)), (np.int32(3), np.uint8(1))])
def test_integer_builders_accept_numpy_integers(n, l):
    assert np.array_equal(build_ghz(n, 0.5).amps, build_ghz(int(n), 0.5).amps)
    assert np.array_equal(build_dicke(n, l).amps, build_dicke(int(n), int(l)).amps)
    m = math.comb(int(n), int(l))
    coeffs = np.full(m, 1 / math.sqrt(m))
    assert np.array_equal(
        build_generalized_dicke(n, l, coeffs).amps, build_generalized_dicke(int(n), int(l), coeffs).amps
    )


def test_build_state_does_not_read_a_builder_bug_as_a_wrong_type(monkeypatch):
    def broken(n, theta):
        raise TypeError("a bug inside the builder")

    monkeypatch.setitem(classify._BUILDERS, "ghz", (broken, ("n", "theta")))
    with pytest.raises(TypeError, match="a bug inside the builder"):
        build_state(StateBuilderSpec(family="ghz", params={"n": 3, "theta": 0.5}))


def test_random_biseparable_takes_a_numpy_integer_cut():
    drawn = random_biseparable_three_qubit(np.random.default_rng(0), cut=np.int64(2))
    assert np.array_equal(drawn.amps, random_biseparable_three_qubit(np.random.default_rng(0), cut=2).amps)


def test_biseparable_takes_complex_and_numpy_amplitudes():
    psi = build_biseparable(0.6j, np.float64(0.8), 1)
    assert np.array_equal(psi.amps, build_biseparable(np.complex128(0.6j), 0.8, 1).amps)
    assert psi.amps[0] == 0.6j and psi.amps[3] == 0.8


def test_w_coefficients_are_read_flat_like_generalized_dicke_ones():
    assert np.array_equal(build_w([[0.5, 0.5]]).amps, build_w([0.5, 0.5]).amps)
    built = build_state(StateBuilderSpec(family="w", params={"coeffs": [[0.5], [0.25], [0.25]]}))
    assert np.array_equal(built.amps, build_w([0.5, 0.25, 0.25]).amps)


# ---------------------------------------------------------------- 3-tangle ground truth

# The 3-tangle of a tau = 0 state computes to rounding noise, about 1e-16.
TAU_ZERO = 1e-12


def _orbit_states(amps, count, rng):
    """count states G amps / |G amps|, G a Kronecker product of three complex-Gaussian 2x2 factors."""
    states = []
    for _ in range(count):
        g = np.array([[1.0 + 0j]])
        for _ in range(3):
            g = np.kron(g, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        phi = g @ amps
        states.append(PureState(phi / np.linalg.norm(phi)))
    return states


def test_three_tangle_oracle_on_the_class_representatives():
    assert three_tangle(build_ghz(3, math.pi / 4).amps) == pytest.approx(1.0, abs=1e-15)
    assert three_tangle(build_dicke(3, 1).amps) == 0.0
    assert three_tangle(basis_state("000").amps) == 0.0


def test_no_zero_tangle_state_is_labelled_ghz_class():
    rng = np.random.default_rng(11)
    w = build_dicke(3, 1)
    assert emps_vector(w).total() == pytest.approx(1.0, abs=1e-15)  # W sits on the facet itself
    states = [w] + _orbit_states(w.amps, 300, rng)
    states += [build_w(rng.dirichlet(np.ones(3))) for _ in range(100)]  # total 1 where every a_i <= 1/2
    states += [random_biseparable_three_qubit(rng) for _ in range(200)]
    for _ in range(100):
        qubits = [random_pure_state(1, rng) for _ in range(3)]
        states.append(tensor_product(tensor_product(qubits[0], qubits[1]), qubits[2]))
    for psi in states:
        assert three_tangle(psi.amps) <= TAU_ZERO
        assert classify_three_qubit(psi).verdict is not ClassVerdict.GHZ_CLASS


def test_every_ghz_class_verdict_has_positive_tangle():
    rng = np.random.default_rng(7)
    haar = [random_pure_state(3, rng) for _ in range(2000)]
    ghz_orbit = _orbit_states(build_ghz(3, math.pi / 4).amps, 300, rng)
    assert all(three_tangle(psi.amps) > TAU_ZERO for psi in ghz_orbit)
    labelled = 0
    for psi in haar + ghz_orbit:
        if classify_three_qubit(psi).verdict is ClassVerdict.GHZ_CLASS:
            labelled += 1
            assert three_tangle(psi.amps) > TAU_ZERO
    assert labelled > 0
    # sqrt(1 - eps) W + sqrt(eps) |111>: tau = 16 sqrt(eps) ((1 - eps)/3)^(3/2), total 1 + 2 eps
    for eps in (0.1, 1e-2, 1e-4):
        amps = math.sqrt(1.0 - eps) * build_dicke(3, 1).amps
        amps[7] = math.sqrt(eps)
        psi = PureState(amps)
        assert three_tangle(psi.amps) == pytest.approx(16 * math.sqrt(eps) * ((1 - eps) / 3) ** 1.5, rel=1e-12)
        assert emps_vector(psi).total() == pytest.approx(1.0 + 2.0 * eps, rel=1e-9)
        assert classify_three_qubit(psi).verdict is ClassVerdict.GHZ_CLASS


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_tangle_table():
    # [[tau bin, states, share]] rows of the README's "How much the total certifies" table
    text = README.read_text()
    lines = text[text.index("| tau | states | labelled `ghz_class` |"):].splitlines()[2:]
    return [[c.strip() for c in line.strip("|").split("|")] for line in lines[:lines.index("")]]


def test_readme_tangle_table_is_what_the_haar_draw_gives():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((20_000, 8)) + 1j * rng.standard_normal((20_000, 8))
    amps = z / np.linalg.norm(z, axis=1)[:, None]
    tau = np.array([three_tangle(a) for a in amps])
    totals = emps_vectors(amps).sum(axis=1)
    labelled = totals > 1.0 + SLACK_TOL
    # the counting rule is the classifier's: on every counted state and the 1,000 uncounted ones nearest the facet
    near = np.flatnonzero(~labelled)[np.argsort(totals[~labelled])[-1000:]]
    for k in np.concatenate([np.flatnonzero(labelled), near]):
        verdict = classify_three_qubit(PureState(amps[k])).verdict
        assert (verdict is ClassVerdict.GHZ_CLASS) == labelled[k]
    bins = [("[0, 0.2)", tau < 0.2), ("[0.2, 0.4)", (0.2 <= tau) & (tau < 0.4)),
            ("[0.4, 0.6)", (0.4 <= tau) & (tau < 0.6)), ("[0.6, 0.8)", (0.6 <= tau) & (tau < 0.8)),
            ("[0.8, 1]", 0.8 <= tau), ("all", np.ones_like(labelled))]
    rows = [[name, str(int(mask.sum())), f"{100 * labelled[mask].mean():.1f}%"] for name, mask in bins]
    assert rows == _readme_tangle_table()
    assert int(labelled.sum()) == 1182 and "1,182 of the 20,000 states" in " ".join(README.read_text().split())
