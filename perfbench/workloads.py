"""The four benchmark workloads: seeded inputs, the op cycle, and reference checks.

A workload is an endless sequence of cycles; cycle k is a fixed list of op
kinds whose inputs are drawn from `default_rng([seed, 1, k])` (state-files-cli
reuses the files it writes at set-up), so the mix of kinds and sizes never
depends on the seed and only the values do. Each cycle has an odd number of
ops, so the median op falls inside one kind's latency mode instead of on the
edge between two.

Every check returns None when the op's output matches the numpy reference
in reference.py, or a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import reference as ref

EMPS_ATOL = 1e-9
CHAIN_ATOL = 1e-9
INDICATOR_ATOL = 1e-7


@dataclass
class Op:
    kind: str  # key of ops.CALLS
    payload: object  # amplitude vector for "haar", argv for "cli"
    items: int
    check: Callable[[object], Optional[str]]
    output: Optional[Path] = None  # file the op writes; removed before it runs


def cycle_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, k])


def setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def haar_amps(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


def _fmt(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _compare(name: str, got, want, atol: float) -> Optional[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= atol:
        return f"{name}: off by {err:.3e} (tolerance {atol:.0e})"
    return None


def _read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _exit_code(rc, want: int) -> Optional[str]:
    return None if rc == want else f"exit code {rc}, expected {want}"


class Workload:
    name = ""
    why = ""
    # Fixed per workload: a high percentile that leaves well over 10 samples beyond
    # it at seed speed and that repeats within a tenth over ten seeds.
    tail_pct = 99.0
    traced_cycles = 1  # fixed work for the traced run, so its call counts repeat exactly

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, k: int) -> List[Op]:
        raise NotImplementedError

    def mix(self) -> dict:
        raise NotImplementedError


class HaarPolygon(Workload):
    name = "haar-polygon"
    why = "polygon law on Haar-random pure states, n=3..12, through the library API"
    # n=12 twice: an odd cycle, weighted towards the 12-qubit cap.
    SIZES = tuple(range(3, 13)) + (12,)
    tail_pct = 99.0
    traced_cycles = 800

    def cycle(self, k):
        rng = cycle_rng(self.seed, k)
        ops = []
        for n in self.SIZES:
            amps = haar_amps(rng, n)
            ops.append(Op("haar", amps, 1, partial(self._check, amps)))
        return ops

    @staticmethod
    def _check(amps, out):
        values, report, eta = out
        want = ref.emps_of_pure(amps)
        bad = _compare("emps", values, want, EMPS_ATOL)
        if bad:
            return bad
        if not report.satisfied:
            return f"polygon law reported violated on a pure state (slack {report.worst_slack:.3e})"
        bad = _compare("worst_slack", report.worst_slack, ref.worst_slack(want), 4 * EMPS_ATOL)
        if bad:
            return bad
        return _compare("eta_indicator - worst_slack", eta, report.worst_slack, 1e-12)

    def mix(self):
        return {"qubits_per_cycle": list(self.SIZES), "items": "states"}


class OrbitCli(Workload):
    name = "orbit-cli"
    why = "SLOCC orbit sampling through `empskit orbit` CSV output, W/GHZ/Dicke families, n=3..6"
    SAMPLES = 50
    FAMILIES = (
        [("w", n) for n in range(3, 7)]
        + [("ghz", n) for n in range(3, 7)]
        + [("dicke", n) for n in range(3, 7)]
        + [("generalized_dicke", n) for n in range(4, 7)]
    )
    tail_pct = 98.0
    traced_cycles = 20

    def cycle(self, k):
        rng = cycle_rng(self.seed, k)
        ops = []
        for i, (family, n) in enumerate(self.FAMILIES):
            flags, amps = self._family_args(rng, family, n)
            seed = int(rng.integers(0, 2 ** 31))
            replay = (0, int(rng.integers(1, self.SAMPLES)))
            out = self.workdir / f"orbit-{i}.csv"
            argv = ["orbit", "--builder", family, *flags, "--samples", str(self.SAMPLES),
                    "--seed", str(seed), "--format", "csv", "-o", str(out)]
            ops.append(Op("cli", argv, self.SAMPLES, partial(self._check, out, amps, n, seed, replay), out))
        return ops

    @staticmethod
    def _family_args(rng, family, n):
        if family == "w":
            a = rng.dirichlet(np.ones(n))
            return ["--coeffs", _fmt(a)], ref.w_state(a)
        if family == "ghz":
            theta = float(rng.uniform(0.1, np.pi / 4))
            return ["--n", str(n), "--theta", repr(theta)], ref.ghz_state(n, theta)
        l = int(rng.integers(1, n))
        if family == "dicke":
            return ["--n", str(n), "--l", str(l)], ref.dicke_state(n, l)
        c = rng.uniform(0.2, 1.0, len(ref.weight_indices(n, l)))
        c /= np.linalg.norm(c)
        return ["--n", str(n), "--l", str(l), "--coeffs", _fmt(c)], ref.dicke_state(n, l, c)

    def _check(self, out, amps, n, seed, replay, rc):
        bad = _exit_code(rc, 0)
        if bad:
            return bad
        rows = _read_csv(out)
        if rows[0] != [f"e{i}" for i in range(1, n + 1)]:
            return f"orbit CSV header {rows[0]}"
        points = np.array(rows[1:], dtype=float)
        if points.shape != (self.SAMPLES, n):
            return f"orbit CSV has shape {points.shape}, expected {(self.SAMPLES, n)}"
        if points.min() < 0.0 or points.max() > 0.5:
            return "orbit energies outside [0, 1/2]"
        if np.min(points.sum(axis=1)[:, None] - 2.0 * points) < -EMPS_ATOL:
            return "orbit sample violates the polygon law"
        for k in replay:
            bad = _compare(f"orbit row {k}", points[k], ref.orbit_row(amps, n, seed, k), EMPS_ATOL)
            if bad:
                return bad
        return None

    def mix(self):
        return {"families_per_cycle": [f"{f}:n={n}" for f, n in self.FAMILIES],
                "samples_per_op": self.SAMPLES, "items": "orbit samples"}


LONG_RANGE_TERMS = ((4.0, "IXXXI"), (3.0, "XIXXX"), (3.0, "XXIXX"))


class ChainSweep(Workload):
    name = "chain-sweep"
    why = "dense spin-chain ground states through `empskit sweep`: transverse-field N=4..6 and the long-range preset"
    # (chain, h values per op): N=6 rows dominate the cost, so they go one per op.
    CYCLE = (("tf4", 3), ("longrange", 3), ("tf5", 3), ("tf6", 1), ("tf6", 1))
    tail_pct = 85.0
    traced_cycles = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = setup_rng(seed)
        self.chains = {"longrange": (5, 1.0, LONG_RANGE_TERMS, None)}
        for N in (4, 5, 6):
            J = float(rng.uniform(0.5, 1.5))
            terms = tuple((float(g), "I" * i + "X" + "I" * (N - 1 - i))
                          for i, g in enumerate(rng.uniform(0.3, 1.0, N)))
            spec = workdir / f"chain-tf{N}.json"
            spec.write_text(json.dumps({"N": N, "J": J, "h": 1.0, "extra_terms": [list(t) for t in terms]}))
            self.chains[f"tf{N}"] = (N, J, terms, spec)

    def cycle(self, k):
        rng = cycle_rng(self.seed, k)
        ops = []
        for i, (chain, count) in enumerate(self.CYCLE):
            N, J, terms, spec = self.chains[chain]
            hs = [float(h) for h in rng.uniform(0.2, 2.0, count)]
            out = self.workdir / f"sweep-{i}.csv"
            source = ["--model", "longrange"] if spec is None else ["--spec", str(spec)]
            argv = ["sweep", *source, "--param", "h", "--values", _fmt(hs), "--format", "csv", "-o", str(out)]
            ops.append(Op("cli", argv, count, partial(self._check, out, N, J, terms, hs), out))
        return ops

    @staticmethod
    def _check(out, N, J, terms, hs, rc):
        bad = _exit_code(rc, 0)
        if bad:
            return bad
        rows = _read_csv(out)
        if rows[0] != ["parameter", "ground_energy", "gap", "eta_over_E", "entropy_criterion", "degenerate"]:
            return f"sweep CSV header {rows[0]}"
        if len(rows) != len(hs) + 1:
            return f"sweep CSV has {len(rows) - 1} rows, expected {len(hs)}"
        for h, row in zip(hs, rows[1:]):
            param, energy, gap, eta, entropy = (float(x) for x in row[:5])
            degenerate = row[5] == "1"
            if param != h:
                return f"sweep row parameter {param!r}, expected {h!r}"
            e0, ref_gap, vec = ref.chain_ground(N, J, h, terms)
            bad = (_compare(f"ground energy at h={h}", energy, e0, CHAIN_ATOL * max(1.0, abs(e0)))
                   or _compare(f"gap at h={h}", gap, ref_gap, 10 * CHAIN_ATOL))
            if bad:
                return bad
            if degenerate != (gap < ref.DEGENERACY_GAP_TOL):
                return f"degenerate flag {degenerate} inconsistent with gap {gap:.3e}"
            if degenerate:
                continue
            bad = (_compare(f"eta at h={h}", eta, ref.worst_slack(ref.emps_of_pure(vec)), INDICATOR_ATOL)
                   or _compare(f"entropy criterion at h={h}", entropy, ref.entropy_criterion(vec), INDICATOR_ATOL))
            if bad:
                return bad
        return None

    def mix(self):
        return {"chains_per_cycle": [f"{c}x{n}" for c, n in self.CYCLE],
                "chains": {c: {"N": N, "J": J, "terms": [list(t) for t in terms]}
                           for c, (N, J, terms, _) in self.chains.items()},
                "items": "sweep rows"}


class StateFilesCli(Workload):
    name = "state-files-cli"
    why = "many light `empskit emps/classify/polytope` calls on JSON state files, 3 of 19 invalid (must exit 2)"
    tail_pct = 97.0
    traced_cycles = 50
    # (command, file, extra flags, expected exit code)
    CYCLE = (
        ("emps", "amps2", (), 0),
        ("emps", "amps3", (), 0),
        ("classify", "amps3", (), 0),
        ("polytope", "amps3", ("--which", "ghz"), 0),
        ("emps", "amps4", (), 0),
        ("emps", "amps6", (), 0),
        ("emps", "amps8", (), 0),
        ("emps", "amps10", (), 0),
        ("emps", "rho4", (), 0),
        ("emps", "rho8", (), 0),
        ("polytope", "rho8", ("--which", "w"), 0),
        ("emps", "rho16", (), 0),
        ("emps", "rho32", (), 0),
        ("emps", "noisy_w", (), 0),
        ("polytope", "noisy_w", ("--which", "w"), 0),
        ("emps", "noisy_ghz", (), 0),
        ("emps", "non_hermitian8", (), 2),
        ("emps", "negative_eig8", (), 2),
        ("emps", "trace_off8", (), 2),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = setup_rng(seed)
        self.files = {}
        self.want = {}  # reference emps per valid file
        for n in (2, 3, 4, 6, 8, 10):
            amps = haar_amps(rng, n)
            self._write(f"amps{n}", {"n": n, "amps": _pairs(amps)}, ref.emps_of_pure(amps))
        for d in (4, 8, 16, 32):
            rho = _random_density(rng, d)
            self._write(f"rho{d}", {"dim": d, "entries": _pairs(rho)}, ref.emps_of_mixed(rho))
        v1, v2 = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 1.0))
        self._write("noisy_w", {"builder": "noisy_w", "params": {"v1": v1}},
                    ref.emps_of_mixed(ref.noisy(ref.dicke_state(3, 1), v1)))
        self._write("noisy_ghz", {"builder": "noisy_ghz", "params": {"v2": v2}},
                    ref.emps_of_mixed(ref.noisy(ref.ghz_state(3, np.pi / 4), v2)))
        rho = _random_density(rng, 8)
        skew = rho.copy()
        skew[0, 1] += 1e-3
        self._write("non_hermitian8", {"dim": 8, "entries": _pairs(skew)}, None)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        lam = rng.uniform(0.05, 1.0, 8)
        lam[0] = -0.05
        neg = (u * (lam / lam.sum())) @ u.conj().T
        self._write("negative_eig8", {"dim": 8, "entries": _pairs(0.5 * (neg + neg.conj().T))}, None)
        self._write("trace_off8", {"dim": 8, "entries": _pairs(1.1 * rho)}, None)

    def _write(self, key, payload, want):
        path = self.workdir / f"state-{key}.json"
        path.write_text(json.dumps(payload))
        self.files[key] = path
        self.want[key] = want

    def cycle(self, k):
        ops = []
        for i, (command, key, flags, code) in enumerate(self.CYCLE):
            out = self.workdir / f"out-{i}.json"
            argv = [command, "--state", str(self.files[key]), *flags, "-o", str(out)]
            ops.append(Op("cli", argv, 1, partial(self._check, out, command, key, flags, code), out))
        return ops

    def _check(self, out, command, key, flags, code, rc):
        bad = _exit_code(rc, code)
        if bad or code != 0:
            return bad
        record = json.loads(out.read_text())
        want = self.want[key]
        bad = _compare("emps", record["emps"], want, EMPS_ATOL)
        if bad:
            return bad
        total = float(want.sum())
        slack = ref.worst_slack(want)
        if command == "emps":
            bad = _compare("total", record["total"], total, 4 * EMPS_ATOL)
            if not bad and want.size >= 3:
                bad = _compare("eta", record["eta"], slack, 4 * EMPS_ATOL)
            if not bad and key.startswith("amps") and not record["polygon"]["satisfied"]:
                bad = "polygon law reported violated on a pure state"
            return bad
        if command == "classify":
            verdict = "ghz_class" if total > 1.0 + 1e-9 else "undetermined"
            if record["verdict_code"] != verdict:
                return f"verdict {record['verdict_code']}, expected {verdict} (total {total:.6f})"
            return _compare("eta", record["eta"], slack, 4 * EMPS_ATOL)
        slacks = {f"nonneg_e{i + 1}": want[i] for i in range(3)}
        slacks.update({f"cap_e{i + 1}": 0.5 - want[i] for i in range(3)})
        slacks.update({f"polygon_e{i + 1}": total - 2.0 * want[i] for i in range(3)})
        if flags[-1] == "w":
            slacks["w_total"] = 1.0 - total
        got = {f["facet"]: f["slack"] for f in record["facets"]}
        if set(got) != set(slacks):
            return f"polytope facets {sorted(got)}, expected {sorted(slacks)}"
        bad = _compare("facet slacks", [got[f] for f in slacks], list(slacks.values()), 4 * EMPS_ATOL)
        if not bad and record["member"] != all(s >= -1e-9 for s in slacks.values()):
            bad = f"polytope member flag {record['member']} inconsistent with the facet slacks"
        return bad

    def mix(self):
        return {"ops_per_cycle": [f"{c} {k}" + (" -> exit 2" if code else "") for c, k, _, code in self.CYCLE],
                "items": "CLI invocations"}


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in flat]


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


WORKLOADS = {w.name: w for w in (HaarPolygon, OrbitCli, ChainSweep, StateFilesCli)}
