"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def kit():
    return ops.Kit()


def _inputs(workload, k):
    """A cycle's inputs with the per-run work directory masked out."""
    out = []
    for op in workload.cycle(k):
        if op.kind == "cli":
            out.append([a.replace(str(workload.workdir), "<work>") for a in op.payload])
        else:
            out.append(op.payload.tolist())
    return out


def _files(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b, c = (WORKLOADS[name](seed, d) for seed, d in zip((7, 7, 8), dirs))
    assert _inputs(a, 3) == _inputs(b, 3)
    assert _files(dirs[0]) == _files(dirs[1])
    assert _inputs(a, 3) != _inputs(c, 3) or _files(dirs[0]) != _files(dirs[2])
    assert _inputs(a, 3) != _inputs(a, 4) or name == "state-files-cli"
    assert len(a.cycle(0)) % 2 == 1


def _one_cycle(workload, kit):
    tally = run.Tally()
    run.run_ops(workload, kit, [0], tally, deadline=0.0)
    return tally


def test_seed_code_passes_every_check(kit, tmp_path):
    for name in ("haar-polygon", "state-files-cli"):
        workload = WORKLOADS[name](1, tmp_path)
        tally = _one_cycle(workload, kit)
        assert tally.failed == 0 and tally.attempted == len(workload.cycle(0))


def test_a_perturbed_emps_value_is_caught(kit, tmp_path, monkeypatch):
    original = kit.emps.emps_vector

    def perturbed(state):
        v = original(state)
        values = v.values.copy()
        values[-1] += 1e-6
        return type(v)(n=v.n, values=values)

    monkeypatch.setattr(kit.emps, "emps_vector", perturbed)
    workload = WORKLOADS["haar-polygon"](1, tmp_path)
    tally = _one_cycle(workload, kit)
    assert tally.failed == tally.attempted == len(workload.cycle(0))


def test_wrongly_accepted_invalid_files_are_caught(kit, tmp_path, monkeypatch):
    for attr in ("HERMITICITY_ATOL", "TRACE_ATOL"):
        monkeypatch.setattr(kit.qcore, attr, 1.0)
    monkeypatch.setattr(kit.qcore, "EIGENVALUE_FLOOR", -1.0)
    workload = WORKLOADS["state-files-cli"](1, tmp_path)
    tally = _one_cycle(workload, kit)
    invalid = sum(1 for *_, code in workload.CYCLE if code == 2)
    assert invalid == 3
    assert tally.failed == invalid


def test_orbit_rows_must_follow_the_seed_contract(kit, tmp_path, monkeypatch):
    original = kit.classify.slocc_orbit_sample
    monkeypatch.setattr(kit.classify, "slocc_orbit_sample",
                        lambda psi, count, seed=42: original(psi, count, seed=seed + 1))
    workload = WORKLOADS["orbit-cli"](1, tmp_path)
    tally = _one_cycle(workload, kit)
    assert tally.failed == tally.attempted == len(workload.cycle(0))


def test_latencies_scale_by_the_kernel_time_in_effect():
    tally = run.Tally()
    for seconds, kernel in ((0.010, run.speed.REFERENCE_S), (0.020, 2 * run.speed.REFERENCE_S)):
        tally._kernel = kernel
        tally.record(seconds)
    tally.items = 2
    assert tally.scaled() == pytest.approx([0.010, 0.010])
    assert tally.items_per_s() == pytest.approx(100.0)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("C", 5.0, 9.0, 0),
        ("B", 6.0, 8.0, 2),
        ("C", 6.5, 7.5, 3),  # C inside C: busy counts the outer one only
    ]
    stats = tracing.layer_stats(spans)
    assert stats["A"] == (1, 10.0, 3.0)
    assert stats["B"] == (2, 5.0, 4.0)
    assert stats["C"] == (2, 4.0, 3.0)
    assert sum(s[2] for s in stats.values()) == pytest.approx(10.0)


def test_wrappers_bind_everywhere_and_come_off(kit):
    assert not tracing.any_installed()
    pure_state = kit.qcore.PureState
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert tracing.any_installed()
        assert kit.qcore.PureState is pure_state
        assert kit.cli.emps_vector is kit.emps.emps_vector is sys.modules["empskit"].emps_vector
        assert kit.spinchain.reduced_density_matrix is kit.qcore.reduced_density_matrix
        amps = np.zeros(8, dtype=complex)
        amps[[1, 2, 4]] = 3 ** -0.5
        tracer.call("bench.op", ops.call_haar, kit, amps)
    assert not tracing.any_installed()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bench.op" and "qcore.PureState.__init__" in names
    stats = tracing.layer_stats(tracer.spans)
    assert stats["emps.emps_vector"][0] == 1
    assert sum(s[2] for s in stats.values()) == pytest.approx(stats["bench.op"][1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "haar-polygon", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
