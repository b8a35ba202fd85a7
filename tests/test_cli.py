import csv
import io
import json
import re
import shlex
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from empskit import cli
from empskit.qcore import state_to_dict
from empskit.classify import DET_FLOOR, build_dicke, build_ghz, build_noisy_w, build_w, slocc_orbit_sample

from oracles import orbit_row_kron_oracle


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_emps_ghz_builder(capsys):
    record = run_json(capsys, ["emps", "--builder", "ghz", "--n", "3", "--theta", "0.7853981634"])
    assert record["units"] == "E"
    assert np.allclose(record["emps"], [0.5, 0.5, 0.5], atol=1e-9)
    assert abs(record["total"] - 1.5) <= 1e-9
    assert record["polygon"]["satisfied"] is True


def test_classify_w_overlap_region(capsys):
    record = run_json(capsys, ["classify", "--builder", "w", "--coeffs", "0.34,0.33,0.33"])
    assert record["verdict"] == "W-or-GHZ region, genuinely entangled"
    assert abs(record["eta"] - 0.32) <= 1e-9
    assert record["genuinely_entangled"] is True
    names = {e["facet"] for e in record["evidence"]}
    assert {"w_facet_total", "eta_indicator"} <= names


def test_emps_round_trip_is_bit_identical(tmp_path, capsys):
    saved = tmp_path / "state.json"
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.run(
        ["emps", "--builder", "dicke", "--n", "4", "--l", "2",
         "--save-state", str(saved), "-o", str(out1)]
    ) == 0
    assert cli.run(["emps", "--state", str(saved), "-o", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("state_id")
    b.pop("state_id")
    assert a == b


def test_emps_accepts_density_matrix_file(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(state_to_dict(build_noisy_w(0.2))))
    record = run_json(capsys, ["emps", "--state", str(path)])
    assert abs(record["total"] - 1.1) <= 1e-9


def test_emps_accepts_builder_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"builder": "w", "params": {"coeffs": [0.4, 0.3, 0.3]}}))
    record = run_json(capsys, ["emps", "--state", str(path)])
    assert abs(record["total"] - 1.0) <= 1e-9


def test_polytope_point(capsys):
    record = run_json(capsys, ["polytope", "--point", "0.4,0.3,0.2", "--which", "w"])
    assert record["member"] is True
    slacks = {f["facet"]: f["slack"] for f in record["facets"]}
    assert abs(slacks["w_total"] - 0.1) <= 1e-12


def test_polytope_from_builder(capsys):
    record = run_json(
        capsys, ["polytope", "--builder", "ghz", "--n", "3", "--theta", "0.7853981634", "--which", "w"]
    )
    assert record["member"] is False


def test_orbit_csv_and_seed_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["orbit", "--builder", "w", "--coeffs", "0.34,0.33,0.33",
            "--samples", "8", "--format", "csv"]
    assert cli.run(base + ["--seed", "5", "-o", str(out1)]) == 0
    assert cli.run(base + ["--seed", "5", "-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    rows = list(csv.reader(io.StringIO(out1.read_text())))
    assert rows[0] == ["e1", "e2", "e3"]
    assert len(rows) == 9
    total = sum(float(x) for x in rows[1])
    assert total <= 1.0 + 1e-9


def test_csv_text_is_what_csv_writer_writes():
    header = ["parameter", "e1", "degenerate"]
    rows = [
        [0.0, -0.0, 1],
        [float("inf"), float("-inf"), 0],
        [float("nan"), 5e-324, -7],
        [0.30000000000000004, 1e22, 12345678901234567890],
        [0.1, 2.5e-17, 0],
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    assert cli._csv(header, iter(rows)) == buf.getvalue()
    assert cli._csv(header, []) == "parameter,e1,degenerate\r\n"


def test_readme_orbit_example_is_the_seed_contract(tmp_path):
    text = README.read_text()
    command = re.search(r"empskit (orbit [^\n]*\\\n[^\n]*)", text).group(1).replace("\\\n", " ")
    argv = command.split()
    out, prefix = tmp_path / "orbit.csv", tmp_path / "prefix.csv"
    argv[argv.index("-o") + 1] = str(out)
    assert cli.run(argv) == 0
    lines = out.read_bytes().split(b"\r\n")
    assert lines[0] == b"e1,e2,e3" and lines[-1] == b"" and len(lines) == 10_002
    seed, coeffs = int(argv[argv.index("--seed") + 1]), argv[argv.index("--coeffs") + 1]
    amps = build_w([float(c) for c in coeffs.split(",")]).amps
    for k in (0, 1, 9999):
        want, _ = orbit_row_kron_oracle(amps, seed + k, DET_FLOOR)
        assert np.max(np.abs(np.array(lines[1 + k].split(b","), dtype=float) - want)) <= 1e-12
    argv[argv.index("--samples") + 1], argv[argv.index("-o") + 1] = "100", str(prefix)
    assert cli.run(argv) == 0
    assert prefix.read_bytes() == b"\r\n".join(lines[:101]) + b"\r\n"
    contract = "Sample `k` draws its factors from its own generator, `numpy.random.default_rng(seed + k)`"
    assert contract in " ".join(text.split())


def test_orbit_csv_and_json_are_the_library_values(tmp_path, capsys):
    want = [v.values.tolist() for v in slocc_orbit_sample(build_dicke(5, 2), 20, seed=99)]
    argv = ["orbit", "--builder", "dicke", "--n", "5", "--l", "2", "--samples", "20", "--seed", "99"]
    out = tmp_path / "o.csv"
    assert cli.run(argv + ["--format", "csv", "-o", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["e1", "e2", "e3", "e4", "e5"]
    assert [[float(x) for x in row] for row in rows[1:]] == want
    assert run_json(capsys, argv + ["--format", "json"])["points"] == want


# from 2^64 - 2, two samples come from derived PCG64 states and two from default_rng;
# from 2^64, all four come from default_rng
@pytest.mark.parametrize("seed", [18446744073709551614, 18446744073709551616])
def test_orbit_seed_past_the_derived_states_matches_kron_replay(tmp_path, seed):
    out = tmp_path / "o.csv"
    argv = ["orbit", "--builder", "w", "--coeffs", "0.5,0.25,0.25", "--samples", "4",
            "--seed", str(seed), "--format", "csv", "-o", str(out)]
    assert cli.run(argv) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    assert len(rows) == 4
    psi = build_w([0.5, 0.25, 0.25])
    for k, row in enumerate(rows):
        want, _ = orbit_row_kron_oracle(psi.amps, seed + k, DET_FLOOR)
        assert np.max(np.abs(np.array(row, dtype=float) - want)) <= 1e-12


def test_orbit_env_seed_override(tmp_path, monkeypatch, capsys):
    argv = ["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "3"]
    monkeypatch.setenv("EMPSKIT_SEED", "123")
    env_record = run_json(capsys, argv)
    assert env_record["seed"] == 123
    monkeypatch.delenv("EMPSKIT_SEED")
    explicit = run_json(capsys, argv + ["--seed", "123"])
    assert explicit["points"] == env_record["points"]


def test_ising_models(capsys):
    plain = run_json(capsys, ["ising", "--model", "ising"])
    assert abs(plain["ground_energy"] + 3.5) <= 1e-9
    assert abs(plain["eta"]) <= 1e-9
    longrange = run_json(capsys, ["ising", "--model", "longrange"])
    assert longrange["eta"] > 1e-6
    assert longrange["entropy_criterion"] > 1e-6
    assert longrange["degenerate"] is False


def test_ising_spec_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"N": 3, "J": 1.0, "h": 1.0}))
    record = run_json(capsys, ["ising", "--spec", str(path)])
    assert abs(record["ground_energy"] + 2.0) <= 1e-9  # 2 bonds/4 + 3 spins/2


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.run(
        ["sweep", "--model", "ising", "--sites", "4", "--param", "h",
         "--values", "0.5,1.0", "--format", "csv", "-o", str(out)]
    ) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["parameter", "ground_energy", "gap", "eta_over_E",
                       "entropy_criterion", "degenerate"]
    assert len(rows) == 3
    assert float(rows[1][3]) <= 1e-9  # plain chain indicator stays zero


def test_sweep_range_json(capsys):
    record = run_json(
        capsys, ["sweep", "--model", "longrange", "--param", "h",
                 "--range", "1.0:2.0:3", "--format", "json"]
    )
    assert [r["parameter"] for r in record["rows"]] == [1.0, 1.5, 2.0]
    assert all(r["eta"] > 1e-6 for r in record["rows"])


def test_numeric_failure_exits_3(capsys, monkeypatch):
    # the solver hands back its top eigenvector as the lowest: the eigenpair check fails
    eigh = cli.sc.qcore._eigh

    def corrupted(matrix, vectors=False):
        w, v = eigh(matrix, vectors)
        return w, v if v is None else v[..., ::-1]

    monkeypatch.setattr(cli.sc.qcore, "_eigh", corrupted)
    code = cli.run(["ising", "--model", "longrange"])
    assert code == 3
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, energy",
    [(["--model", "longrange", "--J", "1e9"], -1e9 - 2.5), (["--model", "ising", "--sites", "4", "--h", "1e307"], -2e307)],
    ids=["J=1e9", "h=1e307"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_chain_at_a_large_coupling_scale_passes_its_relative_checks(capsys, argv, energy):
    # the eigenpair residual is read relative to the chain's sum of |coefficients|, and does not overflow
    assert run_json(capsys, ["ising", *argv])["ground_energy"] == pytest.approx(energy, rel=1e-12)


def test_generalized_dicke_builder(capsys):
    coeffs = ",".join(["0.5773502691896258"] * 3)  # 1/sqrt(3)
    record = run_json(
        capsys, ["emps", "--builder", "generalized_dicke", "--n", "3", "--l", "1",
                 "--coeffs", coeffs]
    )
    assert abs(record["total"] - 1.0) <= 1e-9


# `sweep --model longrange --range 0:2:5`, recorded from the row-by-row sweep
# (one fill, eigh and indicator pass per row) with numpy's OpenBLAS 0.3.31 build.
LONGRANGE_SWEEP_CSV = (
    b"parameter,ground_energy,gap,eta_over_E,entropy_criterion,degenerate\r\n"
    b"0.0,-10.028028772400813,1.7763568394002505e-15,0.9459687740296524,2.4554857549818898e-05,1\r\n"
    b"0.5,-10.10013776213974,0.05076885397808084,0.8566473714539595,0.0015193335522607487,0\r\n"
    b"1.0,-10.256056127482845,0.15681908445302994,0.7648604268880465,0.005704316960430056,0\r\n"
    b"1.5,-10.507109611613737,0.279159394423953,0.6723298825061292,0.0129364114415631,0\r\n"
    b"2.0,-10.866603282237904,0.45591417106508914,0.5818427294834285,0.023092131674142702,0\r\n"
)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_chain_table():
    # {N: [ground energy, gap, eta, entropy criterion] cells} of the README's 4-12-site table
    text = README.read_text()
    lines = text[text.index("| N | ground energy | gap | eta (E) | entropy criterion (bits) |"):].splitlines()[2:]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[:lines.index("")]]
    return {int(n): rest for n, *rest in cells}


def _as_shown(value, cell):
    # value printed at the digits of a README cell; a "< bound" cell stands when value is below the bound
    if cell.startswith("< "):
        return cell if abs(value) < float(cell[2:]) else repr(value)
    mantissa, exponent, _ = cell.partition("e")
    return f"{value:.{len(mantissa.partition('.')[2])}{'e' if exponent else 'f'}}"


def test_readme_chain_table_is_what_ising_prints(tmp_path, capsys):
    table = _readme_chain_table()
    assert sorted(table) == list(range(4, 13))
    shown = {}
    for n, cells in table.items():
        spec = tmp_path / f"tf{n}.json"
        spec.write_text(json.dumps({"N": n, "J": 1.0, "h": 0.5,
                                    "extra_terms": [[0.6, "I" * i + "X" + "I" * (n - 1 - i)] for i in range(n)]}))
        record = run_json(capsys, ["ising", "--spec", str(spec)])
        assert record["degenerate"] is False
        values = [record[k] for k in ("ground_energy", "gap", "eta", "entropy_criterion")]
        shown[n] = [_as_shown(v, c) for v, c in zip(values, cells)]
    assert shown == table


def test_readme_longrange_and_classify_numbers_are_what_the_cli_prints(capsys):
    text = " ".join(README.read_text().split())  # sentences wrap across lines
    j_h, eta, criterion = re.search(
        r"at `J = h = ([\d.]+)` the energy indicator is about `([\d.]+) E` and the entropy criterion about `([\d.]+)` bits",
        text,
    ).groups()
    record = run_json(capsys, ["ising", "--model", "longrange"])
    assert record["spec"]["J"] == record["spec"]["h"] == float(j_h)
    assert [_as_shown(record["eta"], eta), _as_shown(record["entropy_criterion"], criterion)] == [eta, criterion]
    one, two, command = re.search(
        r"\(eta = (\d+) - (\d+)\*max a_i for W coefficients\) empskit (classify [^#]*) #", text
    ).groups()
    argv = command.split()
    coeffs = [float(c) for c in argv[argv.index("--coeffs") + 1].split(",")]
    assert abs(run_json(capsys, argv)["eta"] - (int(one) - int(two) * max(coeffs))) <= 1e-12


def test_sweep_longrange_csv_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--model", "longrange", "--range", "0:2:5", "-o", str(out)]) == 0
    assert out.read_bytes() == LONGRANGE_SWEEP_CSV


def test_consecutive_runs_share_no_arguments(tmp_path, monkeypatch, capsys):
    # one parser serves every run; nothing parsed in one call may leak into the next
    monkeypatch.delenv("EMPSKIT_SEED", raising=False)
    orbit = ["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "2"]
    assert run_json(capsys, orbit + ["--seed", "7"])["seed"] == 7
    assert run_json(capsys, orbit)["seed"] == 42
    out = tmp_path / "w.json"
    assert cli.run(["polytope", "--point", "0.4,0.3,0.2", "--which", "w", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["polytope"] == "w"
    record = run_json(capsys, ["polytope", "--point", "0.4,0.3,0.2"])
    assert record["polytope"] == "ghz"
    assert record["point_id"] == "point(0.4,0.3,0.2)"
    record = run_json(capsys, ["emps", "--builder", "dicke", "--n", "4", "--l", "2"])
    assert record["state_id"] == "dicke(n=4, l=2)"
    monkeypatch.setenv("EMPSKIT_SEED", "9")
    assert run_json(capsys, orbit)["seed"] == 9
    assert cli.run(["emps", "--builder", "ghz", "--n", "3"]) == 2
    assert "--theta" in capsys.readouterr().err
    assert run_json(capsys, orbit + ["--seed", "3"])["seed"] == 3
    assert run_json(capsys, orbit)["seed"] == 9


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["emps", "--state", "s.json", "-o", "out.json", "--save-state", "saved.json"],
        ["classify", "--builder", "w", "--coeffs", "0.5,0.25,0.25"],
        ["polytope", "--point", "0.4,0.3,0.2", "--which", "w"],
        ["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "4", "--seed", "7", "--format", "csv"],
        ["ising", "--model", "longrange", "--J", "0.5"],
        ["sweep", "--spec", "c.json", "--param", "J", "--range", "0:1:3", "--format", "json"],
    ],
)
def test_subcommand_parser_reads_what_the_full_parser_reads(argv):
    # run hands a named subcommand's flags straight to its own parser
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    _, subparsers = cli._shared_parsers()
    assert vars(subparsers[argv[0]].parse_args(argv[1:])) == full


@pytest.mark.parametrize("argv, code", [(["emps", "-h"], 0), (["-h"], 0), ([], 2)])
def test_help_and_missing_command_match_the_full_parser(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == code
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("extra", [[], [[0.45, "YZZZZZZZZZZX"]]], ids=["real", "odd_y"])
def test_ising_on_twelve_site_spec_file(tmp_path, capsys, extra):
    field = [[0.6, "I" * i + "X" + "I" * (11 - i)] for i in range(12)]
    path = tmp_path / "chain12.json"
    path.write_text(json.dumps({"N": 12, "J": 1.0, "h": 0.5, "extra_terms": field + extra}))
    record = run_json(capsys, ["ising", "--spec", str(path)])
    assert record["spec"]["N"] == 12
    assert record["degenerate"] is False and record["gap"] > 0.1
    assert record["eta"] > 0.0 and record["entropy_criterion"] >= 0.0


# ---------------------------------------------------------------- input rules


def test_state_file_without_dim_infers_it(tmp_path, capsys):
    payload = state_to_dict(build_noisy_w(0.2))
    with_dim = tmp_path / "with.json"
    with_dim.write_text(json.dumps(payload))
    del payload["dim"]
    without = tmp_path / "without.json"
    without.write_text(json.dumps(payload))
    a = run_json(capsys, ["emps", "--state", str(with_dim)])
    b = run_json(capsys, ["emps", "--state", str(without)])
    assert a.pop("state_id") != b.pop("state_id") and a == b


@pytest.mark.parametrize(
    "argv, solved",
    [
        (["ising", "--model", "ising", "--sites", "4", "--h", "1e308"], []),
        (["sweep", "--model", "ising", "--sites", "4", "--values", "0.5,1e308"], []),
    ],
    ids=["ising", "sweep"],
)
@pytest.mark.filterwarnings("error")
def test_chain_whose_coefficients_overflow_exits_2(capsys, monkeypatch, argv, solved):
    # the sweep's second row's spec rejects h = 1e308 before the first row is solved
    rows = []
    solve = cli.sc._ground_states

    def counted(letters, table):
        rows.append(len(table))
        return solve(letters, table)

    monkeypatch.setattr(cli.sc, "_ground_states", counted)
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "J, h and extra_terms are too large: the sum of the chain's |coefficients| is not finite"
    assert captured.err == f"error: {message}\n"
    assert rows == solved


# ---------------------------------------------------------------- main() and sys.argv


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def _transverse_field_8(x):
    # the README's 8-site transverse-field chain with J = h = every X coefficient = x
    return {"N": 8, "J": x, "h": x, "extra_terms": [[x, "I" * i + "X" + "I" * (7 - i)] for i in range(8)]}


def _energy_per_unit(x, out):
    # the chain at x is x times the chain at 1, whose ground energy is -9.476100
    r = json.loads(out)
    assert r["degenerate"] is False and abs(r["ground_energy"] / x + 9.476100) <= 1e-6


def _every_qubit_at_one_half(out):
    # every qubit of the 12-qubit GHZ state at theta = pi/4 is maximally mixed
    r = json.loads(out)
    assert r["n"] == 12 and np.allclose(r["emps"], 0.5, atol=1e-12)


def _noisy_w_total(out):
    assert abs(json.loads(out)["total"] - 1.1) <= 1e-9


def _outside_the_w_polytope(out):
    assert json.loads(out)["member"] is False


def _orbit_csv_is_the_library_values(out):
    rows = _csv_rows(out)
    assert rows[0] == [f"e{i}" for i in range(1, 11)]
    want = [v.values.tolist() for v in slocc_orbit_sample(build_ghz(10, 0.6), 3, seed=42)]
    assert [[float(x) for x in row] for row in rows[1:]] == want


def _coefficient_one_is_the_preset(out):
    # scaling the long-range preset's extra terms by 1 gives the preset's row at h = 1
    rows = _csv_rows(out)
    assert [row[0] for row in rows[1:]] == ["0.0", "0.5", "1.0"]
    assert rows[3][1:] == _csv_rows(LONGRANGE_SWEEP_CSV.decode())[3][1:]


def _plain_chain_energies(out):
    # the diagonal 7-site chain at h = 1: 6 bonds at -J/4 and 7 fields at -1/2
    rows = json.loads(out)["rows"]
    assert [row["parameter"] for row in rows] == [0.5, 1.0, 1.5]
    for row in rows:
        assert row["ground_energy"] == pytest.approx(-1.5 * row["parameter"] - 3.5, abs=1e-12)
        assert row["eta"] == row["entropy_criterion"] == 0.0 and row["degenerate"] is False


def _odd_y_rows_are_solved(out):
    rows = _csv_rows(out)
    assert [row[0] for row in rows[1:]] == ["0.2", "0.9", "1.6"]
    assert all(row[-1] == "0" for row in rows[1:])


def _odd_y_at_coefficient_zero_is_the_plain_chain(out):
    # without its extra terms the 5-site chain has 4 bonds at -0.8/4 and 5 fields at -0.6/2
    rows = json.loads(out)["rows"]
    assert [row["parameter"] for row in rows] == [0.0, 0.5, 1.5]
    assert rows[0]["ground_energy"] == pytest.approx(-2.3, abs=1e-12)
    assert not any(row["degenerate"] for row in rows)


def _usage(command, out):
    assert out.startswith(f"usage: empskit {command} ")


def _no_solve(letters, table):
    raise AssertionError("a rejected command must not reach the eigensolver")


def _exit_2(name, command, message, payload=None):
    # a rejection row: exit 2 with message in stderr, where "{path}" stands for the input file's path
    return pytest.param(command, payload, 2, message, id=name)


_ODD_Y5 = {"N": 5, "J": 0.8, "h": 0.6, "extra_terms": [[0.7, "XYIII"], [0.4, "IXXII"]]}
_INF = float("inf")  # json writes it as Infinity
_GHZ3 = "--builder ghz --n 3 --theta 0.5"
_MIXED = {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}  # the maximally mixed qubit
_DIRECTORY = object()  # an input path that is a directory
_MISSING = object()  # an input path that names no file
_HUGE = "must be a finite number, got an integer past the float range"
_ECHO_10_400 = "1" + "0" * 17 + "..." + "0" * 19  # 10**400 as a message echoes it: 40 characters

# Each row is (command, input, exit code, check). The command is split as a shell would, and a leading
# EMPSKIT_SEED=value sets that variable for the run. The input is written to a file whose path goes last:
# JSON for a payload, as is for bytes; _DIRECTORY and _MISSING make that path a directory or no file.
# The check is a function of stdout, or a substring of stderr.
MAIN_ROWS = [
    pytest.param("emps --builder ghz --n 12 --theta 0.7853981633974483", None, 0,
                 _every_qubit_at_one_half, id="emps-ghz12"),
    pytest.param("orbit --builder ghz --n 10 --theta 0.6 --samples 3 --format csv", None, 0,
                 _orbit_csv_is_the_library_values, id="orbit-ghz10-csv"),
    pytest.param("sweep --model ising --sites 7 --param J --range 0.5:1.5:3 --format json", None, 0,
                 _plain_chain_energies, id="sweep-ising7-J"),
    pytest.param("sweep --model longrange --param coefficient --values 0,0.5,1", None, 0,
                 _coefficient_one_is_the_preset, id="sweep-longrange-coefficient"),
    pytest.param("sweep --param h --values 0.2,0.9,1.6 --spec", _ODD_Y5, 0,
                 _odd_y_rows_are_solved, id="sweep-odd-y-h"),
    pytest.param("sweep --param coefficient --values 0,0.5,1.5 --format json --spec", _ODD_Y5, 0,
                 _odd_y_at_coefficient_zero_is_the_plain_chain, id="sweep-odd-y-coefficient"),
    pytest.param("emps --builder noisy_w --v1 0.2", None, 0, _noisy_w_total, id="emps-noisy-w"),
    pytest.param("polytope --builder noisy_ghz --v2 0.5 --which w", None, 0,
                 _outside_the_w_polytope, id="polytope-noisy-ghz"),
    *(pytest.param("ising --spec", _transverse_field_8(x), 0, partial(_energy_per_unit, x), id=f"ising-tf8-at-{x}")
      for x in (1e-12, 1e-200, 1e200)),
    *(pytest.param(f"{command} -h", None, 0, partial(_usage, command), id=f"{command}-help")
      for command in ("emps", "classify", "polytope", "orbit", "ising", "sweep")),
    # ---------------------------------------------------------------- usage errors
    _exit_2("no-subcommand", "", "usage: empskit [-h]"),
    _exit_2("unknown-subcommand", "frobnicate", "invalid choice: 'frobnicate'"),
    # only orbit draws random numbers, so a seed anywhere else is a usage error
    *(_exit_2(f"{command}-seed={seed}", f"{command} {rest} --seed {seed}",
              f"empskit {command}: error: unrecognized arguments: --seed {seed}")
      for command, rest in (("ising", "--model ising --sites 3"), ("sweep", "--model ising --sites 3 --values 1"),
                            ("emps", _GHZ3), ("classify", _GHZ3), ("polytope", "--point 0.4,0.3,0.2"))
      for seed in ("-5", "5")),
    # ---------------------------------------------------------------- state flags
    _exit_2("emps-no-state", "emps", "provide a state via --state FILE or --builder NAME"),
    _exit_2("ghz-without-theta", "emps --builder ghz --n 3", "builder 'ghz' requires --theta"),
    _exit_2("coeffs-not-numbers", "emps --builder w --coeffs 0.5,x",
            "--coeffs must be a comma-separated list of numbers"),
    # a file and a preset for one input; the clash is found before the file is read
    _exit_2("state-and-builder", f"emps --state w.json {_GHZ3}",
            "--state and --builder each name a state; give one of them"),
    _exit_2("point-not-numbers", "polytope --point '0.1,,0.2;0.3'",
            "--point must be a comma-separated list of numbers"),
    _exit_2("point-empty", "polytope --point ''", "energy vector needs at least one qubit"),
    _exit_2("point-two-qubits", "polytope --point 0.1,0.2", "polytope facets are defined for n=3, got n=2"),
    _exit_2("classify-dicke4", "classify --builder dicke --n 4 --l 2", "classification needs a 3-qubit pure state"),
    _exit_2("orbit-noisy-w", "orbit --builder noisy_w --v1 0.2 --samples 2", "orbit sampling needs a pure state"),
    _exit_2("orbit-zero-samples", f"orbit {_GHZ3} --samples 0", "sample count must be >= 1, got 0"),
    _exit_2("orbit-negative-samples", f"orbit {_GHZ3} --samples -1", "sample count must be >= 1, got -1"),
    # 10^15 float64 rows need petabytes, more than any address space, so the allocation fails at once
    _exit_2("orbit-too-large", f"orbit {_GHZ3} --samples {10**15}", "error: Unable to allocate"),
    # past the address space, where numpy raises ValueError
    *(_exit_2(f"orbit-count-{name}", f"orbit {_GHZ3} --samples {count}",
              f"error: sample count {echo} is too large to hold in memory\n")
      for name, count, echo in (("10**19", 10**19, 10**19), ("10**400", 10**400, _ECHO_10_400))),
    _exit_2("orbit-negative-seed", f"orbit {_GHZ3} --samples 1 --seed -5",
            "--seed must be a non-negative integer, got -5"),
    _exit_2("orbit-env-seed-abc", f"EMPSKIT_SEED=abc orbit {_GHZ3} --samples 1",
            "EMPSKIT_SEED must be an integer, got 'abc'"),
    _exit_2("orbit-env-seed-negative", f"EMPSKIT_SEED=-3 orbit {_GHZ3} --samples 1",
            "EMPSKIT_SEED must be a non-negative integer, got '-3'"),
    # ---------------------------------------------------------------- chain flags
    _exit_2("ising-no-chain", "ising", "provide --spec FILE or --model ising|longrange"),
    _exit_2("sweep-no-chain", "sweep --values 1", "provide --spec FILE or --model ising|longrange"),
    _exit_2("spec-and-model", "ising --spec chain.json --model longrange",
            "--spec and --model each name a chain; give one of them"),
    _exit_2("longrange-four-sites", "ising --model longrange --sites 4", "--model longrange is defined on 5 sites"),
    _exit_2("ising-13-sites", "ising --model ising --sites 13", "site count N must be in 2..12, got 13"),
    # the indicator columns need at least three qubits
    _exit_2("ising-2-sites", "ising --model ising --sites 2", "energy indicator needs at least 3 qubits, got n=2"),
    _exit_2("sweep-2-sites", "sweep --model ising --sites 2 --param h --values 1.0",
            "energy indicator needs at least 3 qubits, got n=2"),
    _exit_2("coefficient-without-extra-terms", "sweep --model ising --sites 4 --param coefficient --values 1,2",
            '"coefficient" scales the extra terms, and the chain has none'),
    _exit_2("ising-h-nan", "ising --model ising --sites 4 --h nan", "h must be a finite number, got nan"),
    _exit_2("longrange-J-inf", "ising --model longrange --J inf", "J must be a finite number, got inf"),
    _exit_2("sweep-h-inf", "sweep --model ising --sites 4 --values 0.5,-inf", "h must be a finite number, got -inf"),
    _exit_2("sweep-coefficient-nan", "sweep --model longrange --param coefficient --values nan",
            "extra_terms coefficient of 'IXXXI' must be finite"),
    _exit_2("values-not-numbers", "sweep --model ising --values 0.5,one",
            "--values must be a comma-separated list of numbers"),
    *(_exit_2(f"values-{name}", f"sweep --model ising --param h --values '{values}'",
              f"--values must name at least one number, got {values!r}")
      for name, values in (("comma", ","), ("blanks", " , ,"))),
    _exit_2("sweep-no-values", "sweep --model ising --param h", "provide sweep values via --values or --range"),
    _exit_2("range-two-parts", "sweep --model ising --param h --range 1:2", "--range must look like start:stop:count"),
    *(_exit_2(f"range-{name}", f"sweep --model ising --range {value}", message) for name, value, message in (
        ("word", "0:two:3", "--range must look like start:stop:count"),
        ("float-count", "0:2:1.5", "--range must look like start:stop:count"),
        ("zero-count", "0:2:0", "--range count must be >= 1"),
        ("negative-count", "0:2:-3", "--range count must be >= 1"),
        ("infinite-stop", "0:inf:3", "--range needs finite start, stop and span, got 0.0:inf"),
        ("nan-start", "nan:1:3", "--range needs finite start, stop and span, got nan:1.0"),
        ("too-large", f"0:1:{10**15}", "error: Unable to allocate"),
        ("count-10**19", f"0:1:{10**19}", f"error: --range count {10**19} is too large to hold in memory\n"),
        ("count-10**400", f"0:1:{10**400}", f"error: --range count {_ECHO_10_400} is too large to hold in memory\n"),
    )),
    _exit_2("range-infinite-span", "sweep --model ising --range=-1e308:1e308:3",
            "--range needs finite start, stop and span, got -1e+308:1e+308"),
    # ---------------------------------------------------------------- input and output paths
    _exit_2("state-nonexistent", "emps --state /nonexistent/state.json",
            "state file /nonexistent/state.json cannot be read: [Errno 2]"),
    _exit_2("state-missing", "emps --state", "state file {path} cannot be read: [Errno 2]", _MISSING),
    _exit_2("spec-missing", "ising --spec", "spec file {path} cannot be read: [Errno 2]", _MISSING),
    _exit_2("state-directory", "emps --state", "state file {path} cannot be read", _DIRECTORY),
    _exit_2("spec-not-utf8", "ising --spec", "spec file {path} cannot be read", b"\xff\xfe{"),
    _exit_2("state-malformed", "emps --state", "state file {path} is not valid JSON", b'{"n": 3,'),
    _exit_2("ising-spec-malformed", "ising --spec", "spec file {path} is not valid JSON", b'{"n": 3,'),
    _exit_2("sweep-spec-malformed", "sweep --values 1 --spec", "spec file {path} is not valid JSON", b'{"n": 3,'),
    _exit_2("output-directory", f"emps {_GHZ3} -o", "Is a directory: '{path}'", _DIRECTORY),
    _exit_2("save-state-directory", f"emps {_GHZ3} --save-state", "Is a directory: '{path}'", _DIRECTORY),
    _exit_2("sweep-output-directory", "sweep --model ising --values 1 -o", "Is a directory: '{path}'", _DIRECTORY),
    # ---------------------------------------------------------------- state files
    _exit_2("unnormalized", "emps --state", "normalized", {"n": 1, "amps": [[1.0, 0.0], [1.0, 0.0]]}),
    _exit_2("dim-string", "emps --state", '"dim" must be an integer', {"dim": "4", "entries": [[0.25, 0.0]] * 16}),
    _exit_2("dim-float", "emps --state", '"dim" must be an integer', {"dim": 4.0, "entries": [[0.25, 0.0]] * 16}),
    _exit_2("dim-negative", "emps --state", "not dim^2 for dim=-2",
            {"dim": -2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}),
    _exit_2("n-float", "emps --state", '"n" must be an integer', {"n": 1.0, "amps": [[1.0, 0.0], [0.0, 0.0]]}),
    _exit_2("dim-1", "emps --state", "density matrix needs at least one qubit", {"dim": 1, "entries": [[1, 0]]}),
    _exit_2("amps-beside-N", "emps --state", "fields ['N'] outside ['amps', 'n']",
            {"n": 1, "amps": [[1, 0], [0, 0]], "N": 5}),
    _exit_2("entries-beside-note", "emps --state", "fields ['note'] outside", {**_MIXED, "note": "x"}),
    _exit_2("builder-beside-label", "emps --state", "fields ['label'] outside",
            {"builder": "dicke", "params": {"n": 3, "l": 1}, "label": "W"}),
    _exit_2("amps-and-entries", "emps --state", "fields ['entries'] outside ['amps', 'n']",
            {"amps": [[1, 0], [0, 0]], "entries": [[1, 0]]}),
    _exit_2("builder-and-amps", "emps --state", "fields ['amps'] outside",
            {"builder": "dicke", "params": {"n": 3, "l": 1}, "amps": [[1, 0], [0, 0]]}),
    _exit_2("no-state-form", "emps --state", 'state description needs "builder" or "amps" or "entries"',
            {"state": [[1, 0], [0, 0]]}),
    # in place of the 0.6 of a valid state: a string, a 401-digit integer, a numeric string and null
    *(_exit_2(f"{field}-{name}", "emps --state", f"{field} must be a list of [re, im] pairs",
              {field: [[part, 0], *rest]})
      for field, rest in (("amps", [[0.8, 0]]), ("entries", [[0, 0], [0, 0], [0.4, 0]]))
      for name, part in (("string", "x"), ("huge-integer", 10**400), ("numeric-string", "0.6"), ("null", None))),
    pytest.param("emps --state", {"dim": 2, "entries": [[0.5, _INF], [0, 0], [0, 0], [0.5, 0]]}, 2, None,
                 id="emps-infinite-imaginary-entry"),
    pytest.param("emps --state", {"amps": [[1, _INF], [0, 0]]}, 2, None, id="emps-infinite-imaginary-amp"),
    _exit_2("density-infinite-entry", "emps --state", "error: density matrix is not Hermitian: max |M - M^dag| = nan\n",
            {"dim": 2, "entries": [[_INF, 0], [0, 0], [0, 0], [0, 0]]}),
    _exit_2("density-past-the-float-range", "emps --state", "error: density matrix trace is (inf+0j), expected 1\n",
            {"dim": 2, "entries": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}),
    _exit_2("classify-mixed", "classify --state", "classification needs a pure state",
            state_to_dict(build_noisy_w(0.2))),
    _exit_2("orbit-mixed", "orbit --samples 2 --state", "orbit sampling needs a pure state", _MIXED),
    _exit_2("builder-without-params", "emps --state", "missing parameters ['n', 'theta']", {"builder": "ghz"}),
    *(_exit_2(f"builder-bool-{name}", "emps --state", f"builder parameters violate: {message}",
              {"builder": family, "params": params})
      for name, family, params, message in (
          ("l", "dicke", {"n": 3, "l": True}, "1 <= l <= n-1"),
          ("position", "biseparable", {"alpha": 0.6, "beta": 0.8, "position": True}, "position in"),
          ("v1", "noisy_w", {"v1": True}, "v1 in [0, 1]"),
          ("n", "ghz", {"n": True, "theta": 0.5}, "2 <= n <= 12"),
      )),
    *(_exit_2(f"builder-{name}", "emps --state", f"family {family!r}", {"builder": family, "params": params})
      for name, family, params in (
          ("params-list", "ghz", [1, 2]),
          ("theta-string", "ghz", {"n": 3, "theta": "x"}),
          ("coeffs-string", "w", {"coeffs": "abc"}),
          ("coeffs-strings", "w", {"coeffs": ["0.5", "0.5", "0"]}),
      )),
    # ---------------------------------------------------------------- chain spec files
    *(_exit_2(f"ising-spec-{name}", "ising --spec", message, payload) for name, payload, message in (
        ("N-string", {"N": "abc"}, "N, J and h must be numbers"),
        ("N-null", {"N": None}, "N, J and h must be numbers"),
        ("J-string", {"J": "x"}, "N, J and h must be numbers"),
        ("N-float", {"N": 4.7}, "N must be an integer"),
        ("coefficient-nan", {"N": 3, "extra_terms": [[float("nan"), "XXI"]]},
         "extra_terms coefficient of 'XXI' must be finite, got nan"),
        ("h-huge", {"N": 3, "h": -(10**400)}, f"error: h {_HUGE}\n"),
        ("N-1e300", {"N": 1e300},
         "error: site count N must be in 2..12, got 100000000000000005...6386865459400540160\n"),
    )),
    *(_exit_2(f"{command}-spec-{name}", f"{command} {flags}--spec", message, payload)
      for command, flags in (("ising", ""), ("sweep", "--values 1.0 "))
      for name, payload, message in (
          ("N-numeric-string", {"N": "4"}, "N, J and h must be numbers"),
          ("J-numeric-string", {"J": "1.5"}, "N, J and h must be numbers"),
          ("h-bool", {"h": True}, "N, J and h must be numbers"),
          ("J-huge", {"N": 3, "J": 10**400}, f"error: J {_HUGE}\n"),
          ("unknown-field", {"N": 3, "extra": []}, "spin chain spec has fields ['extra'] outside"),
          ("bool-coefficient", {"N": 3, "extra_terms": [[True, "ZZI"]]}, "extra_terms must be"),
      )),
]


@pytest.mark.parametrize("command, payload, code, check", MAIN_ROWS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_reads_sys_argv_and_exits_with_the_contract_code(
        tmp_path, monkeypatch, capsys, command, payload, code, check):
    # the console script's path: main() -> run(None) -> sys.argv
    monkeypatch.delenv("EMPSKIT_SEED", raising=False)
    argv = shlex.split(command)
    if argv and argv[0].startswith("EMPSKIT_SEED="):
        monkeypatch.setenv("EMPSKIT_SEED", argv.pop(0).partition("=")[2])
    path = tmp_path / "input.json"
    if payload is not None:
        if payload is _DIRECTORY:
            path.mkdir()
        elif isinstance(payload, bytes):
            path.write_bytes(payload)
        elif payload is not _MISSING:
            path.write_text(json.dumps(payload))
        argv.append(str(path))
    if code and "-o" not in argv:
        # every input is checked before a chain is solved; only writing the result comes after
        monkeypatch.setattr(cli.sc, "_ground_states", _no_solve)
    monkeypatch.setattr(sys, "argv", ["empskit", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == code, captured.err
    if code:
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(("error: ", "usage: empskit"))
    if isinstance(check, str):
        assert check.replace("{path}", str(path)) in captured.err
    elif check is not None:
        check(captured.out)
