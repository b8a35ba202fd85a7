import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from empskit import cli
from empskit.qcore import state_to_dict
from empskit.classify import DET_FLOOR, build_dicke, build_noisy_w, build_w, slocc_orbit_sample

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


def test_emps_rejects_unnormalized_state_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "amps": [[1.0, 0.0], [1.0, 0.0]]}))
    code = cli.run(["emps", "--state", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "normalized" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"dim": "4", "entries": [[0.25, 0.0]] * 16}, '"dim" must be an integer'),
        ({"dim": 4.0, "entries": [[0.25, 0.0]] * 16}, '"dim" must be an integer'),
        ({"dim": -2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}, "not dim^2 for dim=-2"),
        ({"n": 1.0, "amps": [[1.0, 0.0], [0.0, 0.0]]}, '"n" must be an integer'),
        ({"dim": 1, "entries": [[1, 0]]}, "density matrix needs at least one qubit"),
    ],
)
def test_emps_rejects_bad_state_size_exits_2(tmp_path, capsys, payload, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["emps", "--state", str(path)]) == 2
    assert message in capsys.readouterr().err


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


def test_missing_state_and_missing_file(capsys):
    assert cli.run(["emps"]) == 2
    assert "provide a state" in capsys.readouterr().err
    assert cli.run(["emps", "--state", "/nonexistent/state.json"]) == 2


def test_builder_missing_parameter(capsys):
    assert cli.run(["emps", "--builder", "ghz", "--n", "3"]) == 2
    assert "--theta" in capsys.readouterr().err


def test_invalid_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


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


def test_orbit_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("EMPSKIT_SEED", "abc")
    code = cli.run(["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "1"])
    assert code == 2
    assert "EMPSKIT_SEED" in capsys.readouterr().err


def test_orbit_negative_seed_flag_exits_2(monkeypatch, capsys):
    monkeypatch.delenv("EMPSKIT_SEED", raising=False)
    code = cli.run(["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "1", "--seed", "-5"])
    assert code == 2
    assert "--seed must be a non-negative integer, got -5" in capsys.readouterr().err


def test_orbit_negative_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("EMPSKIT_SEED", "-3")
    code = cli.run(["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "1"])
    assert code == 2
    assert "EMPSKIT_SEED must be a non-negative integer, got '-3'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"N": "abc"}, "N, J and h must be numbers"),
        ({"N": None}, "N, J and h must be numbers"),
        ({"J": "x"}, "N, J and h must be numbers"),
        ({"N": 4.7}, "N must be an integer"),
    ],
)
def test_ising_spec_file_with_bad_field_exits_2(tmp_path, capsys, payload, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["ising", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, what",
    [(["emps", "--state"], "state"), (["ising", "--spec"], "spec"), (["sweep", "--values", "1", "--spec"], "spec")],
)
def test_malformed_json_file_exits_2(tmp_path, capsys, argv, what):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3,')
    assert cli.run(argv + [str(path)]) == 2
    assert f"{what} file {path} is not valid JSON" in capsys.readouterr().err


def test_directory_as_state_file_exits_2(tmp_path, capsys):
    assert cli.run(["emps", "--state", str(tmp_path)]) == 2
    assert f"state file {tmp_path} cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["emps", "--builder", "ghz", "--n", "3", "--theta", "0.5", "-o"],
        ["emps", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--save-state"],
        ["sweep", "--model", "ising", "--values", "1", "-o"],
    ],
)
def test_directory_as_output_path_exits_2(tmp_path, capsys, argv):
    assert cli.run(argv + [str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("argv, what", [(["emps", "--state"], "state"), (["ising", "--spec"], "spec")])
def test_missing_input_file_exits_2(tmp_path, capsys, argv, what):
    path = tmp_path / "missing.json"
    assert cli.run(argv + [str(path)]) == 2
    assert f"{what} file {path} cannot be read: [Errno 2]" in capsys.readouterr().err


def test_non_utf8_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.run(["ising", "--spec", str(path)]) == 2
    assert f"spec file {path} cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"builder": "ghz", "params": [1, 2]},
        {"builder": "ghz", "params": {"n": 3, "theta": "x"}},
        {"builder": "w", "params": {"coeffs": "abc"}},
        {"builder": "w", "params": {"coeffs": ["0.5", "0.5", "0"]}},
    ],
)
def test_builder_file_with_bad_params_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "builder.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["emps", "--state", str(path)]) == 2
    assert f"family {payload['builder']!r}" in capsys.readouterr().err


def test_ising_longrange_requires_five_sites(capsys):
    assert cli.run(["ising", "--model", "longrange", "--sites", "4"]) == 2


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


def test_sweep_bad_range(capsys):
    assert cli.run(["sweep", "--model", "ising", "--param", "h", "--range", "1:2"]) == 2
    assert cli.run(["sweep", "--model", "ising", "--param", "h"]) == 2


def test_sweep_rejects_empty_value_list(capsys):
    for values in (",", " , ,"):
        code = cli.run(["sweep", "--model", "ising", "--param", "h", "--values", values])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--values must name at least one number" in captured.err


def test_classify_rejects_mixed_state(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(state_to_dict(build_noisy_w(0.2))))
    assert cli.run(["classify", "--state", str(path)]) == 2


def test_numeric_failure_exits_3(capsys):
    # absurd coupling scale: the absolute eigenpair-residual contract cannot hold
    code = cli.run(["ising", "--model", "longrange", "--J", "1e9"])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_orbit_rejects_zero_samples(capsys):
    code = cli.run(["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", "0"])
    assert code == 2


def test_generalized_dicke_builder(capsys):
    coeffs = ",".join(["0.5773502691896258"] * 3)  # 1/sqrt(3)
    record = run_json(
        capsys, ["emps", "--builder", "generalized_dicke", "--n", "3", "--l", "1",
                 "--coeffs", coeffs]
    )
    assert abs(record["total"] - 1.0) <= 1e-9


def _no_solve(letters, table):
    raise AssertionError("a rejected sweep must not reach the eigensolver")


def test_sweep_on_two_site_chain_exits_2(monkeypatch, capsys):
    # indicator columns need at least three qubits, and no row is solved first
    monkeypatch.setattr(cli.sc, "_ground_states", _no_solve)
    code = cli.run(["sweep", "--model", "ising", "--sites", "2", "--param", "h", "--values", "1.0"])
    assert code == 2
    assert "3 qubits" in capsys.readouterr().err


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


def test_sweep_coefficient_without_extra_terms_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli.sc, "_ground_states", _no_solve)
    code = cli.run(["sweep", "--model", "ising", "--sites", "4", "--param", "coefficient", "--values", "1,2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"coefficient" scales the extra terms, and the chain has none' in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--builder", "ghz", "--n", "3", "--theta", "0.5", "--samples", str(10**15)],
        ["sweep", "--model", "ising", "--range", f"0:1:{10**15}"],
    ],
)
def test_request_too_large_for_memory_exits_2(capsys, argv):
    # 10^15 float64 rows need petabytes, more than any address space, so the allocation fails at once
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ising", "--model", "ising", "--sites", "3"],
        ["sweep", "--model", "ising", "--sites", "3", "--values", "1"],
        ["emps", "--builder", "ghz", "--n", "3", "--theta", "0.5"],
        ["classify", "--builder", "ghz", "--n", "3", "--theta", "0.5"],
        ["polytope", "--point", "0.4,0.3,0.2"],
    ],
)
@pytest.mark.parametrize("seed", ["-5", "5"])
def test_seed_is_rejected_outside_orbit(capsys, argv, seed):
    # only orbit draws random numbers, so a seed anywhere else is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed" in err
    assert err.startswith(f"usage: empskit {argv[0]} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ising", "--model", "ising", "--sites", "4", "--h", "nan"], "h must be a finite number, got nan"),
        (["ising", "--model", "longrange", "--J", "inf"], "J must be a finite number, got inf"),
        (["sweep", "--model", "ising", "--sites", "4", "--values", "0.5,-inf"], "h must be a finite number"),
        (["sweep", "--model", "longrange", "--param", "coefficient", "--values", "nan"],
         "extra_terms coefficient of 'IXXXI' must be finite"),
    ],
)
def test_non_finite_chain_parameter_exits_2(capsys, argv, message):
    assert cli.run(argv) == 2
    assert message in capsys.readouterr().err


def test_non_finite_spec_file_coefficient_exits_2(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"N": 3, "extra_terms": [[float("nan"), "XXI"]]}))
    assert cli.run(["ising", "--spec", str(path)]) == 2
    assert "extra_terms coefficient of 'XXI' must be finite, got nan" in capsys.readouterr().err


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


def _exits_2(tmp_path, capsys, argv, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.run([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"builder": "dicke", "params": {"n": 3, "l": True}}, "1 <= l <= n-1"),
        ({"builder": "biseparable", "params": {"alpha": 0.6, "beta": 0.8, "position": True}}, "position in"),
        ({"builder": "noisy_w", "params": {"v1": True}}, "v1 in [0, 1]"),
        ({"builder": "ghz", "params": {"n": True, "theta": 0.5}}, "2 <= n <= 12"),
    ],
)
def test_builder_file_with_a_bool_parameter_exits_2(tmp_path, capsys, payload, message):
    _exits_2(tmp_path, capsys, ["emps", "--state"], payload, f"builder parameters violate: {message}")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"N": "4"}, "N, J and h must be numbers"),
        ({"J": "1.5"}, "N, J and h must be numbers"),
        ({"h": True}, "N, J and h must be numbers"),
        ({"N": 3, "J": 10 ** 400}, "J must be a finite number"),
        ({"N": 3, "extra": []}, "spin chain spec has fields ['extra'] outside"),
    ],
)
@pytest.mark.parametrize("argv", [["ising", "--spec"], ["sweep", "--values", "1.0", "--spec"]], ids=["ising", "sweep"])
def test_spec_file_with_a_string_bool_huge_or_unknown_field_exits_2(tmp_path, capsys, argv, payload, message):
    _exits_2(tmp_path, capsys, argv, payload, message)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 1, "amps": [[1, 0], [0, 0]], "N": 5}, "fields ['N'] outside ['amps', 'n']"),
        ({"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]], "note": "x"}, "fields ['note'] outside"),
        ({"builder": "dicke", "params": {"n": 3, "l": 1}, "label": "W"}, "fields ['label'] outside"),
        ({"amps": [[1, 0], [0, 0]], "entries": [[1, 0]]}, "fields ['entries'] outside ['amps', 'n']"),
        ({"builder": "dicke", "params": {"n": 3, "l": 1}, "amps": [[1, 0], [0, 0]]}, "fields ['amps'] outside"),
        ({"state": [[1, 0], [0, 0]]}, 'state description needs "builder" or "amps" or "entries"'),
    ],
)
def test_state_file_with_an_unknown_field_or_two_forms_exits_2(tmp_path, capsys, payload, message):
    _exits_2(tmp_path, capsys, ["emps", "--state"], payload, message)


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


@pytest.mark.parametrize("field", ["amps", "entries"])
def test_state_file_with_non_numeric_pairs_exits_2(tmp_path, capsys, field):
    # in place of the 0.6 of a valid state: a string, a 401-digit integer, a numeric string and null
    rest = {"amps": [[0.8, 0]], "entries": [[0, 0], [0, 0], [0.4, 0]]}[field]
    for part in ["x", 10 ** 400, "0.6", None]:
        payload = {field: [[part, 0], *rest]}
        _exits_2(tmp_path, capsys, ["emps", "--state"], payload, f"{field} must be a list of [re, im] pairs")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["emps", "--builder", "w", "--coeffs", "0.5,x"], "--coeffs must be a comma-separated list of numbers"),
        (["polytope", "--point", "0.1,,0.2;0.3"], "--point must be a comma-separated list of numbers"),
        (["sweep", "--model", "ising", "--values", "0.5,one"], "--values must be a comma-separated list of numbers"),
        (["orbit", "--builder", "noisy_w", "--v1", "0.2", "--samples", "2"], "orbit sampling needs a pure state"),
        (["ising"], "provide --spec FILE or --model ising|longrange"),
        (["sweep", "--values", "1"], "provide --spec FILE or --model ising|longrange"),
        (["sweep", "--model", "ising", "--range", "0:two:3"], "--range must look like start:stop:count"),
        (["sweep", "--model", "ising", "--range", "0:2:1.5"], "--range must look like start:stop:count"),
        (["sweep", "--model", "ising", "--range", "0:2:0"], "--range count must be >= 1"),
        (["sweep", "--model", "ising", "--range", "0:2:-3"], "--range count must be >= 1"),
        (["sweep", "--model", "ising", "--range", "0:inf:3"], "--range needs finite start, stop and span, got 0.0:inf"),
        (["sweep", "--model", "ising", "--range", "nan:1:3"], "--range needs finite start, stop and span, got nan:1.0"),
        (["sweep", "--model", "ising", "--range=-1e308:1e308:3"], "--range needs finite start, stop and span"),
        (["polytope", "--point", ""], "energy vector needs at least one qubit"),
        # a file and a preset for one input; the clash is found before the file is read
        (["emps", "--state", "w.json", "--builder", "ghz", "--n", "3", "--theta", "0.5"],
         "--state and --builder each name a state; give one of them"),
        (["ising", "--spec", "chain.json", "--model", "longrange"], "--spec and --model each name a chain; give one of them"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_flag_values_exit_2_with_their_message(capsys, argv, message):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, solved",
    [
        (["ising", "--model", "ising", "--sites", "4", "--h", "1e308"], []),
        (["sweep", "--model", "ising", "--sites", "4", "--values", "0.5,1e308"], [1]),
    ],
    ids=["ising", "sweep"],
)
@pytest.mark.filterwarnings("error")
def test_chain_whose_coefficients_overflow_exits_2(capsys, monkeypatch, argv, solved):
    # the sweep solves its first row, then the second row's spec rejects h = 1e308
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


def test_orbit_of_a_density_matrix_file_exits_2_from_the_library_rule(tmp_path, capsys):
    payload = {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}
    _exits_2(tmp_path, capsys, ["orbit", "--samples", "2", "--state"], payload, "orbit sampling needs a pure state")


@pytest.mark.parametrize("argv", [["ising", "--spec"], ["sweep", "--values", "1.0", "--spec"]], ids=["ising", "sweep"])
def test_spec_file_with_a_bool_extra_term_coefficient_exits_2(tmp_path, capsys, argv):
    _exits_2(tmp_path, capsys, argv, {"N": 3, "extra_terms": [[True, "ZZI"]]}, "extra_terms must be")
