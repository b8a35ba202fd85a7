"""Command-line front end.

Subcommands: emps, classify, polytope, orbit, ising, sweep. Results are
JSON records (CSV for point clouds and sweep tables); all energies are
reported as dimensionless multiples of E. Exit codes: 0 success, 2 on
validation/argument errors, on files that cannot be read or written and on
requests too large for memory, 3 on numerical failures. orbit, the one
randomized command, seeds with --seed, else the EMPSKIT_SEED environment
variable, else 42.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys
from dataclasses import fields
from typing import List, Optional, Union

import numpy as np

from . import classify as cls
from . import qcore
from . import spinchain as sc
from .emps import (
    DEFAULT_SEED,
    EmpsVector,
    emps_vector,
    eta_indicator,
    polygon_check,
)
from .errors import ArgumentError, CapacityError, NumericError, ValidationError


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ArgumentError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("EMPSKIT_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValidationError(f"EMPSKIT_SEED must be an integer, got {env!r}") from exc
        if seed < 0:
            raise ValidationError(f"EMPSKIT_SEED must be a non-negative integer, got {env!r}")
        return seed
    return DEFAULT_SEED


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from exc


def _builder_spec_from_args(args) -> cls.StateBuilderSpec:
    family = args.builder
    names = cls._BUILDERS[family][1]
    missing = [f"--{k}" for k in names if getattr(args, k, None) is None]
    if missing:
        raise ValidationError(f"builder {family!r} requires {', '.join(missing)}")
    params = {k: getattr(args, k) for k in names}
    if "coeffs" in params:
        params["coeffs"] = _parse_float_list(params["coeffs"], "--coeffs")
    return cls.StateBuilderSpec(family=family, params=params)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} file {path} cannot be read: {exc}") from exc


_STATE_FILE_FORMS = (("builder", "params"), *qcore._STATE_FORMS)


def _load_state(args):
    """Resolve --state / --builder into (state, state_id)."""
    if getattr(args, "state", None):
        if args.builder:
            raise ValidationError("--state and --builder each name a state; give one of them")
        payload = _read_json(args.state, "state")
        if qcore._json_fields(payload, "state description", _STATE_FILE_FORMS) == "builder":
            spec = cls.StateBuilderSpec(family=str(payload["builder"]), params=payload.get("params", {}))
            return cls.build_state(spec), args.state
        return qcore.state_from_dict(payload), args.state
    if getattr(args, "builder", None):
        spec = _builder_spec_from_args(args)
        pieces = ", ".join(f"{k}={v}" for k, v in spec.params.items())
        return cls.build_state(spec), f"{spec.family}({pieces})"
    raise ValidationError("provide a state via --state FILE or --builder NAME")


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv(header, rows) -> str:
    """The bytes csv.writer gives for a header and rows of plain names, ints and Python floats.

    No such cell needs quoting, and str of a float is the shortest
    round-trip text that csv.writer writes for it. Lines end in \r\n.
    """
    lines = [",".join(map(str, header))]
    lines += [",".join(map(str, row)) for row in rows]
    lines.append("")
    return "\r\n".join(lines)


# Each subcommand returns its result: a record (printed as indented JSON) or CSV text.


def _cmd_emps(args) -> dict:
    state, state_id = _load_state(args)
    if args.save_state:
        with open(args.save_state, "w", encoding="utf-8") as fh:
            json.dump(qcore.state_to_dict(state), fh)
    v = emps_vector(state)
    return {
        "state_id": state_id,
        "units": "E",
        "n": v.n,
        "emps": [float(x) for x in v.values],
        "total": v.total(),
        "eta": eta_indicator(v) if v.n >= 3 else None,
        "polygon": vars(polygon_check(v)),
    }


def _cmd_classify(args) -> dict:
    state, state_id = _load_state(args)
    label = cls.classify_three_qubit(state)
    v = emps_vector(state)
    return {
        "state": state_id,
        "units": "E",
        "emps": [float(x) for x in v.values],
        "total": v.total(),
        "eta": eta_indicator(v),
        "verdict": label.description,
        "verdict_code": label.verdict.value,
        "cut": label.cut,
        "genuinely_entangled": label.genuinely_entangled,
        "evidence": [
            {"facet": e.name, "value": e.value, "threshold": e.threshold, "slack": e.slack}
            for e in label.evidence
        ],
    }


def _cmd_polytope(args) -> dict:
    if args.point is not None:
        values = _parse_float_list(args.point, "--point")
        v = EmpsVector(n=len(values), values=np.array(values))
        point_id = f"point({args.point})"
    else:
        state, point_id = _load_state(args)
        v = emps_vector(state)
    report = cls.polytope_membership_3q(v, args.which)
    return {
        "point_id": point_id,
        "emps": [float(x) for x in v.values],
        "polytope": args.which,
        "member": report.member,
        "facets": [{"facet": k, "slack": s} for k, s in report.facet_slacks.items()],
    }


def _cmd_orbit(args) -> Union[dict, str]:
    state, state_id = _load_state(args)
    seed = _resolve_seed(args)
    samples = cls.slocc_orbit_sample(state, args.samples, seed=seed)
    if args.format == "csv":
        return _csv([f"e{i}" for i in range(1, state.n + 1)], (v.values.tolist() for v in samples))
    return {
        "state_id": state_id,
        "units": "E",
        "samples": args.samples,
        "seed": seed,
        "points": [v.values.tolist() for v in samples],
    }


def _chain_spec(args) -> sc.SpinChainSpec:
    if getattr(args, "spec", None):
        if args.model:
            raise ValidationError("--spec and --model each name a chain; give one of them")
        return sc.spec_from_dict(_read_json(args.spec, "spec"))
    if args.model == "ising":
        return sc.nearest_neighbor_chain(N=args.sites, J=args.J, h=args.h)
    if args.model == "longrange":
        if args.sites != 5:
            raise ValidationError("--model longrange is defined on 5 sites")
        return sc.long_range_chain(J=args.J, h=args.h)
    raise ValidationError("provide --spec FILE or --model ising|longrange")


def _cmd_ising(args) -> dict:
    spec = _chain_spec(args)
    row = sc.indicator_sweep(spec, "h", [spec.h])[0]  # the chain's own sweep row
    keys = ("ground_energy", "gap", "degenerate", "eta", "entropy_criterion")
    return {"spec": vars(spec), "units": "E", **{k: getattr(row, k) for k in keys}}


def _sweep_values(args) -> List[float]:
    if args.values:
        values = _parse_float_list(args.values, "--values")
        if not values:
            raise ValidationError(f"--values must name at least one number, got {args.values!r}")
        return values
    if args.range:
        parts = args.range.split(":")
        if len(parts) != 3:
            raise ValidationError("--range must look like start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError("--range must look like start:stop:count") from exc
        if count < 1:
            raise ValidationError("--range count must be >= 1")
        if not np.isfinite([start, stop, stop - start]).all():
            raise ValidationError(f"--range needs finite start, stop and span, got {start!r}:{stop!r}")
        try:
            grid = np.linspace(start, stop, count)
        except (ValueError, OverflowError):  # past the address space, and on numpy 1.x past the float range;
            # a count that merely needs more memory raises MemoryError
            raise CapacityError(f"--range count {reprlib.repr(count)} is too large to hold in memory") from None
        return [float(x) for x in grid]
    raise ValidationError("provide sweep values via --values or --range")


def _cmd_sweep(args) -> Union[dict, str]:
    spec = _chain_spec(args)
    rows = sc.indicator_sweep(spec, args.param, _sweep_values(args))
    if args.format == "csv":
        header = ["eta_over_E" if f.name == "eta" else f.name for f in fields(sc.SweepRow)]
        # the degenerate flag is written as 0/1
        cells = ([int(x) if isinstance(x, bool) else x for x in vars(r).values()] for r in rows)
        return _csv(header, cells)
    return {"spec": vars(spec), "parameter": args.param, "units": "E", "rows": [vars(r) for r in rows]}


def _add_state_options(parser: argparse.ArgumentParser):
    parser.add_argument("--state", help="JSON state file (amps, entries, or builder form)")
    parser.add_argument(
        "--builder",
        choices=sorted(cls._BUILDERS),
        help="named state family built from the flags below",
    )
    parser.add_argument("--n", type=int, help="qubit count (ghz, dicke families)")
    parser.add_argument("--theta", type=float, help="GHZ angle in radians, in (0, pi/4]")
    parser.add_argument("--coeffs", help="comma-separated coefficients (w, generalized_dicke)")
    parser.add_argument("--l", type=int, help="excitation count (dicke families)")
    parser.add_argument("--alpha", type=float, help="biseparable |00> amplitude")
    parser.add_argument("--beta", type=float, help="biseparable |11> amplitude")
    parser.add_argument("--position", type=int, help="biseparable factored qubit (1..3)")
    parser.add_argument("--v1", type=float, help="white-noise weight for noisy_w")
    parser.add_argument("--v2", type=float, help="white-noise weight for noisy_ghz")


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers():
    """The full parser and the map from each subcommand's name to its own parser."""
    parser = argparse.ArgumentParser(
        prog="empskit",
        description="Marginal passive-state energies, entanglement polytope facets, "
        "and spin-chain indicators for small multi-qubit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    state, chain, output = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    _add_state_options(state)
    _add_chain_options(chain)
    output.add_argument("-o", "--output", help="write the result here instead of stdout")

    p = sub.add_parser("emps", parents=[state, output], help="per-qubit marginal passive energies of a state")
    p.add_argument("--save-state", help="also write the resolved state as a JSON file")
    p.set_defaults(fn=_cmd_emps)

    p = sub.add_parser("classify", parents=[state, output], help="three-qubit SLOCC classification report")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("polytope", parents=[state, output], help="facet membership of an energy vector (n=3)")
    p.add_argument("--point", help="energy vector e1,e2,e3 instead of a state")
    p.add_argument("--which", choices=("w", "ghz"), default="ghz", help="polytope to test")
    p.set_defaults(fn=_cmd_polytope)

    p = sub.add_parser("orbit", parents=[state, output], help="energy vectors sampled from a SLOCC orbit")
    p.add_argument("--samples", type=int, default=1000, help="number of orbit samples (>= 1)")
    p.add_argument("--seed", type=int, help="RNG seed (default EMPSKIT_SEED or 42)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("ising", parents=[chain, output], help="ground state and indicators of a spin chain")
    p.set_defaults(fn=_cmd_ising)

    p = sub.add_parser("sweep", parents=[chain, output], help="indicator table along a chain parameter")
    p.add_argument("--param", choices=("J", "h", "coefficient"), default="h")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--range", help="start:stop:count, inclusive linear grid")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(fn=_cmd_sweep)

    return parser, sub.choices


def _add_chain_options(parser: argparse.ArgumentParser):
    parser.add_argument("--spec", help="JSON spin-chain spec file")
    parser.add_argument(
        "--model",
        choices=("ising", "longrange"),
        help="preset chain: plain nearest-neighbor or the 5-site long-range variant",
    )
    parser.add_argument("--sites", type=int, default=5, help="site count for --model ising")
    parser.add_argument("--J", type=float, default=1.0, help="coupling constant")
    parser.add_argument("--h", type=float, default=1.0, help="external field")


@functools.lru_cache(maxsize=None)
def _shared_parsers():
    # Building the parsers costs more than a light command; parse_args leaves
    # them unchanged and returns a fresh Namespace, so one set serves every run.
    return _build_parsers()


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, subparsers = _shared_parsers()
    # A named subcommand's own parser reads its flags; the full parser would
    # only pick that subparser first. It still handles every other argv.
    if argv and argv[0] in subparsers:
        args = subparsers[argv[0]].parse_args(argv[1:])
    else:
        args = parser.parse_args(argv)
    try:
        result = args.fn(args)
        _emit(result if isinstance(result, str) else json.dumps(result, indent=2), args.output)
    except (ValidationError, ArgumentError, CapacityError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
