"""Run the benchmark over several workloads and seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one run at a time, and
prints every metric by name and unit: per workload the median, the
quartiles (`statistics.quantiles(values, n=4)`), the spread (q3 - q1) /
median, the bound from BENCHMARK.json, and the error rate (failed ops over
attempted ops, summed over the runs). `--out` writes all of it, with the
raw results and the machine info of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-info "))
    return info, json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "machine": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            info, result = run_once(workload, seed, args.seconds, args.trace)
            report["machine"] = report["machine"] or info["machine"]
            runs.append({"seed": seed, "result": result,
                         "tail_percentile": info.get("tail_percentile"),
                         "samples_beyond_tail": info.get("samples_beyond_tail"),
                         "ops_timed": info["ops_timed"], "raw": info.get("raw")})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if k in bounds or args.trace)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        for name in names:
            unit = runs[0]["result"]["metrics"][name]["unit"]
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = dict(stats, unit=unit, bound=bounds.get(name))
        report["workloads"][workload] = {"error_rate": failed / attempted, "summary": summary, "runs": runs}

        print(f"\n{workload}: error_rate={failed / attempted:.6g} fraction ({failed}/{attempted} ops)"
              + (f", op_tail_ms is p{runs[0]['tail_percentile']:g}" if runs[0]["tail_percentile"] else ""))
        print(f"  {'metric':44} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, s in summary.items():
            if args.trace and s["median"] == 0:
                continue
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "-" if s["bound"] is None else f"{s['bound']:g}"
            print(f"  {name:44} {s['unit']:9} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {spread:>8} {bound:>6}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
