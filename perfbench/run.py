"""empskit benchmark: one workload, one closed-loop caller, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. The program under test is imported
from `src/` of the checkout and receives only inputs generated from
`--seed`; every output is checked against a numpy reference that does not
go through empskit, and a failed check counts against `failed`.

`--trace 0` prints the end-to-end metrics: set-up time of a fresh
interpreter (median of several), items per second of op time, median and
tail op latency, and peak RSS. `--trace 1` runs a fixed number of cycles
instead, each once untraced and once with empskit's public functions
wrapped, and prints per-layer calls, busy and self time and the tracing
overhead; its spans go to `.bench_build/perfbench/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it, prefixed with
`perfbench-info`, records the machine, the seed and the input mix.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

import numpy as np

import ops
import speed
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
TRACED_PHASE_CAP_S = 90
MAX_REPORTED_ERRORS = 5

_STDERR = sys.stderr


class _Discard(io.TextIOBase):
    """Swallows the CLI's `error: ...` lines for files that are rejected on purpose."""

    def write(self, text):
        return len(text)


class Tally:
    def __init__(self):
        self.latencies = []  # raw seconds per timed op
        self.kernels = []  # speed.sample() in effect when each op ran
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self._kernel = None
        self._sampled_at = float("-inf")

    def calibrate(self):
        if perf_counter() - self._sampled_at >= speed.INTERVAL_S:
            self._kernel = speed.sample()
            self._sampled_at = perf_counter()

    def record(self, seconds: float):
        self.latencies.append(seconds)
        self.kernels.append(self._kernel)

    def reset_timing(self):
        self.latencies.clear()
        self.kernels.clear()
        self.items = 0

    def scaled(self):
        """Latencies at reference machine speed (see speed.py)."""
        return np.array(self.latencies) * speed.REFERENCE_S / np.array(self.kernels)

    def fail(self, op, reason: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            what = op.payload if op.kind == "cli" else f"{op.kind} op"
            print(f"perfbench: failed check: {reason} ({what})", file=_STDERR)

    def items_per_s(self) -> float:
        return self.items / float(self.scaled().sum())


def run_ops(workload, kit, cycles, tally, deadline, call=None):
    """Run whole cycles from `cycles` until they run out or `deadline` has passed.

    Only the op call is timed; removing stale output, the reference check
    and generating the next cycle's inputs are not.
    """
    for k in cycles:
        for op in workload.cycle(k):
            if op.output is not None:
                op.output.unlink(missing_ok=True)
            fn = ops.CALLS[op.kind]
            tally.attempted += 1
            tally.calibrate()
            raised = None
            start = perf_counter()
            try:
                result = fn(kit, op.payload) if call is None else call(fn, kit, op.payload)
            except SystemExit as exc:  # argparse rejects argv by exiting, as the CLI would
                result = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
                raised = "".join(traceback.format_exception_only(exc)).strip()
            tally.record(perf_counter() - start)
            reason = raised or op.check(result)
            if reason:
                tally.fail(op, reason)
            else:
                tally.items += op.items
        if perf_counter() >= deadline:
            return


def measure_setup(workload, workdir: Path, tally: Tally):
    """Set-up seconds of SETUP_REPEATS fresh interpreters running the first op of cycle 0.

    Returns (raw seconds, kernel seconds) per interpreter.
    """
    op = workload.cycle(0)[0]
    payload = op.payload
    if op.kind == "haar":
        payload = [[float(z.real), float(z.imag)] for z in payload]
    op_file = workdir / "probe-op.json"
    op_file.write_text(json.dumps({"kind": op.kind, "payload": payload}))
    times = []
    for _ in range(SETUP_REPEATS):
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(op_file)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((record["setup_s"], record["kernel_s"]))
        if op.kind == "cli":
            tally.attempted += 1
            reason = op.check(record["result"])
            if reason:
                tally.fail(op, reason)
    return times


def load_kit():
    sys.path.insert(0, str(SRC))
    kit = ops.Kit()
    location = Path(sys.modules["empskit"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"imported empskit from {location}, not from {SRC}")
    return kit


def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(),
    }


def end_to_end_metrics(workload, tally: Tally, setup_times):
    lat = tally.scaled()
    return {
        "setup_s": (statistics.median(raw * speed.REFERENCE_S / kernel for raw, kernel in setup_times), "s"),
        "items_per_s": (tally.items_per_s(), "items/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(lat, workload.tail_pct)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_metrics(workload, tally: Tally, setup_times):
    """Unscaled wall-clock figures and the calibration kernel's times, for the record."""
    lat = np.array(tally.latencies)
    kernels = np.array(tally.kernels)
    return {
        "setup_s": statistics.median(raw for raw, _ in setup_times),
        "items_per_s": tally.items / float(lat.sum()),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(lat, workload.tail_pct)) * 1e3,
        "kernel_s": {"reference": speed.REFERENCE_S, "median": float(np.median(kernels)),
                     "min": float(kernels.min()), "max": float(kernels.max())},
        "setup_kernel_s": [kernel for _, kernel in setup_times],
    }


def per_layer_metrics(tracer, untraced: Tally, traced: Tally):
    stats = tracing.layer_stats(tracer.spans)
    metrics = {}
    for name in tracing.SPAN_NAMES + ["bench.op"]:
        calls, busy, self_time = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (self_time, "s")
    metrics["classify.slocc_orbit_sample.samples"] = (tracer.counts["classify.slocc_orbit_sample.samples"], "count")
    metrics["spinchain.build_hamiltonian.bytes"] = (tracer.counts["spinchain.build_hamiltonian.bytes"], "B")
    plain, slowed = untraced.items_per_s(), traced.items_per_s()
    metrics["bench.untraced_items_per_s"] = (plain, "items/s")
    metrics["bench.traced_items_per_s"] = (slowed, "items/s")
    metrics["bench.trace_overhead_frac"] = (1.0 - slowed / plain, "fraction")
    return metrics


def trace_cycles(workload, kit, untraced: Tally):
    """Run each of the workload's traced cycles once untraced and once with spans.

    Alternating cycle by cycle gives both runs the same inputs and the same
    machine state, so their throughput difference is the tracing overhead.
    """
    tracer, traced = tracing.Tracer(), Tally()
    deadline = perf_counter() + TRACED_PHASE_CAP_S
    for k in range(workload.traced_cycles):
        if tracing.any_installed():
            raise RuntimeError("span wrappers are installed during an untraced cycle")
        run_ops(workload, kit, [k], untraced, deadline=0.0)
        with tracing.installed(tracer):
            run_ops(workload, kit, [k], traced, deadline=0.0,
                    call=lambda fn, kit, payload: tracer.call("bench.op", fn, kit, payload))
        if perf_counter() >= deadline:
            break
    if tracing.any_installed():
        raise RuntimeError("span wrappers were not removed after the traced run")
    return tracer, traced


def run(args, workdir: Path):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": workload.mix(),
        "machine": machine_info(),
    }
    setup_times = None if args.trace else measure_setup(workload, workdir, tally)
    kit = load_kit()
    if tracing.any_installed():
        raise RuntimeError("span wrappers are installed before the run")
    with redirect_stderr(_Discard()):
        run_ops(workload, kit, [0], tally, deadline=0.0)  # warm-up, untimed
        tally.reset_timing()
        if args.trace:
            tracer, traced = trace_cycles(workload, kit, tally)
        else:
            run_ops(workload, kit, itertools.count(1), tally, deadline=perf_counter() + args.seconds)
    if args.trace:
        tracing.write_spans(tracer.spans, WORK / f"spans-{workload.name}-seed{args.seed}.csv")
        metrics = per_layer_metrics(tracer, tally, traced)
        info["traced_cycles"] = workload.traced_cycles
        info["spans"] = len(tracer.spans)
        attempted, failed = tally.attempted + traced.attempted, tally.failed + traced.failed
    else:
        metrics = end_to_end_metrics(workload, tally, setup_times)
        info["tail_percentile"] = workload.tail_pct
        info["samples_beyond_tail"] = int((tally.scaled() * 1e3 > metrics["op_tail_ms"][0]).sum())
        info["raw"] = raw_metrics(workload, tally, setup_times)
        attempted, failed = tally.attempted, tally.failed
    info["ops_timed"] = len(tally.latencies)
    info["error_rate"] = failed / attempted
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "empskit" / "__init__.py").is_file():
        print(f"perfbench: no empskit sources under {SRC}; run from the root of a full checkout", file=_STDERR)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
