"""Machine-speed calibration for the benchmark's timings.

On a shared two-vCPU virtual machine, speed changes by about 1.3x for
minutes at a time under load from other tenants, and every kind of code
(interpreter loop, small numpy arrays, json, memory copies) slows down by
about the same factor. That alone moves raw wall-clock medians between two
sets of runs by more than any regression bound.

So each run times a fixed kernel of the same kinds of work, at least every
INTERVAL_S, and scales every latency measured after it by
REFERENCE_S / kernel time. Reported times are what the op would take on a
machine where the kernel takes REFERENCE_S: a change to empskit moves them,
a change in machine speed does not. The raw figures go to the
`perfbench-info` line next to them.
"""

import json
from time import perf_counter

import numpy as np

REFERENCE_S = 2.5e-4  # the kernel's time on a 2-vCPU Xeon VM at full speed (numpy 2.4, Python 3.11)
INTERVAL_S = 0.1
REPEATS = 5  # the fastest of a few runs, so a single interruption does not count

_MATRIX = (np.arange(64 * 64, dtype=np.complex128).reshape(64, 64) / 4096) * (1 + 0.5j)
_RECORD = json.dumps({"amps": [[0.5, 1.5]] * 16})


def kernel() -> int:
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    a = _MATRIX.copy()
    for p in range(40):
        col = a[:, p].copy()
        a[:, p] = 0.6 * col - 0.8 * a[:, p + 1]
    json.loads(_RECORD)
    return acc


def sample() -> float:
    """Seconds the kernel takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best
