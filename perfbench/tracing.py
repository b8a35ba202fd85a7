"""Spans around empskit's public functions, installed from outside the package.

A span is (name, start, end, parent index) and stays in memory until the
run writes it out. Wrappers are installed only for the traced run and
removed afterwards:

- constructors are wrapped through `__init__`, never by replacing the
  class, because `emps` and `cli` test `isinstance` against it;
- a function is replaced in every empskit module that binds it by name
  (`classify`, `cli` and `spinchain` import `emps_vector`,
  `reduced_density_matrix` and others directly);
- submodules come from `sys.modules`, because the package attribute
  `empskit.emps` is the function that shadows the `empskit.emps` module.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

Span = Tuple[str, float, float, int]

LAYERS = {
    "qcore": (
        "PureState.__init__",
        "DensityMatrix.__init__",
        "state_from_dict",
        "reduced_density_matrix",
        "partial_trace",
        "eig_hermitian",
        "von_neumann_entropy",
    ),
    "emps": ("emps_vector", "polygon_check", "eta_indicator"),
    "classify": ("build_state", "slocc_orbit_sample", "classify_three_qubit", "polytope_membership_3q"),
    "spinchain": ("build_hamiltonian", "ground_state", "entropy_criterion", "indicator_sweep"),
    "cli": ("run",),
}


def _orbit_samples(psi, count, seed=None):
    return count


def _hamiltonian_bytes(spec):
    # One dense complex 2^N x 2^N matrix per term: ZZ bonds, Z fields, extra strings.
    terms = (spec.N - 1) + spec.N + len(spec.extra_terms)
    return terms * 16 * 4 ** spec.N


# Work counts computed from a wrapped call's arguments: span name -> (counter, fn).
COUNTERS = {
    "classify.slocc_orbit_sample": ("classify.slocc_orbit_sample.samples", _orbit_samples),
    "spinchain.build_hamiltonian": ("spinchain.build_hamiltonian.bytes", _hamiltonian_bytes),
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {name: 0 for name, _ in COUNTERS.values()}
        self._open: List[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`, nested under the innermost open span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter[0]] += counter[1](*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        wrapper.perfbench_span = name
        return wrapper


def _empskit_modules():
    return [m for name, m in list(sys.modules.items()) if name == "empskit" or name.startswith("empskit.")]


def _targets():
    """(owner, attribute) pairs for every wrapped callable, classes for constructors."""
    for layer, fns in LAYERS.items():
        module = sys.modules[f"empskit.{layer}"]
        for fn in fns:
            if "." in fn:
                cls_name, method = fn.split(".")
                yield f"{layer}.{fn}", getattr(module, cls_name), method
            else:
                yield f"{layer}.{fn}", module, fn


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in LAYERS for the duration of the block."""
    undo = []
    try:
        for name, owner, attr in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original))
                undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            for module in _empskit_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def any_installed() -> bool:
    """True if a span wrapper is bound anywhere in empskit."""
    for _, owner, attr in _targets():
        if hasattr(getattr(owner, attr), "perfbench_span"):
            return True
    return any(
        hasattr(value, "perfbench_span")
        for module in _empskit_modules()
        for value in vars(module).values()
    )


def layer_stats(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (calls, busy seconds, self seconds).

    Busy time counts a span only when no ancestor has the same name, so
    recursion is not counted twice. Self time is a span's duration minus
    the durations of its direct children, which run one after another.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: Dict[str, List] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - covered[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry[1] += end - start
    return {name: tuple(entry) for name, entry in stats.items()}


def write_spans(spans: List[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")
