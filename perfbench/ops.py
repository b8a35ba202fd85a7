"""The calls into empskit that one benchmark op makes.

Nothing is imported at module level, so a fresh interpreter can time
`import empskit` itself (see probe.py).
"""

import sys


class Kit:
    """empskit's modules, looked up at call time so that installed span wrappers apply."""

    def __init__(self):
        import empskit  # noqa: F401
        import empskit.cli  # noqa: F401

        modules = sys.modules
        self.qcore = modules["empskit.qcore"]
        # The package attribute `empskit.emps` is the function that shadows this submodule.
        self.emps = modules["empskit.emps"]
        self.classify = modules["empskit.classify"]
        self.spinchain = modules["empskit.spinchain"]
        self.cli = modules["empskit.cli"]


def call_haar(kit, amps):
    """PureState -> emps_vector -> polygon_check -> eta_indicator, as a library user calls them."""
    psi = kit.qcore.PureState(amps)
    v = kit.emps.emps_vector(psi)
    report = kit.emps.polygon_check(v)
    return v.values, report, kit.emps.eta_indicator(v)


def call_cli(kit, argv):
    """One in-process CLI invocation; returns its exit code."""
    return kit.cli.run(argv)


CALLS = {"haar": call_haar, "cli": call_cli}
