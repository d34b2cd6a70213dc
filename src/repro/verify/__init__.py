"""Bounded symbolic equivalence checking of the speculation contract.

The paper's correctness argument is that per-variable bitwidth
speculation never changes architectural results: whenever a squeezed
computation leaves its slice, the Δ-redirect machinery replays it at
full width, so BITSPEC ≡ BASELINE on *every* input — not just the fuzzed
ones.  This package checks that claim exhaustively on bounded domains:
:mod:`repro.verify.executor` runs the compiled binary symbolically over
all inputs up to width ``k`` (forking through misspeculation handlers,
data-dependent branches and addresses), :mod:`repro.verify.checker`
compares the BITSPEC and BASELINE lane observations and concretizes any
disequality into a counterexample that is confirmed on the concrete
engines and fed back into the fuzz corpus, and ``python -m repro.verify``
is the CLI over the corpus, the workloads and the soundness canaries.
"""

import importlib

from repro.verify.checker import (
    CANARIES,
    DriverError,
    bounded_domain,
    build_lanes,
    confirm_counterexample,
    list_targets,
    make_driver,
    run_canary,
    verify_function,
)

#: names served by :func:`__getattr__` from the submodule that defines
#: them, so ``import repro.verify`` does not load numpy
_LAZY = {
    "BoundExceeded": "executor",
    "Observation": "executor",
    "Observations": "executor",
    "SymbolicMachine": "executor",
    "Vec": "domain",
    "expand": "domain",
    "is_sym": "domain",
    "lane": "domain",
    "make": "domain",
    "restrict": "domain",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "CANARIES",
    "BoundExceeded",
    "DriverError",
    "Observation",
    "Observations",
    "SymbolicMachine",
    "Vec",
    "bounded_domain",
    "build_lanes",
    "confirm_counterexample",
    "expand",
    "is_sym",
    "lane",
    "list_targets",
    "make",
    "make_driver",
    "restrict",
    "run_canary",
    "verify_function",
]
