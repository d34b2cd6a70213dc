"""Speculative IR (SIR): speculative regions + handlers on top of the IR."""

from repro.sir.regions import (
    SpeculativeRegion,
    regions_of,
    sir_predecessor_map,
    sir_predecessors,
    smir_predecessors,
)
from repro.sir.verifier import verify_sir_function, verify_sir_module

__all__ = [
    "SpeculativeRegion",
    "regions_of",
    "sir_predecessor_map",
    "sir_predecessors",
    "smir_predecessors",
    "verify_sir_function",
    "verify_sir_module",
]
