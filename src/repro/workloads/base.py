"""Workload infrastructure.

A :class:`Workload` bundles MiniC source, input generators for the paper's
three input roles (``test`` = the measured run, ``train`` = the profiling
run, ``alt`` = the RQ6 alternate-profile run), and a pure-Python reference
implementation used as the correctness oracle for every compiler
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

INPUT_KINDS = ("test", "train", "alt")

#: stable per-kind seed component (str hash is randomized per process)
KIND_SEED = {"test": 0x1111, "train": 0x2222, "alt": 0x3333}


def mix_seed(base: int, kind: str, seed: int) -> int:
    """Deterministic seed for input generation."""
    return (base ^ KIND_SEED[kind] ^ (seed * 0x9E3779B1)) & 0xFFFFFFFF


class XorShift:
    """Deterministic 32-bit xorshift RNG for input generation."""

    def __init__(self, seed: int = 0x2545F491) -> None:
        self.state = (seed or 1) & 0xFFFFFFFF

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x

    def below(self, bound: int) -> int:
        return self.next() % bound

    def bytes(self, count: int, bound: int = 256) -> list[int]:
        return [self.below(bound) for _ in range(count)]


@dataclass
class Workload:
    """One benchmark: source + inputs + reference oracle."""

    name: str
    source: str
    make_inputs: Callable[[str, int], dict]
    reference: Callable[[dict], list]
    description: str = ""
    #: RQ7 variant source with all integer variables widened to 64 bits
    wide_source: Optional[str] = None

    def inputs(self, kind: str = "test", seed: int = 0) -> dict:
        if kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {kind!r}")
        return self.make_inputs(kind, seed)

    def expected_output(self, inputs: dict) -> list:
        return self.reference(inputs)


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    return _REGISTRY[name]


def all_workloads() -> dict[str, Workload]:
    _ensure_loaded()
    return dict(_REGISTRY)


def workload_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


_LOADED = False


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    # Import for registration side effects.  Marked loaded only once every
    # import finished: an import cut short (a task timeout's SIGALRM) must
    # not leave a half-filled registry behind for good.
    from repro.workloads import (  # noqa: F401
        basicmath,
        bitcount,
        blowfish,
        crc32,
        dijkstra,
        fft,
        patricia,
        qsort,
        rijndael,
        sha,
        stringsearch,
        susan,
    )

    _LOADED = True
