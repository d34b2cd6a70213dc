"""Interleaved A/B engine comparison (``python -m repro.bench --compare-engines``).

The matrix executor measures campaign throughput — wall clock over a
cached, multi-process fan-out — which is the wrong instrument for
pinning one engine against another: process scheduling and cache hits
swamp the signal.  This module times the simulators directly, in one
process, with the engines *interleaved* per repeat so that machine noise
(frequency scaling, competing load) hits every engine alike instead of
biasing whichever ran last.

Protocol per workload:

1. compile once (memoized via :func:`repro.eval.harness.get_binary`) and
   install the run inputs;
2. warm every engine once — this builds the predecode tables and
   translates the regions the run enters hot outside the timed region
   (one hot only across runs translates in a timed run, which best-of
   filters), and cross-checks that all engines report identical
   instruction counts (a cheap standing guard on the bit-identity
   contract; the full guarantee lives in
   ``tests/test_engine_equivalence.py``);
3. ``repeats`` timing rounds, each round running every engine once in
   order; best-of wins per engine.

Speedups are reported against the first engine in ``engines`` (the
reference), per workload and in aggregate (total instructions over total
best-case seconds).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.arch.machine import Machine
from repro.core.pipeline import CompilerConfig, set_global_inputs
from repro.eval.harness import get_binary
from repro.workloads import get_workload


def _time_run(binary, engine: str) -> float:
    started = time.perf_counter()
    Machine(binary.linked, binary.module, engine=engine).run()
    return time.perf_counter() - started


def compare_engines(
    workloads: Sequence[str],
    config: CompilerConfig,
    engines: Sequence[str] = ("legacy", "fast"),
    *,
    repeats: int = 3,
    progress: Optional[Callable[[str, str, float], None]] = None,
) -> dict:
    """Return the comparison report dict (the BENCH json ``compare`` body).

    ``progress(workload, engine, seconds)`` is invoked after each timed
    run (the CLI ticker).
    """
    if len(engines) < 2:
        raise ValueError("need at least two engines to compare")
    reference = engines[0]
    per_workload: dict[str, dict] = {}
    totals = {e: 0.0 for e in engines}
    total_insts = 0

    for name in workloads:
        binary = get_binary(name, config)
        inputs = get_workload(name).inputs("test", 0)
        if inputs:
            set_global_inputs(binary.module, inputs)

        warm = {
            e: Machine(binary.linked, binary.module, engine=e).run()
            for e in engines
        }
        insts = warm[reference].instructions
        for e, sim in warm.items():
            if sim.instructions != insts:
                raise AssertionError(
                    f"{name}: engine {e!r} retired {sim.instructions} "
                    f"instructions, {reference!r} retired {insts}"
                )

        best = {e: float("inf") for e in engines}
        for _ in range(max(repeats, 1)):
            for e in engines:
                seconds = _time_run(binary, e)
                best[e] = min(best[e], seconds)
                if progress is not None:
                    progress(name, e, seconds)

        row: dict = {"instructions": insts, "engines": {}}
        for e in engines:
            row["engines"][e] = {
                "best_seconds": round(best[e], 6),
                "instructions_per_second": round(insts / best[e], 1),
            }
            if e != reference:
                row["engines"][e]["speedup"] = round(best[reference] / best[e], 2)
            totals[e] += best[e]
        per_workload[name] = row
        total_insts += insts

    aggregate: dict = {"instructions": total_insts, "engines": {}}
    for e in engines:
        aggregate["engines"][e] = {
            "best_seconds": round(totals[e], 6),
            "instructions_per_second": round(total_insts / totals[e], 1),
        }
        if e != reference:
            aggregate["engines"][e]["speedup"] = round(
                totals[reference] / totals[e], 2
            )
    return {
        "mode": "engine-compare",
        "config": config.name,
        "engines": list(engines),
        "reference": reference,
        "repeats": max(repeats, 1),
        "per_workload": per_workload,
        "aggregate": aggregate,
    }
