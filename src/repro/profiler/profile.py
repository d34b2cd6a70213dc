"""Bitwidth profiles (§3.2.2).

A :class:`BitwidthProfile` wraps the per-variable RequiredBits statistics
collected by a traced interpreter run: for each SSA variable, MIN/AVG/MAX
over the sequence of dynamically computed values, plus assignment counts.
Profiles serialize to JSON so the train/run split of the paper's sensitivity
study (RQ6) can be expressed naturally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.interp.interpreter import Interpreter, Trace, VarStats, bucket
from repro.ir.function import Module

#: The bitwidth selection heuristics explored by the paper.
HEURISTICS = ("max", "avg", "min")


@dataclass
class BitwidthProfile:
    """Per-variable dynamic bitwidth statistics keyed by (function, name)."""

    stats: dict

    @classmethod
    def collect(
        cls,
        module: Module,
        entry: str = "main",
        args: Optional[list[int]] = None,
    ) -> "BitwidthProfile":
        """Run the program on profiling inputs, gathering statistics."""
        interp = Interpreter(module, trace=True)
        interp.run(entry, args)
        return cls(stats=dict(interp.trace.var_stats))

    @classmethod
    def from_trace(cls, trace: Trace) -> "BitwidthProfile":
        return cls(stats=dict(trace.var_stats))

    def target_bits(self, func_name: str, var_name: str, heuristic: str) -> int:
        """The heuristic target bitwidth T(v) (§3.2.2).

        Unprofiled variables (never executed on the training input) default
        to the most optimistic target — they are cold, so squeezing them is
        free on the profiled path and speculation guards the rest.
        """
        if heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {heuristic!r}")
        stats = self.stats.get((func_name, var_name))
        if stats is None or stats.count == 0:
            return 1
        if heuristic == "max":
            return stats.max_bits
        if heuristic == "avg":
            return max(1, math.ceil(stats.avg_bits))
        if heuristic == "min":
            return stats.min_bits
        raise ValueError(f"unknown heuristic {heuristic!r}")

    def classify_dynamic(self, heuristic: str) -> dict[int, int]:
        """Dynamic-assignment histogram of T under ``heuristic`` (Fig 5)."""
        hist = {8: 0, 16: 0, 32: 0, 64: 0}
        for stats in self.stats.values():
            if stats.count == 0:
                continue
            target = {
                "max": stats.max_bits,
                "avg": max(1, math.ceil(stats.avg_bits)),
                "min": stats.min_bits,
            }[heuristic]
            hist[bucket(target)] += stats.count
        return hist

    # -- persistence ------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            f"{func}::{name}": [s.count, s.total_bits, s.min_bits, s.max_bits]
            for (func, name), s in self.stats.items()
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BitwidthProfile":
        payload = json.loads(text)
        stats = {}
        for key, (count, total, low, high) in payload.items():
            func, _, name = key.partition("::")
            entry = VarStats(count, total, low, high)
            stats[(func, name)] = entry
        return cls(stats=stats)
