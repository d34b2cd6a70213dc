"""`repro.dse` — design-space exploration over the speculation parameters.

The paper evaluates *one* design point (8-bit slices, the Table 1 op
set, max-heuristic selection).  This package turns every knob that point
fixed into a sweepable axis and searches the resulting space:

* :mod:`repro.dse.space` — the typed :class:`SpecSpace` of knobs (slice
  width 4/8/16/32, squeezable-opcode subsets, hotness/confidence
  selection thresholds, DTS α and bitwidth-awareness, L1/L2 cache
  geometry), each point lowering to a
  :class:`~repro.core.pipeline.CompilerConfig`;
* :mod:`repro.dse.search` — pluggable strategies (full grid, seeded
  random sampling, successive-halving pruning on partial workload
  rosters) built on the :mod:`repro.bench` executor and
  its content-addressed disk cache;
* :mod:`repro.dse.analysis` — per-workload Pareto fronts over (energy,
  cycles, misspeculation rate), best-config-per-workload tables, and
  per-knob sensitivity curves;
* :mod:`repro.dse.explain` — obs-attribution of a winner's energy delta
  against its speculation-off twin (which variables/regions pay off);
* the ``python -m repro.dse`` CLI (``sweep`` / ``pareto`` / ``best``),
  emitting deterministic ``DSE_<preset>.json`` documents that reproduce
  byte-for-byte against a warm cache.

Two fixed points anchor every sweep to the paper: slice width 32 *is*
the BASELINE build (bit-identical event counts), and the all-defaults
point *is* BITSPEC (the headline numbers).  See ``docs/dse.md``.
"""

from repro.dse.analysis import (
    OBJECTIVES,
    best_per_workload,
    pareto_front,
    pareto_fronts,
    sensitivity,
)
from repro.dse.explain import explain_point
from repro.dse.runner import PointRow, SweepResult, evaluate_points, run_sweep
from repro.dse.search import grid_search, random_search, successive_halving
from repro.dse.space import OP_SETS, PRESETS, SpecPoint, SpecSpace

__all__ = [
    "OBJECTIVES",
    "OP_SETS",
    "PRESETS",
    "PointRow",
    "SpecPoint",
    "SpecSpace",
    "SweepResult",
    "best_per_workload",
    "evaluate_points",
    "explain_point",
    "grid_search",
    "pareto_front",
    "pareto_fronts",
    "random_search",
    "run_sweep",
    "sensitivity",
    "successive_halving",
]
