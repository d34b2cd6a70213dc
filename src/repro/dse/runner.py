"""Sweep execution: evaluate design points on the bench executor.

One :class:`PointRow` is the measurement of one (design point × workload)
cell; :func:`evaluate_points` fans the cells through
:func:`repro.bench.executor.run_matrix`, inheriting the campaign
kernel's process pool, the per-task timeout/retry policy and the
content-addressed :class:`~repro.bench.cache.RunDiskCache`.

:class:`SweepResult` is the deliverable: rows plus the derived analysis
(Pareto fronts, per-workload winners, sensitivity curves), serialized by
:meth:`SweepResult.to_json`.  The JSON is **deterministic by
construction** — it carries no timestamps, wall-clock durations or
cache-hit flags, only event counts and derived metrics — so rerunning a
sweep against a warm cache must produce a byte-identical document (the
reproducibility gate the CI smoke job and tests/test_dse.py enforce).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.executor import BenchTask, run_matrix
from repro.core.documents import canonical_json
from repro.dse.space import SpecPoint, SpecSpace

#: schema version of the DSE_*.json document
SWEEP_SCHEMA = 1


@dataclass
class PointRow:
    """Measurements of one design point on one workload."""

    point: SpecPoint
    workload: str
    status: str = "ok"  # 'ok' | 'failed'
    instructions: int = 0
    cycles: int = 0
    misspeculations: int = 0
    energy_pj: float = 0.0
    error: str = ""

    @property
    def misspec_rate(self) -> float:
        """Misspeculations per dynamic instruction."""
        if not self.instructions:
            return 0.0
        return self.misspeculations / self.instructions

    def as_dict(self) -> dict:
        return {
            "config": self.point.label(),
            "knobs": self.point.as_dict(),
            "workload": self.workload,
            "status": self.status,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "misspeculations": self.misspeculations,
            "misspec_rate": round(self.misspec_rate, 9),
            "energy_pj": round(self.energy_pj, 6),
            "error": self.error,
        }


def evaluate_points(
    points,
    workloads,
    *,
    jobs: int = 1,
    cache_dir=None,
    timeout: float = 300.0,
    engine=None,
    progress=None,
) -> list:
    """Measure every (point × workload) cell; returns ordered PointRows.

    Rows come back point-major in the order given (the executor preserves
    task order), with failures degraded to ``status="failed"`` rather than
    aborting the sweep.  ``engine`` picks the simulation engine for every
    cell.  The two in-order engines are bit-identical, so the emitted
    document does not depend on which of them runs (the reproducibility
    gate holds across them); ``engine="ooo"`` measures the out-of-order
    timing/energy model instead — same committed counts, different
    ``cycles``/``energy_pj`` — and documents stamp their
    ``timing_model`` so the two sweeps are never conflated.
    """
    points = list(points)
    workloads = list(workloads)
    tasks = [
        BenchTask(workload=w, config=p.to_config(), engine=engine)
        for p in points
        for w in workloads
    ]
    outcomes, _stats = run_matrix(
        tasks,
        jobs=max(jobs, 1),
        cache_dir=cache_dir,
        timeout=timeout or None,
        progress=progress,
    )
    rows = []
    for (p, w), outcome in zip(
        ((p, w) for p in points for w in workloads), outcomes
    ):
        rows.append(
            PointRow(
                point=p,
                workload=w,
                status=outcome.status,
                instructions=outcome.instructions,
                cycles=outcome.cycles,
                misspeculations=outcome.misspeculations,
                energy_pj=outcome.energy_pj,
                error=outcome.error,
            )
        )
    return rows


@dataclass
class SweepResult:
    """One completed sweep: rows plus derived analysis, JSON-serializable."""

    preset: str
    workloads: tuple
    space: dict  # SpecSpace.describe() (or {} for ad-hoc point lists)
    strategy: str = "grid"
    evaluations: int = 0
    rows: list = field(default_factory=list)
    #: cycle/energy model the cells were measured under
    #: (:func:`repro.arch.machine.timing_model`)
    timing: str = "inorder"

    def to_document(self) -> dict:
        """The DSE_*.json document — deterministic, no wall-clock state."""
        from repro.dse.analysis import (
            best_per_workload,
            pareto_fronts,
            sensitivity,
        )

        return {
            "schema": SWEEP_SCHEMA,
            "preset": self.preset,
            "strategy": self.strategy,
            "timing_model": self.timing,
            "workloads": list(self.workloads),
            "space": self.space,
            "evaluations": self.evaluations,
            "rows": [r.as_dict() for r in self.rows],
            "pareto": pareto_fronts(self.rows),
            "best": best_per_workload(self.rows),
            "sensitivity": sensitivity(self.rows),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_document())


def run_sweep(
    space: SpecSpace,
    workloads,
    *,
    preset: str = "custom",
    strategy: str = "grid",
    jobs: int = 1,
    cache_dir=None,
    timeout: float = 300.0,
    random_n: int = 0,
    random_seed: int = 0,
    halving_eta: int = 3,
    engine=None,
    progress=None,
) -> SweepResult:
    """Run one sweep end to end under the chosen search strategy."""
    from repro.arch.machine import timing_model
    from repro.dse import search

    kwargs = dict(
        jobs=jobs, cache_dir=cache_dir, timeout=timeout, engine=engine,
        progress=progress,
    )
    if strategy == "grid":
        rows, evaluations = search.grid_search(space, workloads, **kwargs)
    elif strategy == "random":
        rows, evaluations = search.random_search(
            space, workloads, n=random_n, seed=random_seed, **kwargs
        )
    elif strategy == "halving":
        rows, evaluations = search.successive_halving(
            space, workloads, eta=halving_eta, **kwargs
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SweepResult(
        preset=preset,
        workloads=tuple(workloads),
        space=space.describe(),
        strategy=strategy,
        evaluations=evaluations,
        rows=rows,
        timing=timing_model(engine),
    )
