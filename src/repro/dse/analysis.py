"""Sweep analysis: Pareto fronts, per-workload winners, sensitivity.

All three views consume the flat :class:`~repro.dse.runner.PointRow`
list a sweep produced and return plain JSON-shaped dicts — they are the
``pareto`` / ``best`` / ``sensitivity`` sections of the DSE document and
the data behind ``python -m repro.dse pareto|best``.

Determinism note: everything here is a pure fold over the rows with
stable tie-breaks (config label order), so the derived sections are as
reproducible as the measurements themselves.
"""

from __future__ import annotations

from repro.eval.harness import geomean

#: the objective vector, all minimized
OBJECTIVES = ("energy_pj", "cycles", "misspec_rate")


def _objective(row) -> tuple:
    return (row.energy_pj, row.cycles, row.misspec_rate)


def dominates(a: tuple, b: tuple) -> bool:
    """True iff ``a`` is no worse in every objective and better in one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_front(rows) -> list:
    """Non-dominated rows under (energy, cycles, misspec rate), minimized.

    Failed rows never enter the front.  Duplicate objective vectors all
    survive (neither strictly dominates); output is sorted by energy then
    config label for a stable listing.
    """
    ok = [r for r in rows if r.status == "ok"]
    front = []
    for row in ok:
        mine = _objective(row)
        if any(
            dominates(_objective(other), mine) for other in ok if other is not row
        ):
            continue
        front.append(row)
    front.sort(key=lambda r: (r.energy_pj, r.point.label()))
    return front


def pareto_fronts(rows) -> dict:
    """Per-workload Pareto fronts, JSON-shaped."""
    by_workload: dict = {}
    for row in rows:
        by_workload.setdefault(row.workload, []).append(row)
    return {
        workload: [
            {
                "config": r.point.label(),
                "knobs": r.point.as_dict(),
                "energy_pj": round(r.energy_pj, 6),
                "cycles": r.cycles,
                "misspec_rate": round(r.misspec_rate, 9),
            }
            for r in pareto_front(group)
        ]
        for workload, group in sorted(by_workload.items())
    }


def best_per_workload(rows) -> dict:
    """Minimum-energy point per workload, with savings vs the sweep's worst.

    ``savings_vs_worst`` contextualizes the winner inside the swept space;
    it is *not* the paper's baseline-relative number (use a sweep whose
    space includes slice width 32 for that — the width-32 point *is* the
    BASELINE build).
    """
    by_workload: dict = {}
    for row in rows:
        if row.status == "ok":
            by_workload.setdefault(row.workload, []).append(row)
    table = {}
    for workload, group in sorted(by_workload.items()):
        winner = min(group, key=lambda r: (r.energy_pj, r.point.label()))
        worst = max(group, key=lambda r: (r.energy_pj, r.point.label()))
        table[workload] = {
            "config": winner.point.label(),
            "knobs": winner.point.as_dict(),
            "energy_pj": round(winner.energy_pj, 6),
            "cycles": winner.cycles,
            "misspeculations": winner.misspeculations,
            "misspec_rate": round(winner.misspec_rate, 9),
            "savings_vs_worst": round(
                1.0 - winner.energy_pj / worst.energy_pj, 6
            )
            if worst.energy_pj
            else 0.0,
        }
    return table


#: knobs reported on the sensitivity curves (the swept scalar axes)
SENSITIVITY_KNOBS = (
    "slice_width",
    "min_hotness",
    "confidence_margin",
    "heuristic",
    "dts_alpha",
    "l1_kb",
    "l1_ways",
    "l2_kb",
    "l2_ways",
)


def sensitivity(rows) -> dict:
    """Per-knob sensitivity: knob value → geomean normalized energy.

    Energies are first normalized per workload to that workload's best
    ok-row (so workloads with very different absolute energy weigh
    equally), then geomeaned across every row sharing a knob value.
    A knob that only ever takes one value across the rows is omitted —
    a one-point curve says nothing.
    """
    ok = [r for r in rows if r.status == "ok"]
    best: dict = {}
    for row in ok:
        current = best.get(row.workload)
        if current is None or row.energy_pj < current:
            best[row.workload] = row.energy_pj
    curves: dict = {}
    for knob in SENSITIVITY_KNOBS:
        buckets: dict = {}
        for row in ok:
            value = getattr(row.point, knob)
            floor = best[row.workload]
            normalized = row.energy_pj / floor if floor else 0.0
            buckets.setdefault(value, []).append(normalized)
        if len(buckets) < 2:
            continue
        curves[knob] = {
            str(value): round(geomean(samples), 6)
            for value, samples in sorted(buckets.items())
        }
    return curves
