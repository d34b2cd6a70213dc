"""Explain a winning design point via the obs attribution engine.

``python -m repro.dse best --explain`` does not just name the winner —
it re-runs it (and its speculation-off twin, the same machine knobs at
slice width 32) with per-pc observability, attributes energy to source
variables and speculative regions via :mod:`repro.obs.attribution`, and
reports *which variables drive the energy delta*.

Both runs are checked against the conservation invariant (attributed
totals must equal the simulator aggregates bit-for-bit); violations are
surfaced in the result and turned into a non-zero exit by the CLI and
the CI smoke job.
"""

from __future__ import annotations

from repro.obs.attribution import attribute, check_conservation
from repro.obs.report import _region_labels
from repro.workloads import get_workload

#: variable stems reported per explanation
TOP_MOVERS = 8


def _observe(point, workload: str, *, profile_kind, profile_seed, run_kind, run_seed):
    """One obs-enabled run of ``point`` on ``workload`` → attribution view."""
    from repro.eval import harness

    config = point.to_config()
    binary = harness.get_binary(
        workload, config, profile_kind=profile_kind, profile_seed=profile_seed
    )
    inputs = get_workload(workload).inputs(run_kind, run_seed)
    sim = binary.run(inputs, obs=True)
    attribution = attribute(binary.linked, sim.obs)
    slice_bits = sim.slice_width
    by_var = {
        stem: tally.energy(slice_bits=slice_bits).total
        for stem, tally in attribution.by_variable().items()
    }
    by_region = {
        key: tally
        for key, tally in attribution.by_region().items()
    }
    return {
        "config": config.name,
        "sim": sim,
        "slice_bits": slice_bits,
        "total_energy": attribution.total().energy(slice_bits=slice_bits).total,
        "by_variable": by_var,
        "by_region": by_region,
        "misspeculating_pcs": attribution.misspeculating_pcs(),
        "conservation": check_conservation(attribution, sim),
    }


def explain_point(
    point,
    workload: str,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    top: int = TOP_MOVERS,
) -> dict:
    """Attribute the energy delta of ``point`` vs its width-32 twin.

    Returns a JSON-shaped dict: per-variable energy deltas (negative =
    the variable got cheaper under speculation), the winner's speculative
    regions with their misspeculation load, and the conservation check of
    both runs.
    """
    kwargs = dict(
        profile_kind=profile_kind,
        profile_seed=profile_seed,
        run_kind=run_kind,
        run_seed=run_seed,
    )
    winner = _observe(point, workload, **kwargs)
    reference = _observe(point.baseline_point(), workload, **kwargs)

    stems = set(winner["by_variable"]) | set(reference["by_variable"])
    deltas = []
    for stem in stems:
        before = reference["by_variable"].get(stem, 0.0)
        after = winner["by_variable"].get(stem, 0.0)
        deltas.append(
            {
                "variable": stem or "(unattributed)",
                "energy_pj_baseline": round(before, 6),
                "energy_pj_winner": round(after, 6),
                "delta_pj": round(after - before, 6),
            }
        )
    deltas.sort(key=lambda d: (abs(d["delta_pj"]), d["variable"]), reverse=True)

    # raw region ids come from a process-wide counter: report the
    # per-function ordinals obs and faults use
    labels = _region_labels(winner["by_region"])
    regions = []
    for key, tally in winner["by_region"].items():
        label = labels.get(key)
        if label is None:
            continue  # pcs outside any speculative region
        regions.append(
            {
                "function": key[0],
                "region": label,
                "energy_pj": round(
                    tally.energy(slice_bits=winner["slice_bits"]).total, 6
                ),
                "instructions": tally.instructions,
                "misspeculations": tally.misspeculations,
            }
        )
    regions.sort(key=lambda r: (-r["energy_pj"], r["region"]))

    total_delta = winner["total_energy"] - reference["total_energy"]
    return {
        "workload": workload,
        "winner": winner["config"],
        "reference": reference["config"],
        "energy_pj_winner": round(winner["total_energy"], 6),
        "energy_pj_baseline": round(reference["total_energy"], 6),
        "delta_pj": round(total_delta, 6),
        "savings": round(-total_delta / reference["total_energy"], 6)
        if reference["total_energy"]
        else 0.0,
        "movers": deltas[:top],
        "regions": regions,
        "misspeculating_pcs": [
            {"pc": pc, "count": count}
            for pc, count in winner["misspeculating_pcs"][:top]
        ],
        "conservation_violations": (
            [f"winner: {m}" for m in winner["conservation"]]
            + [f"baseline: {m}" for m in reference["conservation"]]
        ),
    }
