"""Render attribution results as a text report and a JSON artifact.

One entry point, :func:`build_report`, runs a workload×config with obs
enabled, attributes the sample, checks conservation, and (by default)
runs the BASELINE config on the same inputs for the side-by-side energy
comparison.  :func:`render_text` / :func:`render_json` turn the result
into the two artifacts ``python -m repro.obs report`` emits.

Everything rendered is deterministic: counts are exact integers from the
simulator, energies are fixed-precision sums of those counts times the
model constants — which is what lets tests pin a golden report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import CompilerConfig
from repro.eval.harness import get_binary
from repro.obs.attribution import Attribution, attribute, check_conservation
from repro.obs.events import dts_mode_events, events_from_sample
from repro.workloads import get_workload


@dataclass
class ObsReport:
    """Everything one obs run produced, ready to render."""

    workload: str
    config: CompilerConfig
    attribution: Attribution
    sim: object
    mismatches: list
    pass_stats: dict
    event_counts: dict
    #: per-function Tally of the BASELINE run on the same inputs (or None)
    baseline_by_function: Optional[dict] = None
    baseline_total: Optional[object] = None


def build_report(
    workload_name: str,
    config: CompilerConfig,
    *,
    run_kind: str = "test",
    run_seed: int = 0,
    profile_kind: str = "test",
    profile_seed: int = 0,
    baseline: bool = True,
) -> ObsReport:
    """Run with obs and attribute; optionally also run BASELINE."""
    workload = get_workload(workload_name)
    inputs = workload.inputs(run_kind, run_seed)
    binary = get_binary(
        workload_name,
        config,
        profile_kind=profile_kind,
        profile_seed=profile_seed,
    )
    sim = binary.run(inputs, obs=True)
    attribution = attribute(binary.linked, sim.obs)
    mismatches = check_conservation(attribution, sim)

    events = list(events_from_sample(sim.obs, binary.linked.debug))
    if config.voltage_scaling == "timesqueezing":
        from repro.arch.dts import DTSModel

        events += dts_mode_events(sim.class_counts, DTSModel().slack_profile)
    event_counts: dict = {}
    for event in events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + event.count

    report = ObsReport(
        workload=workload_name,
        config=config,
        attribution=attribution,
        sim=sim,
        mismatches=mismatches,
        pass_stats=binary.pass_stats,
        event_counts=event_counts,
    )

    if baseline and config.name != "baseline":
        base_binary = get_binary(
            workload_name,
            CompilerConfig.baseline(),
            profile_kind=profile_kind,
            profile_seed=profile_seed,
        )
        base_sim = base_binary.run(inputs, obs=True)
        base_attr = attribute(base_binary.linked, base_sim.obs)
        report.baseline_by_function = base_attr.by_function()
        report.baseline_total = base_attr.total()
    return report


def _region_labels(region_keys) -> dict:
    """(function, region-id) → stable ``func#SR<k>`` display labels.

    Raw region ids come from a process-global counter, so their absolute
    values depend on how much compilation ran earlier in the process.
    Reports renumber them per function (ascending original id), which is
    deterministic for a given binary — and golden-testable.
    """
    labels = {}
    per_func: dict = {}
    for func, region in sorted(
        (k for k in region_keys if k[1] is not None),
        key=lambda k: (k[0], k[1]),
    ):
        ordinal = per_func[func] = per_func.get(func, 0) + 1
        labels[(func, region)] = f"{func}#SR{ordinal}"
    return labels


# -- text rendering -----------------------------------------------------------


def _fmt_row(cells, widths, aligns) -> str:
    out = []
    for cell, width, align in zip(cells, widths, aligns):
        text = str(cell)
        out.append(text.ljust(width) if align == "l" else text.rjust(width))
    return "  ".join(out).rstrip()


def _table(headers, rows, aligns) -> list:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [_fmt_row(headers, widths, aligns)]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(_fmt_row(row, widths, aligns))
    return lines


def _pj(value: float) -> str:
    return f"{value:.1f}"


def _pct(part: float, whole: float) -> str:
    if not whole:
        return "0.0%"
    return f"{100.0 * part / whole:.1f}%"


def _rate(tally) -> str:
    return f"{tally.misspec_rate:.6f}"


def render_text(report: ObsReport, *, top: int = 10) -> str:
    """The human-readable report (deterministic; golden-testable)."""
    a = report.attribution
    total = a.total()
    total_energy = total.energy().total
    lines = []
    push = lines.append

    push(f"== repro.obs report: {report.workload} × {report.config.name} ==")
    push("")
    conserved = "exact" if not report.mismatches else "VIOLATED"
    push(
        f"totals   instructions={total.instructions}  cycles={total.cycles}"
        f"  misspeculations={total.misspeculations}"
        f"  energy={_pj(total_energy)} pJ"
    )
    breakdown = total.energy()
    push(
        f"energy   alu={_pj(breakdown.alu)}  regfile={_pj(breakdown.regfile)}"
        f"  dcache={_pj(breakdown.dcache)}  icache={_pj(breakdown.icache)}"
        f"  pipeline={_pj(breakdown.pipeline)}"
    )
    push(f"conservation vs SimResult aggregates: {conserved}")
    for mismatch in report.mismatches:
        push(f"  !! {mismatch}")
    push("")

    # -- per-variable energy ---------------------------------------------------
    by_var = a.by_variable()
    var_rows = sorted(
        by_var.items(), key=lambda kv: (-kv[1].energy().total, kv[0])
    )
    push(f"-- energy by variable (top {top}) --")
    rows = [
        (
            name or "(unattributed)",
            tally.instructions,
            tally.misspeculations,
            _rate(tally),
            _pj(tally.energy().total),
            _pct(tally.energy().total, total_energy),
        )
        for name, tally in var_rows[:top]
    ]
    rest = var_rows[top:]
    lines.extend(
        _table(
            ("variable", "insts", "misspec", "miss/inst", "energy pJ", "share"),
            rows,
            ("l", "r", "r", "r", "r", "r"),
        )
    )
    if rest:
        rest_energy = sum(t.energy().total for _, t in rest)
        push(
            f"(+ {len(rest)} more variables, {_pj(rest_energy)} pJ, "
            f"{_pct(rest_energy, total_energy)})"
        )
    push("")

    # -- top misspeculating variables -----------------------------------------
    miss_rows = sorted(
        (item for item in by_var.items() if item[1].misspeculations),
        key=lambda kv: (-kv[1].misspeculations, kv[0]),
    )
    push(f"-- top misspeculating variables (top {top}) --")
    if miss_rows:
        lines.extend(
            _table(
                ("variable", "misspec", "insts", "miss/inst", "energy pJ"),
                [
                    (
                        name or "(unattributed)",
                        t.misspeculations,
                        t.instructions,
                        _rate(t),
                        _pj(t.energy().total),
                    )
                    for name, t in miss_rows[:top]
                ],
                ("l", "r", "r", "r", "r"),
            )
        )
    else:
        push("(no misspeculations)")
    push("")

    # -- energy by world / by region ------------------------------------------
    push("-- energy by world --")
    worlds = a.by_world()
    lines.extend(
        _table(
            ("world", "insts", "misspec", "energy pJ", "share"),
            [
                (
                    world,
                    t.instructions,
                    t.misspeculations,
                    _pj(t.energy().total),
                    _pct(t.energy().total, total_energy),
                )
                for world, t in sorted(worlds.items())
            ],
            ("l", "r", "r", "r", "r"),
        )
    )
    push("")

    regions = a.by_region()
    labels = _region_labels(regions)
    push("-- energy by speculative region --")
    if labels:
        lines.extend(
            _table(
                ("region", "insts", "misspec", "energy pJ", "share"),
                [
                    (
                        labels[key],
                        regions[key].instructions,
                        regions[key].misspeculations,
                        _pj(regions[key].energy().total),
                        _pct(regions[key].energy().total, total_energy),
                    )
                    for key in sorted(labels)
                ],
                ("l", "r", "r", "r", "r"),
            )
        )
    else:
        push("(no speculative regions executed)")
    push("")

    # -- handlers: re-execution cost ------------------------------------------
    handlers = a.by_handler()
    push("-- misspeculation handlers (re-execution cost) --")
    if handlers:
        lines.extend(
            _table(
                ("handler", "entries", "insts", "energy pJ"),
                [
                    (
                        label,
                        t.handler_entries,
                        t.instructions,
                        _pj(t.energy().total),
                    )
                    for label, t in sorted(handlers.items())
                ],
                ("l", "r", "r", "r"),
            )
        )
    else:
        push("(no handlers executed)")
    push("")

    # -- BASELINE vs this config ----------------------------------------------
    if report.baseline_by_function is not None:
        push(f"-- energy by function: BASELINE vs {report.config.name} --")
        ours = a.by_function()
        base = report.baseline_by_function
        names = sorted(set(ours) | set(base))
        rows = []
        for name in names:
            if name == "__skeleton__":
                continue
            b = base.get(name)
            o = ours.get(name)
            b_energy = b.energy().total if b else 0.0
            o_energy = o.energy().total if o else 0.0
            ratio = f"{o_energy / b_energy:.3f}" if b_energy else "-"
            rows.append((name, _pj(b_energy), _pj(o_energy), ratio))
        base_total = report.baseline_total.energy().total
        rows.append(
            (
                "(total)",
                _pj(base_total),
                _pj(total_energy),
                f"{total_energy / base_total:.3f}" if base_total else "-",
            )
        )
        lines.extend(
            _table(
                ("function", "BASELINE pJ", f"{report.config.name} pJ", "ratio"),
                rows,
                ("l", "r", "r", "r"),
            )
        )
        push("")

    # -- events ---------------------------------------------------------------
    push("-- events (batched per-pc) --")
    if report.event_counts:
        lines.extend(
            _table(
                ("kind", "count"),
                [(k, report.event_counts[k]) for k in sorted(report.event_counts)],
                ("l", "r"),
            )
        )
    else:
        push("(no events)")
    push("")

    # -- pass statistics -------------------------------------------------------
    push("-- compiler pass statistics --")
    if report.pass_stats:
        rows = [
            (pass_name, counter, count)
            for pass_name in sorted(report.pass_stats)
            for counter, count in sorted(report.pass_stats[pass_name].items())
        ]
        lines.extend(
            _table(("pass", "counter", "count"), rows, ("l", "l", "r"))
        )
    else:
        push("(no pass statistics collected)")
    push("")
    return "\n".join(lines)


# -- JSON rendering -----------------------------------------------------------


def _tally_dict(tally) -> dict:
    breakdown = tally.energy()
    return {
        "instructions": tally.instructions,
        "cycles": tally.cycles,
        "misspeculations": tally.misspeculations,
        "misspec_rate": round(tally.misspec_rate, 9),
        "loads": tally.loads,
        "stores": tally.stores,
        "handler_entries": tally.handler_entries,
        "static_insts": tally.static_insts,
        "energy_pj": round(breakdown.total, 4),
        "energy": {k: round(v, 4) for k, v in breakdown.as_dict().items()},
    }


def render_json(report: ObsReport, *, top: int = 10) -> dict:
    """The machine-readable artifact (JSON-serializable dict)."""
    a = report.attribution
    total = a.total()
    by_var = a.by_variable()
    regions = a.by_region()
    region_labels = _region_labels(regions)
    data = {
        "schema": 1,
        "workload": report.workload,
        "config": report.config.name,
        "conservation": {
            "exact": not report.mismatches,
            "mismatches": list(report.mismatches),
        },
        "totals": _tally_dict(total),
        "variables": {
            (name or "(unattributed)"): _tally_dict(tally)
            for name, tally in sorted(by_var.items())
        },
        "top_misspeculating": [
            {"variable": name or "(unattributed)", **_tally_dict(t)}
            for name, t in sorted(
                (kv for kv in by_var.items() if kv[1].misspeculations),
                key=lambda kv: (-kv[1].misspeculations, kv[0]),
            )[:top]
        ],
        "worlds": {
            world: _tally_dict(t) for world, t in sorted(a.by_world().items())
        },
        "regions": {
            region_labels[key]: _tally_dict(regions[key])
            for key in sorted(region_labels)
        },
        "handlers": {
            label: _tally_dict(t) for label, t in sorted(a.by_handler().items())
        },
        "functions": {
            name: _tally_dict(t)
            for name, t in sorted(a.by_function().items())
        },
        "events": dict(sorted(report.event_counts.items())),
        "pass_stats": report.pass_stats,
    }
    if report.baseline_by_function is not None:
        data["baseline"] = {
            "functions": {
                name: _tally_dict(t)
                for name, t in sorted(report.baseline_by_function.items())
            },
            "totals": _tally_dict(report.baseline_total),
        }
    return data
