"""The deterministic report builder — one request in, one document out.

:func:`execute_request` is the pure worker function behind the service:
it takes a canonical request (see :mod:`repro.serve.schema`) and returns
an *envelope* ``{"status", "kind", "body", "cacheable"}`` where ``body``
is either the report document or a structured error.  It never raises on
a bad program — frontend failures, input-binding mistakes and runtime
traps all become deterministic 422-class error bodies, built on the same
structured-diagnostic shape as :class:`repro.core.pipeline.CompileDiagnostic`
— so the server can cache rejections exactly like successes (same bad
request ⇒ byte-identical error, warm or cold).

Everything in a cacheable body is a pure function of the request and the
repo's code: event counts, energy (fixed float arithmetic), attribution
tallies, Pareto geometry.  No timestamps, no timing, no hostnames — those
live in response *headers* and the ``/v1/stats`` document, which the
determinism contract deliberately excludes (docs/serve.md).
"""

from __future__ import annotations

import hashlib

from repro.arch.energy import compute_energy
from repro.arch.machine import MachineError, committed_view
from repro.core.pipeline import compile_binary
from repro.dse.analysis import dominates
from repro.dse.space import PRESETS as DSE_PRESETS
from repro.obs.report import _region_labels
from repro.serve.schema import REPORT_SCHEMA, build_config

#: energy/cycle floats are rounded to this many decimals in the document
#: (display stability; the underlying counters are integer-exact)
_ROUND = 6

#: (label, SpecPoint) rows of the Pareto comparison grid — the DSE smoke
#: preset, so the service's Pareto frame matches ``dse sweep --preset smoke``
PARETO_GRID = tuple(
    (point.label(), point) for point in DSE_PRESETS["smoke"][0].points()
)


def _envelope(status: int, kind: str, body: dict, cacheable: bool = True) -> dict:
    return {"status": status, "kind": kind, "body": body, "cacheable": cacheable}


def error_envelope(
    code: str,
    status: int,
    message: str,
    *,
    details=None,
    diagnostics=None,
    cacheable: bool = True,
    **extra,
) -> dict:
    """A structured error envelope (docs/serve.md error taxonomy)."""
    error = {"code": code, "status": status, "message": message}
    if details is not None:
        error["details"] = details
    if diagnostics is not None:
        error["diagnostics"] = diagnostics
    error.update(extra)
    return _envelope(status, "error", {"error": error}, cacheable)


def _frontend_globals(source: str):
    """Parse just far enough to know the program's global bindings.

    Returns ``{name: capacity}`` or raises the frontend's own error.
    """
    from repro.frontend.parser import parse

    program = parse(source)
    return {g.name: g.array_size for g in program.globals}


def _check_inputs(bindings: dict, capacities: dict, path: str) -> list:
    problems = []
    for name in sorted(bindings):
        if name not in capacities:
            problems.append(
                {"path": f"{path}.{name}", "message": "no such global"}
            )
            continue
        value = bindings[name]
        count = len(value) if isinstance(value, list) else 1
        if count > capacities[name]:
            problems.append(
                {
                    "path": f"{path}.{name}",
                    "message": f"{count} values exceed capacity {capacities[name]}",
                }
            )
    return problems


def _compile_error(stage: str, exc: Exception) -> dict:
    return error_envelope(
        "compile-error",
        422,
        f"compilation failed in {stage}",
        diagnostics=[
            {
                "function": "*",
                "stage": stage,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        ],
    )


def _sim_section(sim, config) -> dict:
    energy = sim.energy()
    section = {
        "output": list(sim.output),
        "return_value": sim.return_value,
        "instructions": sim.instructions,
        "cycles": sim.cycles,
        "misspeculations": sim.misspeculations,
        "misspec_rate": round(
            sim.misspeculations / sim.instructions if sim.instructions else 0.0,
            9,
        ),
        "branches": sim.branches,
        "taken_branches": sim.taken_branches,
        "loads": sim.loads,
        "stores": sim.stores,
        "spill_loads": sim.spill_loads,
        "spill_stores": sim.spill_stores,
        "copies": sim.copies,
        "class_counts": dict(sim.class_counts),
        "energy_pj": {
            k: round(v, _ROUND) for k, v in energy.as_dict().items()
        },
        "energy_total_pj": round(energy.total, _ROUND),
    }
    if config.voltage_scaling == "timesqueezing":
        dts_energy = config.dts_model().apply(sim)
        section["dts_energy_total_pj"] = round(dts_energy.total, _ROUND)
    return section


def _tally_dict(tally, slice_width: int) -> dict:
    out = {
        "instructions": tally.instructions,
        "cycles": tally.cycles,
        "misspeculations": tally.misspeculations,
        "energy_pj": round(
            compute_energy(tally.counters, slice_bits=slice_width).total, _ROUND
        ),
    }
    if tally.handler_entries:
        out["handler_entries"] = tally.handler_entries
    return out


def _attribution_section(binary, sim, top: int):
    """(section, violations) — per-variable/region/world/handler tallies."""
    from repro.obs.attribution import attribute, check_conservation

    attr = attribute(binary.linked, sim.obs)
    violations = check_conservation(attr, sim)
    width = sim.slice_width

    def _table(groups, key_str=str) -> dict:
        return {key_str(k): _tally_dict(t, width) for k, t in groups.items()}

    by_var = attr.by_variable()
    by_region = attr.by_region()
    ranked = sorted(
        by_var.items(),
        key=lambda item: (
            -compute_energy(item[1].counters, slice_bits=width).total,
            item[0],
        ),
    )
    section = {
        "by_variable": {
            (name or "(unattributed)"): _tally_dict(t, width)
            for name, t in ranked[:top]
        },
        "variables_total": len(by_var),
        "by_world": _table(attr.by_world()),
        # raw region ids come from a process-global counter; renumber per
        # function (like repro.obs.report does) so the body stays a pure
        # function of the request no matter what compiled earlier
        "by_region": _table(
            by_region,
            key_str=lambda k, _labels=_region_labels(by_region): (
                _labels.get(k, f"{k[0]}#-")
            ),
        ),
        "by_handler": _table(attr.by_handler()),
        "conservation": "ok" if not violations else violations,
    }
    return section, violations


def _pareto_section(canonical: dict, requested_row: dict) -> dict:
    """Run the source over the DSE smoke grid; place the request on it.

    Objectives mirror :data:`repro.dse.analysis.OBJECTIVES` — energy,
    cycles and misspec rate, all minimized.  Grid cells that fail to
    compile or trap are reported ``status: "failed"`` and excluded from
    the domination geometry (deterministically — the same cell fails the
    same way every time).
    """
    source = canonical["source"]
    profile = canonical["inputs"]["profile"]
    run_inputs = canonical["inputs"]["run"]
    rows = []
    for label, point in PARETO_GRID:
        config = point.to_config()
        try:
            binary = compile_binary(
                source, config, profile_inputs=profile, name="request", strict=False
            )
            sim = binary.run(dict(run_inputs))
        except Exception as exc:
            rows.append(
                {
                    "config": label,
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        rows.append(
            {
                "config": label,
                "status": "ok",
                "energy_pj": round(sim.energy().total, _ROUND),
                "cycles": sim.cycles,
                "misspec_rate": round(
                    sim.misspeculations / sim.instructions
                    if sim.instructions
                    else 0.0,
                    9,
                ),
            }
        )

    def _vec(row):
        return (row["energy_pj"], row["cycles"], row["misspec_rate"])

    pool = [r for r in rows if r["status"] == "ok"] + [requested_row]
    front = [
        r["config"]
        for r in pool
        if not any(
            dominates(_vec(other), _vec(r)) for other in pool if other is not r
        )
    ]
    dominated_by = sorted(
        r["config"]
        for r in pool
        if r is not requested_row and dominates(_vec(r), _vec(requested_row))
    )
    return {
        "grid": rows,
        "requested": requested_row,
        "position": {
            "on_front": requested_row["config"] in front,
            "dominated_by": dominated_by,
            "front": sorted(front),
        },
    }


def execute_request(canonical: dict, key: str) -> dict:
    """Compile + simulate one canonical request into a report envelope.

    Deterministic by construction; see the module docstring.  ``key`` is
    the request's content address (:func:`repro.serve.schema.request_key`)
    and is echoed in the report so a client can correlate async jobs.
    """
    source = canonical["source"]
    config_section = canonical["config"]
    strict = config_section.get("strict", False)
    opts = canonical["report"]
    config = build_config(config_section)
    requested_engine = canonical.get("engine")

    # 1. frontend pre-pass: surface parse errors and bad input bindings
    # as their own error classes before burning a full compile
    try:
        capacities = _frontend_globals(source)
    except Exception as exc:
        return _compile_error("frontend", exc)
    problems = _check_inputs(
        canonical["inputs"]["profile"], capacities, "inputs.profile"
    ) + _check_inputs(canonical["inputs"]["run"], capacities, "inputs.run")
    if problems:
        return error_envelope(
            "input-error", 422, "input bindings do not fit the program's globals",
            details=problems,
        )

    # 2. compile (graceful degradation unless the request said strict)
    try:
        binary = compile_binary(
            source,
            config,
            profile_inputs=canonical["inputs"]["profile"],
            name="request",
            strict=strict,
        )
    except Exception as exc:
        return _compile_error("pipeline", exc)

    # 3. simulate (obs-enabled when the report wants attribution).  The
    # engine spelling never reaches the body: report cycles/energy are
    # defined under the in-order timing model, so the ladder picks an
    # in-order engine that serves the request, and 'ooo' adds a
    # committed-state cross-check below
    machine = binary.machine(
        dict(canonical["inputs"]["run"]),
        obs=opts["attribution"],
        engine=requested_engine,
    )
    machine.engine = machine.resolve_engine(inorder=True)
    try:
        sim = machine.run()
    except MachineError as exc:
        return error_envelope(
            "execution-error", 422, "the program trapped during simulation",
            diagnostics=[
                {
                    "function": "*",
                    "stage": "simulate",
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            ],
        )

    # 3b. engine='ooo': live engine contract check — the out-of-order
    # engine must commit the same architectural state before the (engine-
    # independent) body goes out
    if requested_engine == "ooo":
        try:
            ooo_sim = binary.run(dict(canonical["inputs"]["run"]), engine="ooo")
            diverged = sorted(
                name
                for name, value in committed_view(sim).items()
                if committed_view(ooo_sim)[name] != value
            )
        except MachineError as exc:
            diverged = [f"trap: {type(exc).__name__}: {exc}"]
        if diverged:
            return error_envelope(
                "internal-error",
                500,
                "ooo engine diverged from the committed-state contract",
                details=[
                    {"path": "engine", "message": str(d)} for d in diverged
                ],
                cacheable=False,
            )

    report = {
        "schema": REPORT_SCHEMA,
        "key": key,
        "request": {
            "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
            "config": config.fingerprint(),
            "config_name": config.name,
            "strict": strict,
            "inputs": canonical["inputs"],
            "report": opts,
        },
        "compile": {
            "isa": config.isa,
            "code_size": binary.code_size,
            "delta": binary.linked.delta,
            "binary_fingerprint": binary.fingerprint(),
            "diagnostics": [d.to_dict() for d in binary.diagnostics],
            "fallback_functions": sorted(binary.linked.fallback_functions),
            "pass_stats": binary.pass_stats,
        },
        "result": _sim_section(sim, config),
    }

    if opts["attribution"]:
        section, violations = _attribution_section(binary, sim, opts["top"])
        if violations:
            # conservation is an internal invariant, never the client's
            # fault; don't cache a body we consider broken
            return error_envelope(
                "internal-error",
                500,
                "attribution conservation violated",
                details=[{"path": "attribution", "message": str(v)} for v in violations],
                cacheable=False,
            )
        report["attribution"] = section

    if opts["pareto"]:
        requested_row = {
            "config": "requested",
            "status": "ok",
            "energy_pj": report["result"]["energy_total_pj"],
            "cycles": report["result"]["cycles"],
            "misspec_rate": report["result"]["misspec_rate"],
        }
        report["pareto"] = _pareto_section(canonical, requested_row)

    return _envelope(200, "report", report)
