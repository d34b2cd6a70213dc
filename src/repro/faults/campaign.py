"""Fault-injection campaigns and the recovery coverage matrix.

A campaign sweeps a grid of (workload × config × fault kind × seed)
cells.  Each cell derives one :class:`~repro.faults.plan.FaultPlan` from
the cell's golden execution profile, replays the run with the fault
armed, and classifies the injection:

==========================  ==================================================
category                    meaning
==========================  ==================================================
``detected-and-recovered``  output matches golden and a detection mechanism
                            fired (Δ handler, Razor replay)
``detected-unrecoverable``  a detection mechanism fired (parity trap, machine
                            exception, or extra misspeculations) but the run
                            did not reproduce the golden output
``masked``                  output matches golden with no detection event —
                            including plans whose trigger never arrived
``silent-data-corruption``  output differs and nothing detected anything
==========================  ==================================================

Recovered faults are *attributed* with the observability layer: the per-pc
misspeculation deltas against the golden run name the function, world,
region and Δ handler that absorbed the fault (``repro.obs`` provenance).

Everything is deterministic: cell seeds come from the splitmix64 stream
of the campaign kernel (:mod:`repro.core.campaign`), plans are derived
with ``random.Random``, and the canonical JSON matrix carries no
wall-clock — the same campaign seed
yields a byte-identical matrix whether the bench disk cache is warm or
cold.  Golden runs go through :mod:`repro.eval.harness` (memoized, disk
cached when a cache is installed) so campaigns ride the bench
infrastructure; faulty runs are never cached.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.arch.machine import FaultTrap, MachineError
from repro.arch.predecode import SPEC_OPS, predecode
from repro.bench.cache import install_disk_cache
from repro.core import campaign
from repro.core.documents import canonical_json as to_canonical_json
from repro.core.pipeline import CompilerConfig, resolve_config
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    GoldenProfile,
    derive_plan,
    detectable_kinds,
)
from repro.faults.session import FaultSession
from repro.interp.memory import STACK_TOP

# -- classification outcomes --------------------------------------------------

DETECTED_RECOVERED = "detected-and-recovered"
DETECTED_UNRECOVERABLE = "detected-unrecoverable"
MASKED = "masked"
SDC = "silent-data-corruption"

CATEGORIES = (DETECTED_RECOVERED, DETECTED_UNRECOVERABLE, MASKED, SDC)

#: watchdog floor — a corrupted loop bound must not spin for the default
#: 400M-step machine budget
_MIN_WATCHDOG = 10_000

DEFAULT_WORKLOADS = ("crc32", "bitcount")
#: T=MAX is the paper's design point; T=MIN misspeculates even on the
#: profiled input, giving the spec-fault kinds a live trigger pool
DEFAULT_CONFIGS = ("bitspec-max", "bitspec-min")


def spec_successes(linked, sample) -> int:
    """Successful speculation resolutions in an obs run (Σ execs − misses
    over the image's speculative ops) — the event pool spurious-assert
    plans draw their trigger from."""
    code, _ = predecode(linked, sample.narrow_rf)
    total = 0
    for entry, n, miss in zip(code, sample.exec_counts, sample.misspecs):
        if entry[0] in SPEC_OPS:
            total += n - miss
    return total


def _mem_window(linked, module) -> tuple[int, int]:
    """The [base, base+span) data window mem_bit plans corrupt.

    Globals when the program has any (that is where workload state lives);
    otherwise a small window at the top of the stack region.
    """
    extents = []
    for name, addr in linked.global_addresses.items():
        gv = module.globals.get(name)
        extents.append((addr, gv.size_bytes if gv is not None else 4))
    if not extents:
        return STACK_TOP - 256, 256
    base = min(addr for addr, _ in extents)
    end = max(addr + size for addr, size in extents)
    return base, end - base


def golden_profile(binary, golden_sim, *, recoveries: int = 0) -> GoldenProfile:
    """Derive the plan-derivation profile from a golden ``obs=True`` run.

    ``recoveries`` is the ROB recovery count of the golden *ooo* run —
    always measured on the ooo engine (see :func:`ooo_recoveries`),
    whatever engine the campaign executes with, so recovery-kind plans
    serialize identically across engines.
    """
    base, span = _mem_window(binary.linked, binary.module)
    return GoldenProfile(
        instructions=golden_sim.instructions,
        misspeculations=golden_sim.misspeculations,
        spec_successes=spec_successes(binary.linked, golden_sim.obs),
        mem_base=base,
        mem_span=span,
        recoveries=recoveries,
    )


def ooo_recoveries(binary, inputs) -> int:
    """ROB recoveries of the fault-free ooo-engine run — the trigger pool
    for :data:`~repro.faults.plan.RECOVERY_KINDS` plans.  Deterministic
    for fixed ``REPRO_OOO_*`` structure sizes."""
    sim = binary.run(inputs, engine="ooo")
    return sim.ooo.recoveries if sim.ooo is not None else 0


def _absorbers(linked, golden_obs, faulty_obs) -> list:
    """Name the sites whose misspeculation counts grew under the fault.

    ``region`` is the region's *ordinal within the image* (1-based, in
    region-id order), not the raw ``SpeculativeRegion`` id: raw ids come
    from a process-global counter, so two compiles of the same program
    would stamp different numbers and break the matrix's byte-stability.
    """
    debug = linked.debug
    ordinal = {
        raw: i + 1
        for i, raw in enumerate(
            sorted({r for r in debug.region if r is not None})
        )
    }
    sites = []
    for pc, (g, f) in enumerate(zip(golden_obs.misspecs, faulty_obs.misspecs)):
        if f > g:
            raw = debug.region[pc] if pc < len(debug.region) else None
            sites.append(
                {
                    "pc": pc,
                    "function": linked.owner[pc] if pc < len(linked.owner) else "",
                    "world": debug.world[pc] if pc < len(debug.world) else "",
                    "region": ordinal.get(raw),
                    "handler": debug.handler_of.get(pc),
                    "extra_misspecs": f - g,
                }
            )
    return sites


def run_injection(
    binary,
    inputs: Optional[dict],
    plan: FaultPlan,
    golden_sim,
    engine: Optional[str] = None,
) -> dict:
    """Replay one faulted run and classify it against the golden run.

    ``engine`` selects the simulation engine for the faulted run.  Fault
    hooks keep ``fast`` on the predecoded stepper for the whole run
    (docs/engines.md), so classification is engine-invariant;
    the engine is deliberately *not* recorded in the returned record —
    FAULTS documents must be byte-identical across engines
    (``tests/test_faults.py`` parity grid).
    """
    session = FaultSession(plan)
    watchdog = max(4 * golden_sim.instructions, _MIN_WATCHDOG)
    record = {
        "kind": plan.kind,
        "fault_seed": plan.seed,
        "plan": plan.to_dict(),
        "triggered": False,
        "category": MASKED,
        "mechanism": "",
        "absorbed_by": [],
        "error": "",
        "instructions": 0,
        "misspeculations": 0,
        "razor_recoveries": 0,
        "output_matches": True,
    }
    trapped = False
    sim = None
    try:
        machine = binary.machine(
            inputs, obs=True, faults=session, step_limit=watchdog, engine=engine
        )
        # the ooo engine runs its native recovery kinds and keeps no
        # per-pc sample, so it is asked for none: absorbed_by stays empty
        machine.obs = machine.resolve_engine() != "ooo"
        sim = machine.run()
    except FaultTrap as exc:
        trapped = True
        record["error"] = f"FaultTrap: {exc}"
    except (MachineError, MemoryError, OverflowError, ValueError) as exc:
        # post-corruption wreckage surfacing as a machine/memory exception:
        # the fault was *detected* by an architectural check, not silent
        trapped = True
        record["error"] = f"{type(exc).__name__}: {exc}"

    record["triggered"] = session.triggered
    record["razor_recoveries"] = session.razor_recoveries

    if sim is not None:
        record["instructions"] = sim.instructions
        record["misspeculations"] = sim.misspeculations
        # The observable channel is the out() stream.  return_value is NOT
        # compared: workload mains are void, so r0 at halt is dead-register
        # state that legitimately differs between the spec and orig worlds
        # once a recovery re-enters CFG_orig.
        matches = sim.output == golden_sim.output
        record["output_matches"] = matches
        extra_misses = sim.misspeculations > golden_sim.misspeculations
        detected = extra_misses or session.razor_recoveries > 0
        if matches:
            record["category"] = DETECTED_RECOVERED if detected else MASKED
        else:
            record["category"] = DETECTED_UNRECOVERABLE if detected else SDC
        if detected:
            if session.razor_recoveries:
                record["mechanism"] = "razor-replay"
            else:
                record["mechanism"] = "delta-handler"
            if extra_misses and sim.obs is not None and golden_sim.obs is not None:
                record["absorbed_by"] = _absorbers(
                    binary.linked, golden_sim.obs, sim.obs
                )
    elif trapped:
        record["output_matches"] = False
        record["category"] = DETECTED_UNRECOVERABLE
        record["mechanism"] = session.trap_mechanism or (
            "parity-trap" if session.detected_by_parity else "machine-exception"
        )
    return record


# -- workload campaigns -------------------------------------------------------

#: per-process golden cache: (workload, config hash) -> (binary, sim, profile)
_GOLDEN: dict = {}


def _golden_for(workload: str, config: CompilerConfig):
    from repro.eval import harness
    from repro.workloads import get_workload

    key = (workload, config.stable_hash())
    cached = _GOLDEN.get(key)
    if cached is not None:
        return cached
    # harness.run validates output against the workload oracle and rides
    # the bench caches; the obs run below feeds plan derivation.
    harness.run(workload, config)
    binary = harness.get_binary(workload, config)
    inputs = get_workload(workload).inputs("test", 0)
    golden_sim = binary.run(inputs, obs=True)
    profile = golden_profile(
        binary, golden_sim, recoveries=ooo_recoveries(binary, inputs)
    )
    bundle = (binary, inputs, golden_sim, profile)
    _GOLDEN[key] = bundle
    return bundle


def _inject_cell(
    golden, workload, config_name, kind, fault_seed, *, parity, engine
) -> dict:
    """One classified injection; ``golden()`` supplies the cell's
    ``(binary, inputs, golden_sim, profile)``."""

    def inject() -> dict:
        binary, inputs, golden_sim, profile = golden()
        plan = derive_plan(kind, fault_seed, profile, parity=parity)
        record = run_injection(binary, inputs, plan, golden_sim, engine=engine)
        record["golden_instructions"] = golden_sim.instructions
        record["golden_misspeculations"] = golden_sim.misspeculations
        return record

    base = {
        "workload": workload,
        "config": config_name,
        "kind": kind,
        "fault_seed": fault_seed,
    }
    return campaign.guarded(base, inject)


def _run_cell(cell: tuple, *, parity: bool, engine: Optional[str]) -> dict:
    workload, config_name, kind, fault_seed = cell
    return _inject_cell(
        lambda: _golden_for(workload, resolve_config(config_name)),
        workload, config_name, kind, fault_seed, parity=parity, engine=engine,
    )


def summarize(cells: list, parity: bool) -> dict:
    """Aggregate the coverage matrix: per-kind category histograms plus
    the count of silent corruptions in detectable fault classes (the
    campaign's pass/fail signal)."""
    detectable = detectable_kinds(parity)
    summary = campaign.summarize(cells, "kind")
    summary["sdc_in_detectable_kinds"] = sum(
        1 for c in cells if c.get("category") == SDC and c["kind"] in detectable
    )
    return summary


def _matrix(seed, parity, per_kind, workloads, configs, kinds, cells) -> dict:
    return {
        "seed": seed,
        "parity": parity,
        "per_kind_plans": per_kind,
        "workloads": list(workloads),
        "configs": list(configs),
        "kinds": list(kinds),
        "cells": cells,
        "summary": summarize(cells, parity),
    }


def run_campaign(
    *,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    config_names: Sequence[str] = DEFAULT_CONFIGS,
    kinds: Sequence[str] = FAULT_KINDS,
    seed: int = 0,
    per_kind: int = 2,
    parity: bool = False,
    jobs: int = 1,
    cache_dir=None,
    engine: Optional[str] = None,
    progress=None,
) -> dict:
    """Run the grid; returns the coverage matrix (canonical-JSON-able).

    ``engine`` is an execution choice, not a result axis: it is threaded
    to every injection but never serialized into the document, which
    must stay byte-identical across engines.
    """
    cells = campaign.run_cells(
        campaign.enumerate_cells((workloads, config_names, kinds), seed, per_kind),
        partial(_run_cell, parity=parity, engine=engine),
        jobs=jobs,
        initializer=install_disk_cache if cache_dir is not None else None,
        initargs=(cache_dir,),
        progress=progress,
    )
    return _matrix(seed, parity, per_kind, workloads, config_names, kinds, cells)


# -- fuzz-corpus replay -------------------------------------------------------


def replay_corpus(
    corpus_dir,
    *,
    count: int = 5,
    kinds: Sequence[str] = FAULT_KINDS,
    seed: int = 0,
    per_kind: int = 1,
    parity: bool = False,
    engine: Optional[str] = None,
) -> dict:
    """Replay fuzz-corpus programs under a fault grid (the ``faults``
    oracle mode): compile each saved program as BITSPEC T=MAX, golden-run
    it, and classify every injection.  Detectable fault classes must not
    silently corrupt — checked by the caller via the summary."""
    from repro.core.pipeline import compile_binary
    from repro.fuzz.corpus import iter_corpus

    programs = {}
    for path, program in iter_corpus(corpus_dir):
        programs[f"corpus:{path.name}"] = program
        if len(programs) >= count:
            break
    config = CompilerConfig.bitspec("max")
    goldens: dict = {}

    def golden(name: str):
        if name not in goldens:
            program = programs[name]
            binary = compile_binary(
                program.source,
                config,
                profile_inputs=program.inputs_profile,
                strict=True,
            )
            golden_sim = binary.run(program.inputs_run, obs=True)
            profile = golden_profile(
                binary,
                golden_sim,
                recoveries=ooo_recoveries(binary, program.inputs_run),
            )
            goldens[name] = (binary, program.inputs_run, golden_sim, profile)
        return goldens[name]

    def run_cell(cell: tuple) -> dict:
        name, kind, fault_seed = cell
        return _inject_cell(
            lambda: golden(name),
            name, config.name, kind, fault_seed, parity=parity, engine=engine,
        )

    cells = campaign.run_cells(
        campaign.enumerate_cells((list(programs), kinds), seed, per_kind), run_cell
    )
    return _matrix(seed, parity, per_kind, programs, [config.name], kinds, cells)


# -- rendering ----------------------------------------------------------------

_COLUMNS = (
    ("recovered", DETECTED_RECOVERED, 9),
    ("unrecov", DETECTED_UNRECOVERABLE, 8),
    ("masked", MASKED, 6),
    ("SDC", SDC, 4),
)


def render_matrix(matrix: dict) -> str:
    """Human-readable coverage table for the CLI."""
    summary = matrix["summary"]
    title = (
        f"fault coverage matrix — seed {matrix['seed']}, "
        f"{summary['cells']} cells, parity={'on' if matrix['parity'] else 'off'}"
    )
    footer = f"SDC in detectable kinds: {summary['sdc_in_detectable_kinds']}"
    return campaign.render_table(
        title, "kind", matrix["kinds"], summary, _COLUMNS, footer
    )
