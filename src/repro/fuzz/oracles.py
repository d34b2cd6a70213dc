"""The differential oracle stack.

Runs one :class:`FuzzProgram` through every semantic level of the system and
checks that all observable outputs (the ``out()`` stream) agree:

======================  =====================================================
level                   what executes
======================  =====================================================
``ref``                 Python evaluation of the parsed AST (no IR at all)
``interp-ir``           ``repro.interp`` on the front-end IR (no passes)
``interp-squeezed-T``   ``repro.interp`` on the squeezed SIR, T ∈ {max,avg,min}
``machine-baseline``    compiled ARM binary on ``repro.arch.machine``
``machine-bitspec-T``   compiled ARM_BS binary, T ∈ {max,avg,min}
``machine-thumb``       compiled THUMB binary
``engines``             the T=MAX binary on legacy, translated fast, and ooo
======================  =====================================================

The ``engines`` level is the fuzzing arm of the engine contract
(docs/engines.md): the T=MAX binary is re-run on the legacy interpreter
and on ``fast`` with every region translated on first entry (the
template JIT at threshold 0), and every ``SimResult`` field —
aggregates, energy counters, class counts, final memory image — must
equal the fast path's, not just the ``out()`` stream.  The out-of-order
engine then re-runs the same binary and its *committed view*
(:func:`repro.arch.machine.committed_view` — traps, out stream, memory,
committed instruction/misspeculation counts) must match; its cycles and
energy counters are its own timing model's and are deliberately not
compared.

BITSPEC levels profile on ``inputs_profile`` and run on ``inputs_run`` —
when those differ, compiled speculation genuinely misspeculates and the
Δ-handler machinery is on the semantic path being checked.

On top of output agreement, per-run invariants are asserted:

* IR verifier after every non-speculative pipeline stage, SIR verifier after
  every speculative one (via ``compile_binary``'s ``stage_hook``);
* energy-breakdown components are non-negative and sum to the total, and
  DTS (time-squeezed) energy never exceeds nominal energy;
* the baseline interpreter run never misspeculates;
* under T=MAX with profile == run inputs, misspeculation count is exactly 0
  (Theorem 3.2's "speculation holds on the profiled path");
* under T=MAX the run is observability-enabled and the attribution totals
  (:func:`repro.obs.attribution.check_conservation`) must re-sum to the
  ``SimResult`` aggregates integer-exactly.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.dts import DTSModel
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.frontend.codegen import compile_program
from repro.frontend.parser import parse
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.reference import Reference
from repro.interp.interpreter import Interpreter
from repro.ir.function import Module
from repro.ir.verifier import verify_module
from repro.passes.expander import ExpanderConfig
from repro.sir.verifier import verify_sir_module

HEURISTICS = ("max", "avg", "min")

#: stages after which speculative instructions may exist (SIR verifier)
_SIR_STAGES = frozenset({"squeeze", "speculative-opts", "cleanup"})

#: every level an :class:`OracleReport` for a passing program contains
ALL_LEVELS = (
    "ref",
    "interp-ir",
    "interp-squeezed-max",
    "interp-squeezed-avg",
    "interp-squeezed-min",
    "machine-baseline",
    "machine-bitspec-max",
    "machine-bitspec-avg",
    "machine-bitspec-min",
    "machine-thumb",
    "engines",
)

#: step budget for interpreter-level runs (generated programs are tiny)
STEP_LIMIT = 20_000_000

#: the AST reference runs first and gates the compiled levels, so its budget
#: is kept small — a shrink candidate mutated into an unbounded loop must
#: fail fast instead of stalling the whole campaign
REF_STEP_LIMIT = 2_000_000


@dataclass
class OracleReport:
    """Outcome of running the full oracle stack over one program."""

    program: FuzzProgram
    outputs: dict = field(default_factory=dict)  # level -> out() stream
    misspeculations: dict = field(default_factory=dict)  # level -> count
    disagreements: list = field(default_factory=list)
    invariant_failures: list = field(default_factory=list)
    error: Optional[str] = None  # crash anywhere in the stack

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.invariant_failures and not self.error

    def summary(self) -> str:
        if self.ok:
            misspecs = sum(self.misspeculations.values())
            return f"ok ({len(self.outputs)} levels, {misspecs} misspecs)"
        parts = []
        if self.error:
            parts.append(f"error: {self.error.splitlines()[-1]}")
        parts.extend(self.disagreements[:3])
        parts.extend(self.invariant_failures[:3])
        return "; ".join(parts)

    def signature(self) -> tuple:
        """Coarse failure class, stable under shrinking.

        The shrinker requires candidates to reproduce the *same kind* of
        failure — otherwise replacing a loop bound with a constant trades the
        bug under investigation for an unrelated step-limit blowup.
        """
        if self.ok:
            return ()
        if self.error:
            # exception class name only: messages carry value/name noise
            last = self.error.splitlines()[-1]
            return ("error", last.split(":", 1)[0])

        def kind(text: str) -> str:
            # prefix before the first colon, with counts/values stripped so
            # e.g. "... misspeculated 3 times" == "... misspeculated 1 times"
            return "".join(c for c in text.split(":", 1)[0] if not c.isdigit())

        kinds = []
        for text in self.disagreements:
            kinds.append(("disagreement", kind(text)))
        for text in self.invariant_failures:
            kinds.append(("invariant", kind(text)))
        return tuple(sorted(set(kinds)))


def _verifying_stage_hook(stage: str, module: Module) -> None:
    if stage in _SIR_STAGES:
        verify_sir_module(module)
    else:
        verify_module(module)


def _check_energy(report: OracleReport, level: str, sim) -> None:
    breakdown = sim.energy()
    components = breakdown.as_dict()
    for name, value in components.items():
        if value < 0:
            report.invariant_failures.append(
                f"{level}: negative {name} energy {value}"
            )
    if abs(sum(components.values()) - breakdown.total) > 1e-6 * max(
        breakdown.total, 1.0
    ):
        report.invariant_failures.append(
            f"{level}: component energies do not sum to total"
        )
    dts_total = DTSModel().apply(sim).total
    if dts_total > breakdown.total + 1e-9:
        report.invariant_failures.append(
            f"{level}: DTS energy {dts_total} exceeds nominal {breakdown.total}"
        )


def _check_engines(report: OracleReport, binary, inputs, fast_sim) -> None:
    """The ``engines`` oracle level: the engine contract.

    Re-runs the T=MAX binary on the legacy interpreter and on ``fast``
    translating every region on first entry, and requires every
    :class:`SimResult` field — not just
    the ``out()`` stream — to equal the fast path's; then re-runs it on
    the out-of-order engine and requires committed-view equality.
    """
    import dataclasses

    from repro.arch.predecode import run_fast

    for engine in ("legacy", "translated"):
        if engine == "legacy":
            sim = binary.run(inputs, engine="legacy")
        else:
            sim = run_fast(binary.machine(inputs), translate_after=0)
        for f in dataclasses.fields(type(fast_sim)):
            if f.name in ("counters", "memory", "obs"):
                continue
            a, b = getattr(sim, f.name), getattr(fast_sim, f.name)
            if a != b:
                report.invariant_failures.append(
                    f"engines: {engine} SimResult.{f.name} {a!r} != fast {b!r}"
                )
        for f in dataclasses.fields(type(fast_sim.counters)):
            a = getattr(sim.counters, f.name)
            b = getattr(fast_sim.counters, f.name)
            if a != b:
                report.invariant_failures.append(
                    f"engines: {engine} counters.{f.name} {a!r} != fast {b!r}"
                )
        if (
            sim.memory is not None
            and fast_sim.memory is not None
            and sim.memory.data != fast_sim.memory.data
        ):
            report.invariant_failures.append(
                f"engines: {engine} final memory image differs from fast"
            )
        if engine == "translated":
            report.outputs["engines"] = sim.output
            report.misspeculations["engines"] = sim.misspeculations

    # the ooo lane: committed architectural contract only
    from repro.arch.machine import committed_view

    ooo_sim = binary.run(inputs, engine="ooo")
    ref_view = committed_view(fast_sim)
    ooo_view = committed_view(ooo_sim)
    for name, expected in ref_view.items():
        got = ooo_view[name]
        if got != expected:
            report.invariant_failures.append(
                f"engines: ooo committed {name} {got!r} != fast {expected!r}"
            )


def _expander(program: FuzzProgram) -> ExpanderConfig:
    if program.expander_enabled:
        return ExpanderConfig()
    return ExpanderConfig.disabled()


def run_oracles(
    program: FuzzProgram,
    *,
    check_profile_eq_run: bool = True,
) -> OracleReport:
    """Run every oracle level over ``program``; see module docstring."""
    report = OracleReport(program=program)
    try:
        _run_oracles(report, program, check_profile_eq_run)
    except Exception:  # a crash at any level is itself a finding
        report.error = traceback.format_exc()
    return report


def _run_oracles(
    report: OracleReport, program: FuzzProgram, check_profile_eq_run: bool
) -> None:
    ast = parse(program.source)

    # Level 0: AST reference evaluation.
    report.outputs["ref"] = Reference(
        ast, program.inputs_run, step_limit=REF_STEP_LIMIT
    ).run()

    # Level 1: the interpreter on plain front-end IR (no passes at all).
    module = compile_program(parse(program.source))
    verify_module(module)
    if program.inputs_run:
        set_global_inputs(module, program.inputs_run)
    interp = Interpreter(module, trace=True, step_limit=STEP_LIMIT)
    result = interp.run()
    report.outputs["interp-ir"] = result.output
    report.misspeculations["interp-ir"] = result.trace.misspeculations
    if result.trace.misspeculations:
        report.invariant_failures.append(
            "interp-ir: unsqueezed IR misspeculated "
            f"{result.trace.misspeculations} times"
        )

    expander = _expander(program)

    # Levels 2+3: squeezed SIR (interp) and BITSPEC binaries (machine).
    for heuristic in HEURISTICS:
        config = CompilerConfig.bitspec(heuristic, expander=expander)
        # strict=True: the fuzzer must see middle-end failures as findings,
        # never have them masked by graceful BASELINE fallback
        binary = compile_binary(
            program.source,
            config,
            profile_inputs=program.inputs_profile,
            stage_hook=_verifying_stage_hook,
            strict=True,
        )
        interp_result = binary.interpret(program.inputs_run)
        report.outputs[f"interp-squeezed-{heuristic}"] = interp_result.output
        report.misspeculations[f"interp-squeezed-{heuristic}"] = (
            interp_result.trace.misspeculations
        )
        # T=MAX runs with observability on: the attribution conservation
        # invariant (per-pc tallies re-sum to the SimResult aggregates,
        # integer-exact) is cross-checked on every fuzzed program.
        obs = heuristic == "max"
        sim = binary.run(program.inputs_run, obs=obs)
        report.outputs[f"machine-bitspec-{heuristic}"] = sim.output
        report.misspeculations[f"machine-bitspec-{heuristic}"] = sim.misspeculations
        _check_energy(report, f"machine-bitspec-{heuristic}", sim)
        if obs:
            from repro.obs.attribution import attribute, check_conservation

            attribution = attribute(binary.linked, sim.obs)
            for mismatch in check_conservation(attribution, sim):
                report.invariant_failures.append(
                    f"machine-bitspec-{heuristic}: obs conservation: {mismatch}"
                )
            _check_engines(report, binary, program.inputs_run, sim)

    # Machine baseline + Thumb.
    for level, config in (
        ("machine-baseline", CompilerConfig.baseline(expander=expander)),
        ("machine-thumb", CompilerConfig.thumb(expander=expander)),
    ):
        binary = compile_binary(
            program.source, config, stage_hook=_verifying_stage_hook, strict=True
        )
        sim = binary.run(program.inputs_run)
        report.outputs[level] = sim.output
        _check_energy(report, level, sim)

    # Invariant: T=MAX speculation profiled on the run input never misses.
    if check_profile_eq_run:
        config = CompilerConfig.bitspec("max", expander=expander)
        binary = compile_binary(
            program.source,
            config,
            profile_inputs=program.inputs_run,
            stage_hook=_verifying_stage_hook,
            strict=True,
        )
        sim = binary.run(program.inputs_run)
        if sim.misspeculations:
            report.invariant_failures.append(
                f"profile==run under T=MAX misspeculated {sim.misspeculations} times"
            )
        if sim.output != report.outputs["ref"]:
            report.disagreements.append(
                "machine-bitspec-max(profile==run) output disagrees with ref"
            )

    # Output agreement across every level.
    expected = report.outputs["ref"]
    for level, output in report.outputs.items():
        if output != expected:
            report.disagreements.append(
                f"{level}: output {_clip(output)} != ref {_clip(expected)}"
            )


def _clip(values: list, limit: int = 8) -> str:
    if len(values) <= limit:
        return repr(values)
    return repr(values[:limit])[:-1] + f", … {len(values)} total]"
