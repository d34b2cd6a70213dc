"""Engine-matrix differential tests: every engine vs the fast-path reference.

The Machine has three engines.  The two in-order ones — the legacy
instruction-at-a-time interpreter and the fast path, which steps the
predecoded program (:mod:`repro.arch.predecode`) and runs hot regions
through a template JIT (:mod:`repro.arch.compiled`) — must be
*bit-identical*: same output
stream, same cycle and instruction counts, same per-width register-file
traffic, same cache and misspeculation events.  Any divergence silently
corrupts every energy figure, so equality is checked field-by-field, not
just on the totals.  The out-of-order engine (:mod:`repro.arch.ooo`) has
its own timing/energy model and is held to the *committed* contract
instead: identical traps, out stream, memory image and committed
instruction/misspeculation counts (:func:`repro.arch.machine.committed_view`).

Each test here takes the ``engine`` fixture (see conftest), so the matrix
is (engine × corpus program × config) and (engine × workload × config);
``pytest --engines legacy`` narrows it when bisecting.  The ``tier``
fixture adds the tiered engine's own axis: ``fast`` at translation
thresholds 0, 2 and never, each against every instruction stepped, per
pc.  The reference
runs are computed once per cell and memoized for the session — the deep
cross-engine matrix over the full corpus lives in
``tests/test_engine_equivalence.py``.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.arch.energy import EnergyCounters
from repro.arch.machine import (
    ENGINES,
    Machine,
    MachineError,
    SimResult,
    committed_view,
)
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.eval.harness import get_binary
from repro.fuzz.corpus import load_program
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload

CORPUS_DIR = Path(__file__).parent / "corpus"

#: five seed-corpus programs (fixed, so failures are reproducible by name)
CORPUS_PROGRAMS = ("seed000", "seed003", "seed004", "seed009", "seed011")

WORKLOADS = ("crc32", "sha", "bitcount")

CONFIGS = (
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.thumb(),
)


def assert_sims_identical(sim: SimResult, ref: SimResult, label: str) -> None:
    """Field-by-field SimResult equality (counters and class mix included)."""
    for f in dataclasses.fields(SimResult):
        if f.name in ("counters", "memory", "obs", "ooo"):
            continue
        assert getattr(sim, f.name) == getattr(ref, f.name), (
            f"{label}: SimResult.{f.name} differs: "
            f"sim={getattr(sim, f.name)!r} ref={getattr(ref, f.name)!r}"
        )
    for f in dataclasses.fields(EnergyCounters):
        assert getattr(sim.counters, f.name) == getattr(ref.counters, f.name), (
            f"{label}: counters.{f.name} differs: "
            f"sim={getattr(sim.counters, f.name)!r} "
            f"ref={getattr(ref.counters, f.name)!r}"
        )
    assert (sim.memory is None) == (ref.memory is None), label
    if sim.memory is not None:
        assert sim.memory.data == ref.memory.data, (
            f"{label}: final memory images differ"
        )
    # ... and therefore the energy model sees identical inputs
    assert sim.energy().as_dict() == ref.energy().as_dict(), label


def assert_committed_identical(sim: SimResult, ref: SimResult, label: str) -> None:
    """The ooo contract: committed architectural state only (docs/engines.md)."""
    got, want = committed_view(sim), committed_view(ref)
    for name in want:
        assert got[name] == want[name], (
            f"{label}: committed {name} differs: "
            f"sim={got[name]!r} ref={want[name]!r}"
        )
    assert (sim.memory is None) == (ref.memory is None), label
    if sim.memory is not None:
        assert sim.memory.data == ref.memory.data, (
            f"{label}: final memory images differ"
        )


def assert_engine_matches(sim: SimResult, ref: SimResult, engine: str, label: str):
    """Dispatch to the contract the engine is held to."""
    if engine == "ooo":
        assert_committed_identical(sim, ref, label)
        assert sim.ooo is not None and sim.cycles > 0, label
    else:
        assert_sims_identical(sim, ref, label)


def assert_tier_matches(binary, inputs, monkeypatch, label: str) -> None:
    """``fast`` at the test's translation threshold (the ``tier``
    fixture) against every instruction stepped: the SimResult, and the
    per-pc sample array for array — the fold adds the translated
    executions to the stepped ones, so each pc must count the same.  The
    program's translated regions are dropped first: a region an earlier
    run translated runs translated from its first entry."""
    from repro.arch import predecode
    from repro.obs.events import PcSample

    monkeypatch.delattr(binary.linked, "_compiled_cache", raising=False)

    def run():
        if inputs:
            set_global_inputs(binary.module, inputs)
        return Machine(binary.linked, binary.module, engine="fast",
                       obs=True).run()

    sim = run()
    with monkeypatch.context() as patch:
        patch.setattr(predecode, "TRANSLATE_AFTER", None)
        ref = run()
    assert_sims_identical(sim, ref, label)
    for f in dataclasses.fields(PcSample):
        assert getattr(sim.obs, f.name) == getattr(ref.obs, f.name), (
            f"{label}: obs.{f.name} differs"
        )


#: per-cell fast-path reference runs, computed once for the whole matrix
_REFERENCE: dict = {}


def _corpus_binary(name, config):
    program = load_program(CORPUS_DIR / f"{name}.json")
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(config, expander=expander)
    binary = compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )
    return binary, program.inputs_run


def _reference(key, binary, inputs) -> SimResult:
    ref = _REFERENCE.get(key)
    if ref is None:
        if inputs:
            set_global_inputs(binary.module, inputs)
        ref = Machine(binary.linked, binary.module, engine="fast").run()
        _REFERENCE[key] = ref
    return ref


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_program_engines_identical(engine, name, config):
    binary, inputs = _corpus_binary(name, config)
    ref = _reference(("corpus", name, config.name), binary, inputs)
    if inputs:
        set_global_inputs(binary.module, inputs)
    sim = Machine(binary.linked, binary.module, engine=engine).run()
    assert_engine_matches(sim, ref, engine, f"{name}/{config.name}/{engine}")


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_workload_engines_identical(engine, workload_name, config):
    if engine in ("legacy", "ooo") and workload_name != "crc32":
        pytest.skip("stepper workload runs are slow; one workload pins the path")
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    ref = _reference(("workload", workload_name, config.name), binary, inputs)
    if inputs:
        set_global_inputs(binary.module, inputs)
    sim = Machine(binary.linked, binary.module, engine=engine).run()
    assert_engine_matches(sim, ref, engine, f"{workload_name}/{config.name}/{engine}")
    assert sim.instructions > 0


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_program_tiers_identical(tier, monkeypatch, name, config):
    binary, inputs = _corpus_binary(name, config)
    assert_tier_matches(binary, inputs, monkeypatch, f"{name}/{config.name}")


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_workload_tiers_identical(tier, monkeypatch, workload_name, config):
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    assert_tier_matches(binary, inputs, monkeypatch,
                        f"{workload_name}/{config.name}")


#: a counted loop whose bound is an input: profiled at 1000 iterations
#: (so bitspec compiles quickly), run at a million
COUNTED_LOOP = """
u32 n;
u32 acc;
void main() {
    u32 i = 0;
    while (i < n) { acc += i; i += 1; }
    out(acc);
}
"""


def test_step_limit_tiers(tier):
    """The step limit trips whichever tier is running when it is hit."""
    binary = compile_binary(COUNTED_LOOP, CompilerConfig.bitspec("max"),
                            profile_inputs={"n": 1000})
    machine = Machine(binary.linked, binary.module, engine="fast",
                      step_limit=500)
    set_global_inputs(binary.module, {"n": 1000000})
    with pytest.raises(MachineError, match="step limit"):
        machine.run()
    set_global_inputs(binary.module, {"n": 10})
    assert machine.run().output == [45]


def test_step_limit_infinite_loop(engine):
    """An endless loop trips the step limit on every engine."""
    binary = compile_binary("void main() { while (1) { } }", CompilerConfig.baseline())
    with pytest.raises(MachineError, match="step limit"):
        Machine(binary.linked, binary.module, engine=engine, step_limit=500).run()


@pytest.mark.parametrize(
    "config",
    (CompilerConfig.baseline(), CompilerConfig.bitspec("max")),
    ids=lambda c: c.name,
)
def test_step_limit_counted_loop(engine, config):
    """A million-iteration loop trips a 500-step limit on every engine,
    and the same binary finishes under it when the count is small."""
    binary = compile_binary(COUNTED_LOOP, config, profile_inputs={"n": 1000})
    machine = Machine(binary.linked, binary.module, engine=engine, step_limit=500)
    set_global_inputs(binary.module, {"n": 1000000})
    with pytest.raises(MachineError, match="step limit"):
        machine.run()
    set_global_inputs(binary.module, {"n": 10})
    assert machine.run().output == [45]


def test_fast_path_is_the_default_without_trace_hook(monkeypatch):
    monkeypatch.delenv("REPRO_MACHINE_ENGINE", raising=False)
    binary = get_binary("crc32", CompilerConfig.baseline())
    machine = Machine(binary.linked, binary.module)
    assert machine.engine is None  # auto: resolved at run() time
    assert machine.resolve_engine() == "fast"
    # an explicit engine="fast" with a trace hook must be rejected, not ignored
    traced = Machine(
        binary.linked, binary.module, trace_hook=lambda pc, regs: None,
        engine="fast",
    )
    with pytest.raises(ValueError):
        traced.run()


def test_legacy_env_escape_hatch(monkeypatch):
    """REPRO_MACHINE_ENGINE=legacy forces the legacy loop (and still agrees)."""
    binary = get_binary("bitcount", CompilerConfig.bitspec("max"))
    inputs = get_workload("bitcount").inputs("test", 0)
    set_global_inputs(binary.module, inputs)
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "legacy")
    legacy = Machine(binary.linked, binary.module).run()
    monkeypatch.delenv("REPRO_MACHINE_ENGINE")
    fast = Machine(binary.linked, binary.module).run()
    assert_sims_identical(fast, legacy, "bitcount/env-escape")


def test_engine_env_var_selects_ooo(monkeypatch):
    """REPRO_MACHINE_ENGINE picks an engine when nothing explicit does."""
    binary = get_binary("crc32", CompilerConfig.bitspec("max"))
    inputs = get_workload("crc32").inputs("test", 0)
    set_global_inputs(binary.module, inputs)
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "ooo")
    machine = Machine(binary.linked, binary.module)
    assert machine.resolve_engine() == "ooo"
    ooo = machine.run()
    assert ooo.ooo is not None
    monkeypatch.delenv("REPRO_MACHINE_ENGINE")
    fast = Machine(binary.linked, binary.module, engine="fast").run()
    assert_committed_identical(ooo, fast, "crc32/env-engine")
    # explicit arguments beat the environment
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "legacy")
    assert Machine(
        binary.linked, binary.module, engine="ooo"
    ).resolve_engine() == "ooo"


def test_engine_env_var_rejects_unknown(monkeypatch):
    """An unknown engine, the retired ``compiled`` among them, fails
    with the valid set named, from the environment and as an argument."""
    binary = get_binary("crc32", CompilerConfig.baseline())
    valid = re.escape(f"expected one of {ENGINES}")
    for spelling in ("warp", "compiled"):
        monkeypatch.setenv("REPRO_MACHINE_ENGINE", spelling)
        with pytest.raises(ValueError, match=valid):
            Machine(binary.linked, binary.module).resolve_engine()
        with pytest.raises(ValueError, match=valid):
            Machine(binary.linked, binary.module, engine=spelling)
