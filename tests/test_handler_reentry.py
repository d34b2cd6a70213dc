"""Misspeculation *inside* a Δ handler: the re-entry edge of the redirect
contract.

The squeezer never emits a speculative op inside a handler (handlers run
in CFG_orig at full width), so this corner of the contract — a handler
block that is itself the single block of another speculative region, whose
misspeculation must route to *that* region's handler — is exercised with a
hand-built SIR program, below the verifier:

* region A = {entry}, handler hA;
* region B = {hA}, handler hB  (hA is simultaneously A's handler and B's
  body — legal per §3.1.1: a handler may not lie inside the region it
  handles, but nothing stops it being the body of a *different* region);
* every speculative add overflows the 8-bit slice, so control must walk
  entry → hA → hB deterministically, with exactly two misspeculations.

Pinned at the IR interpreter, every machine engine and the fast engine's
translated tier, which must agree bit-for-bit: output ``[600]`` and a
misspeculation count of 2.  A seeded sweep slides the misspeculating
pcs across block offsets so the translated tier's mid-region redirect
fires at varying block-boundary positions.  The construction deliberately bypasses the
SIR verifier — it checks the squeezer's single-world invariants, and this
program exists precisely to exercise hardware behavior the squeezer never
generates.
"""

import pytest

from repro.arch.machine import Machine
from repro.arch.predecode import run_fast
from repro.backend.isel import select_module
from repro.backend.layout import link_program
from repro.backend.regalloc import RegisterAllocator
from repro.interp.interpreter import Interpreter
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.types import VOID
from repro.sir.regions import SpeculativeRegion


def build_reentry_module() -> Module:
    module = Module("reentry")
    func = module.add_function(Function("main", VOID))
    entry = func.add_block("entry")
    handler_a = func.add_block("hA")
    handler_b = func.add_block("hB")
    exit_block = func.add_block("exit")

    b = IRBuilder(entry)
    # 200 + 100 = 300: carries out of the u8 slice, always misspeculates.
    first = b.add(b.const(200, 8), b.const(100, 8))
    first.speculative = True
    b.call("__out", [first], VOID)  # never reached; anchors the def
    b.br(exit_block)

    b.set_block(handler_a)
    second = b.add(b.const(220, 8), b.const(90, 8))
    second.speculative = True
    b.call("__out", [second], VOID)  # never reached either
    b.br(exit_block)

    b.set_block(handler_b)
    b.call("__out", [b.const(600, 32)], VOID)
    b.br(exit_block)

    b.set_block(exit_block)
    b.ret()

    # Order matters: hA must become A's handler while it is still
    # region-free, then join B as its (only) body block.
    region_a = SpeculativeRegion([entry])
    region_a.set_handler(handler_a)
    region_b = SpeculativeRegion([handler_a])
    region_b.set_handler(handler_b)
    return module


def _link(module: Module):
    program = select_module(module, isa="ARM_BS")
    for mfunc in program.functions.values():
        RegisterAllocator(mfunc, isa="ARM_BS").run()
    return link_program(program)


def test_region_wiring():
    module = build_reentry_module()
    func = module.function("main")
    entry, handler_a, handler_b, _ = func.blocks
    assert entry.region.handler is handler_a
    assert handler_a.handler_for is entry.region
    assert handler_a.region.handler is handler_b
    assert handler_b.handler_for is handler_a.region


def test_interpreter_reenters_through_both_handlers():
    result = Interpreter(build_reentry_module(), trace=True).run("main")
    assert result.output == [600]
    assert result.trace.misspeculations == 2


def test_machine_reenters_through_both_handlers(engine):
    """Every engine walks entry → hA → hB: exactly 2 misspecs."""
    module = build_reentry_module()
    linked = _link(module)
    sim = Machine(
        module=module, linked=linked, engine=engine, step_limit=10_000
    ).run()
    assert sim.output == [600]
    assert sim.misspeculations == 2


def test_tiers_reenter_through_both_handlers(tier):
    """``fast`` at each threshold walks entry → hA → hB: 2 misspecs.

    On the translated tier this is the misspec-inside-handler re-entry
    property: the first redirect aborts a translated region mid-block,
    the dispatcher re-enters at hA's region, and *that* region's own
    misspec must redirect again — a fallback-inside-fallback path.
    """
    test_machine_reenters_through_both_handlers("fast")


def test_engines_and_interpreter_agree_exactly():
    module = build_reentry_module()
    linked = _link(module)
    fast = Machine(module=module, linked=linked, engine="fast", step_limit=10_000).run()
    legacy = Machine(
        module=module, linked=linked, engine="legacy", step_limit=10_000
    ).run()
    assert (fast.output, fast.misspeculations, fast.instructions) == (
        legacy.output, legacy.misspeculations, legacy.instructions
    )
    interp = Interpreter(build_reentry_module(), trace=True).run("main")
    assert interp.output == fast.output
    assert interp.trace.misspeculations == fast.misspeculations


def _lcg(seed: int):
    """Tiny deterministic generator (hypothesis-style seeded exploration)."""
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF

    def step() -> int:
        nonlocal state
        state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        return state >> 16

    return step


def build_padded_reentry_module(pad_entry: int, pad_handler: int, rng) -> Module:
    """The re-entry program with seeded non-speculative padding.

    The filler adds slide the two misspeculating ops across instruction
    positions — and therefore across compiled-region block offsets and
    icache line boundaries — so the redirect can fire at the first, a
    middle, or the last pc of its block.
    """
    module = Module("reentry_padded")
    func = module.add_function(Function("main", VOID))
    entry = func.add_block("entry")
    handler_a = func.add_block("hA")
    handler_b = func.add_block("hB")
    exit_block = func.add_block("exit")

    b = IRBuilder(entry)
    for _ in range(pad_entry):
        v = rng() % 1000
        b.add(b.const(v, 32), b.const(v + 1, 32))
    first = b.add(b.const(200, 8), b.const(100, 8))
    first.speculative = True
    b.call("__out", [first], VOID)
    b.br(exit_block)

    b.set_block(handler_a)
    for _ in range(pad_handler):
        v = rng() % 1000
        b.add(b.const(v, 32), b.const(v + 2, 32))
    second = b.add(b.const(220, 8), b.const(90, 8))
    second.speculative = True
    b.call("__out", [second], VOID)
    b.br(exit_block)

    b.set_block(handler_b)
    b.call("__out", [b.const(600, 32)], VOID)
    b.br(exit_block)

    b.set_block(exit_block)
    b.ret()

    region_a = SpeculativeRegion([entry])
    region_a.set_handler(handler_a)
    region_b = SpeculativeRegion([handler_a])
    region_b.set_handler(handler_b)
    return module


@pytest.mark.parametrize("seed", range(8))
def test_seeded_block_boundary_redirect_sweep(seed):
    """Seeded sweep: redirects at varying block-boundary pcs, all engines.

    Padding sizes are drawn from the seed, so across the sweep the
    misspeculating pc lands at different offsets within (and at the edges
    of) its block.  Every engine must agree with the fast path on the
    full result — and the walk must still produce exactly 2 misspecs and
    the hB-only output, whatever the redirect pc.
    """
    from test_machine_predecode import assert_engine_matches

    rng = _lcg(seed)
    pad_entry = rng() % 24
    pad_handler = rng() % 24
    module = build_padded_reentry_module(pad_entry, pad_handler, rng)
    linked = _link(module)
    ref = Machine(
        module=module, linked=linked, engine="fast", step_limit=10_000
    ).run()
    assert ref.output == [600]
    assert ref.misspeculations == 2
    for engine in ("legacy", "translated", "ooo"):
        machine = Machine(
            module=module, linked=linked,
            engine="fast" if engine == "translated" else engine,
            step_limit=10_000,
        )
        if engine == "translated":
            sim = run_fast(machine, translate_after=0)
        else:
            sim = machine.run()
        assert_engine_matches(
            sim, ref, engine,
            f"seed={seed} pads=({pad_entry},{pad_handler})/{engine}",
        )
