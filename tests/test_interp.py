"""Interpreter semantics, memory model, tracing."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import set_global_inputs
from repro.frontend import compile_source
from repro.interp import (
    FlatMemory,
    Interpreter,
    StepLimitExceeded,
    TrapError,
    read_global,
)
from repro.interp.interpreter import evaluate_binop, evaluate_icmp
from repro.interp.memory import initialize_globals, layout_globals
from repro.ir import Function, IRBuilder, Module, int_type
from repro.ir.instructions import BinOp
from repro.ir.types import VOID


class TestFlatMemory:
    def test_roundtrip(self):
        mem = FlatMemory(1024)
        mem.store(100, 0xDEADBEEF, 4)
        assert mem.load(100, 4) == 0xDEADBEEF
        assert mem.load(100, 1) == 0xEF  # little-endian
        assert mem.load(103, 1) == 0xDE

    def test_bounds(self):
        mem = FlatMemory(64)
        with pytest.raises(MemoryError):
            mem.load(62, 4)
        with pytest.raises(MemoryError):
            mem.store(-1, 0, 1)

    @given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 4, 8]))
    def test_store_masks(self, value, size):
        mem = FlatMemory(64)
        mem.store(0, value, size)
        assert mem.load(0, size) == value & ((1 << (8 * size)) - 1)

    def test_global_layout_alignment(self):
        module = compile_source("u8 a[3]; u32 b; u16 c[2]; void main() { out(0); }")
        addrs = layout_globals(module)
        assert addrs["b"] % 4 == 0
        assert addrs["c"] % 2 == 0
        mem = FlatMemory()
        initialize_globals(mem, module, addrs)
        module.globals["b"].initializer = [77]
        initialize_globals(mem, module, addrs)
        assert read_global(mem, module, addrs, "b") == [77]


class TestEvaluate:
    @given(
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_binop_matches_python(self, op, a, b):
        ty = int_type(8)
        python = {
            "add": a + b,
            "sub": a - b,
            "mul": a * b,
            "and": a & b,
            "or": a | b,
            "xor": a ^ b,
        }[op]
        assert evaluate_binop(op, a, b, ty) == python & 0xFF

    def test_division_semantics(self):
        ty = int_type(32)
        assert evaluate_binop("udiv", 17, 5, ty) == 3
        assert evaluate_binop("sdiv", (-17) & 0xFFFFFFFF, 5, ty) == (-3) & 0xFFFFFFFF
        assert evaluate_binop("srem", (-17) & 0xFFFFFFFF, 5, ty) == (-2) & 0xFFFFFFFF
        with pytest.raises(TrapError):
            evaluate_binop("udiv", 1, 0, ty)

    def test_shift_out_of_range(self):
        ty = int_type(32)
        assert evaluate_binop("lshr", 0xFFFFFFFF, 64, ty) == 0
        assert evaluate_binop("shl", 1, 64, ty) == 0
        assert evaluate_binop("ashr", 0x80000000, 31, ty) == 0xFFFFFFFF

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_icmp_consistency(self, a, b):
        ty = int_type(32)
        assert evaluate_icmp("ult", a, b, ty) == (a < b)
        assert evaluate_icmp("eq", a, b, ty) == (a == b)
        assert evaluate_icmp("slt", a, b, ty) == (ty.to_signed(a) < ty.to_signed(b))


class TestInterpreter:
    def test_step_limit(self):
        module = compile_source("void main() { while (1) { } }")
        with pytest.raises(StepLimitExceeded):
            Interpreter(module, step_limit=1000).run("main")

    def test_trap_on_div_zero(self):
        module = compile_source("u32 d; void main() { out(5 / d); }")
        with pytest.raises(TrapError):
            Interpreter(module).run("main")

    def test_trace_counts(self):
        module = compile_source(
            "void main() { u32 s = 0; for (u32 i = 0; i < 4; i += 1) { s += i; } out(s); }"
        )
        interp = Interpreter(module, trace=True)
        result = interp.run("main")
        assert result.output == [6]
        trace = result.trace
        assert trace.instructions > 0
        assert trace.int_instructions > 0
        assert sum(trace.declared_hist.values()) == trace.int_instructions
        assert sum(trace.required_hist.values()) == trace.int_instructions
        # loop counter values all fit 8 bits
        assert trace.required_hist[8] > 0

    def test_var_stats_track_ranges(self):
        module = compile_source(
            "void main() { u32 x = 0; do { x += 50; } while (x < 300); out(x); }"
        )
        interp = Interpreter(module, trace=True)
        interp.run("main")
        stats = [
            s
            for (f, name), s in interp.trace.var_stats.items()
            if name.startswith("add")
        ]
        assert stats, "expected stats for the increment"
        combined = max(stats, key=lambda s: s.count)
        assert combined.min_bits <= 6
        assert combined.max_bits == 9  # 300 needs 9 bits
        assert combined.min_bits <= combined.avg_bits <= combined.max_bits

    def test_argument_profiling(self):
        module = compile_source(
            """
            u32 f(u32 x) { return x + 1; }
            void main() { out(f(3) + f(200)); }
            """
        )
        interp = Interpreter(module, trace=True)
        interp.run("main")
        stats = interp.trace.var_stats[("f", "x")]
        assert stats.count == 2
        assert stats.min_bits == 2 and stats.max_bits == 8

    def test_memory_visible_after_run(self):
        module = compile_source("u32 g[2]; void main() { g[0] = 11; g[1] = 22; }")
        result = Interpreter(module).run("main")
        values = read_global(
            result.memory, module, result.global_addresses, "g"
        )
        assert values == [11, 22]

    def test_set_global_inputs_validation(self):
        module = compile_source("u32 g[2]; void main() { out(g[0]); }")
        with pytest.raises(KeyError):
            set_global_inputs(module, {"nope": 1})
        with pytest.raises(ValueError):
            set_global_inputs(module, {"g": [1, 2, 3]})
        set_global_inputs(module, {"g": [9]})
        assert Interpreter(module).run("main").output == [9]


CALLS_AND_LOOPS = """
u32 g[4];
u32 f(u32 x) { u32 t[2]; t[0] = x; t[1] = x + 1; return t[0] * t[1]; }
void main() {
    u32 s = 0;
    for (u32 i = 0; i < 4; i += 1) { g[i] = f(i); s += g[i]; }
    out(s);
}
"""


def _steps(module) -> int:
    """Dynamic steps of a run: every traced instruction, plus each
    misspeculated one."""
    trace = Interpreter(module, trace=True).run("main").trace
    return trace.instructions + trace.misspeculations


class TestStepBudget:
    """``step_limit=N`` admits a run of exactly N steps, wherever in a
    block, segment or callee the budget runs out."""

    def test_run_of_n_steps_passes_at_n_and_fails_below(self):
        module = compile_source(CALLS_AND_LOOPS)
        n = _steps(module)
        assert Interpreter(module, step_limit=n).run("main").output == [20]
        for limit in range(n - 12, n):
            with pytest.raises(StepLimitExceeded):
                Interpreter(module, step_limit=limit).run("main")

    def test_misspeculating_run_counts_the_misspeculated_step(self):
        from repro.core.pipeline import PRESETS, compile_binary
        from repro.workloads import get_workload

        workload = get_workload("crc32")
        inputs = workload.inputs("test", 0)
        binary = compile_binary(
            workload.source, PRESETS["bitspec-min"](), profile_inputs=inputs
        )
        set_global_inputs(binary.module, inputs)
        trace = Interpreter(binary.module, trace=True).run("main").trace
        assert trace.misspeculations > 0
        n = trace.instructions + trace.misspeculations
        Interpreter(binary.module, step_limit=n).run("main")
        with pytest.raises(StepLimitExceeded):
            Interpreter(binary.module, step_limit=n - 1).run("main")

    def test_trap_and_budget_in_one_block(self):
        """A division by zero in the block where the budget runs out: the
        budget wins below the division's step, the trap from it on."""
        module = compile_source("u32 d; void main() { u32 x = 7; out(x + 5 / d); }")
        (block,) = module.function("main").blocks
        trap_step = next(
            i for i, inst in enumerate(block.instructions, 1)
            if isinstance(inst, BinOp) and inst.opcode == "udiv"
        )
        for limit in range(trap_step + 3):
            expected = StepLimitExceeded if limit < trap_step else TrapError
            with pytest.raises(expected):
                Interpreter(module, step_limit=limit).run("main")


def _guarded(enter: bool) -> Module:
    """``main`` branches on a constant to a block that calls an unknown
    function and has no terminator."""
    module = Module()
    main = module.add_function(Function("main", VOID))
    entry, dead, exit_ = main.add_block("entry"), main.add_block("dead"), main.add_block("exit")
    builder = IRBuilder(entry)
    builder.condbr(builder.const(int(enter), 1), dead, exit_)
    builder.set_block(dead)
    builder.call("nope", [], VOID)
    builder.set_block(exit_)
    builder.call("__out", [builder.const(1)], VOID)
    builder.ret()
    return module


class TestLowering:
    def test_code_never_entered_never_raises(self):
        assert Interpreter(_guarded(False)).run("main").output == [1]

    def test_unknown_callee_raises_when_called(self):
        with pytest.raises(KeyError):
            Interpreter(_guarded(True)).run("main")

    def test_missing_terminator_raises_when_entered(self):
        module = _guarded(True)
        dead = module.function("main").blocks[1]
        dead.remove(dead.instructions[0])
        with pytest.raises(TrapError, match="fell off block end"):
            Interpreter(module).run("main")

    def test_memory_freed_when_the_interpreter_is(self):
        """The lowered form refers back to the interpreter; run() drops it,
        so no reference cycle keeps the 4 MiB memory image alive."""
        module = compile_source(CALLS_AND_LOOPS)
        enabled = gc.isenabled()
        gc.disable()
        try:
            interp = Interpreter(module, trace=True)
            interp.run("main")
            memory = weakref.ref(interp.memory)
            del interp
            assert memory() is None
        finally:
            if enabled:
                gc.enable()


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, 2**32 - 1),
    b=st.integers(1, 2**32 - 1),
    shift=st.integers(0, 31),
)
def test_expression_semantics_match_python(a, b, shift):
    """Property: a straight-line MiniC program computes like Python."""
    source = f"""
    void main() {{
        u32 a = {a};
        u32 b = {b};
        out(a + b);
        out(a - b);
        out((a * b) ^ (a >> {shift}));
        out(a / b);
        out(a % b);
        out((a | b) & ~(a & b));
    }}
    """
    module = compile_source(source)
    out = Interpreter(module).run("main").output
    mask = 0xFFFFFFFF
    assert out == [
        (a + b) & mask,
        (a - b) & mask,
        ((a * b) & mask) ^ (a >> shift),
        a // b,
        a % b,
        (a | b) & (~(a & b) & mask),
    ]
