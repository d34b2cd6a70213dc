"""Every engine against the one opcode semantics table.

:mod:`repro.arch.semantics` writes once what each value-producing opcode
computes and when a ``bs_*`` op misspeculates.  ``ooo`` and the
verifier's executor compute through it; ``legacy``, the predecoded
stepper (``fast`` with translation off) and the translated regions
(``compiled``: ``fast`` translating every region on first entry) keep
their own inlined copies.  These tests run every row
on all five copies — the executor with concrete inputs — over an edge
grid plus random operands, at op widths 1/2/4 and slice widths
4/8/16/32, and compare each copy with the table: output values, carries,
the misspeculation verdict and the Δ-handler it reaches.

Each grid packs into one straight-line program.  A case loads its
operands with ``movi``, runs the op and outputs two words; a speculative
case that misspeculates reaches its handler through the skeleton slot at
``pc + Δ``, which outputs the untouched destination and a marker instead.
The expected words come from the table's lane forms over the whole grid
at once, so a bent scalar form of a twin row shows as ``ooo`` and the
executor disagreeing, and a bent engine arm as that engine disagreeing.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import predecode
from repro.arch.machine import HALT, Machine, MachineError
from repro.arch.semantics import (
    ALU,
    CARRY,
    CHECK,
    DIV,
    DIV_OPS,
    EXT,
    MULL,
    READS_CARRY,
    ROWS,
    SHIFTED,
    SPEC,
    holds,
    out_of_slice,
)
from repro.arch.widths import SLICE_WIDTHS, slice_mask
from repro.backend.layout import LinkedProgram
from repro.backend.mir import Imm, MachineInst, Slice
from repro.ir.function import Module
from repro.verify.executor import SymbolicMachine

COPIES = ("legacy", "fast", "compiled", "ooo", "executor")
WIDTHS = (1, 2, 4)
EDGES = (
    0, 1, 7, 8, 0xF, 0x10, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF,
    0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF,
)
SHIFTS = (0, 1, 7, 8, 15, 16, 31, 32, 33, 255)
CONDS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")

#: registers the program keeps constant: 0, 1 and the handler marker
ZERO, ONE, MARK = 9, 10, 11
MISS = 0xDEAD_BEEF


def _mask(width: int) -> int:
    return (1 << (8 * width)) - 1


def _edges(width: int) -> list:
    return sorted({v & _mask(width) for v in EDGES})


def _lanes(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def R(reg: int, size: int = 4) -> Slice:
    return Slice(reg, 0, size)


class _Program:
    """Straight-line cases and the words each of them outputs."""

    def __init__(self) -> None:
        self.code = []
        self.handlers = {}  # speculative pc -> its handler's pc
        self.cases = []  # (label, the words the case outputs)
        self.misspecs = 0
        self.movi(ZERO, 0)
        self.movi(ONE, 1)
        self.movi(MARK, MISS)
        self.emit("subspi", uses=[Imm(64)])  # scratch memory for bs_ldr

    def emit(self, opcode, defs=(), uses=(), **kw) -> int:
        self.code.append(MachineInst(opcode, list(defs), list(uses), **kw))
        return len(self.code) - 1

    def movi(self, reg: int, value: int) -> None:
        self.emit("movi", [R(reg)], [Imm(value)])

    def expect(self, label, *columns) -> None:
        """One case per lane of ``columns``: the words it outputs."""
        for words in zip(*(column.tolist() for column in columns)):
            self.cases.append((label, tuple(int(w) for w in words)))

    def speculate(self, opcode, defs, uses, width) -> None:
        """One speculative op.  Its handler block follows it: clean, the op
        outputs 0 and runs on into the block; misspeculating, it reaches
        the block through ``pc + Δ``.  The block outputs ``r2``, which a
        misspeculating op leaves 0, and :data:`MISS`."""
        self.movi(2, 0)
        pc = self.emit(opcode, defs, uses, width=width, speculative=True)
        self.emit("out", uses=[R(ZERO)])
        self.handlers[pc] = self.emit("out", uses=[R(2, width)])
        self.emit("out", uses=[R(MARK)])
        self.end_region()

    def end_region(self) -> None:
        """Continue at the next pc through ``bx``: a case that branches
        then translates as a region of its own, not as the head of a
        trace that runs on through the cases after it."""
        self.movi(14, len(self.code) + 2)
        self.emit("bx")

    def expect_verdicts(self, label, values, misses) -> None:
        """Cases of :meth:`speculate`: ``values`` where ``misses`` is clean."""
        for value, miss in zip(values.tolist(), misses.tolist()):
            words = (0, MISS) if miss else (0, int(value), MISS)
            self.cases.append((label, words))
            self.misspecs += bool(miss)

    def words(self) -> list:
        return [word for _label, words in self.cases for word in words]

    def link(self, slice_width: int) -> LinkedProgram:
        insts = self.code + [MachineInst("movi", [R(14)], [Imm(HALT)])]
        insts.append(MachineInst("bx"))
        delta = len(insts)
        skeleton = [MachineInst("nop") for _ in insts]
        for pc, handler in self.handlers.items():
            skeleton[pc] = MachineInst("b", target=handler)
        return LinkedProgram(
            isa="ARM_BS",
            insts=insts + skeleton,
            delta=delta,
            slice_width=slice_width,
        )


# -- emitting one row over a list of operands ------------------------------------


def _emit(prog, opcode, width, operands, slice_width=8) -> None:
    """Cases of ``opcode`` at op ``width`` over ``(a, b, k)`` operands: ``k``
    is the carry in of a carry row and the shift of a shifted row."""
    shape, fn = ROWS[opcode]
    m = _mask(width)
    if shape == DIV:
        operands = [(a, b, k) for a, b, k in operands if b & m]
    a = _lanes(x & m for x, _, _ in operands)
    b = _lanes(y & m for _, y, _ in operands)
    zeros = np.zeros(len(operands), dtype=np.int64)
    label = f"{opcode} w{width}"
    if shape == SPEC:
        wide = fn(a, b)
        miss = out_of_slice(wide, slice_mask(slice_width))
        for x, y, _ in operands:
            prog.movi(0, x & m)
            prog.movi(1, y & m)
            prog.speculate(opcode, [R(2, width)], [R(0, width), R(1, width)], width)
        prog.expect_verdicts(label, wide & m, miss)
        return
    if shape == CHECK:
        full = _lanes(x for x, _, _ in operands)
        miss = fn(full, slice_mask(slice_width))
        defs = [R(2, width)] if opcode == "bs_trunc" else []
        for x, _, _ in operands:
            prog.movi(0, x)
            prog.speculate(opcode, defs, [R(0)], width)
        prog.expect_verdicts(label, full & m if defs else zeros, miss)
        return
    if shape == EXT:
        # a full word read back through a ``width``-byte slice
        full = _lanes(x for x, _, _ in operands)
        for x, _, _ in operands:
            prog.movi(0, x)
            prog.emit(opcode, [R(2)], [R(0, width)], width=width)
            prog.emit("out", uses=[R(2)])
            prog.emit("out", uses=[R(ZERO)])
        prog.expect(label, fn(full & m, 8 * width) & 0xFFFFFFFF, zeros)
        return
    for x, y, k in operands:
        prog.movi(0, x & m)
        prog.movi(1, y & m)
        uses = [R(0, width), R(1, width)]
        if shape == CARRY:
            # set the incoming carry: 0xFFFFFFFF + 1 carries, 0 + 0 does not
            prog.movi(5, 0xFFFF_FFFF if k & 1 else 0)
            prog.movi(6, k & 1)
            prog.emit("adds", [R(7)], [R(5), R(6)])
        if shape == SHIFTED:
            uses.append(Imm(_shift(opcode, k)))
        defs = [R(2, width), R(3)] if shape == MULL else [R(2, width)]
        prog.emit(opcode, defs, uses, width=width)
        if shape == CARRY:
            prog.emit("adc", [R(3)], [R(ZERO), R(ZERO)])  # r3 = carry out
        prog.emit("out", uses=[R(2, width)])
        prog.emit("out", uses=[R(3) if shape in (CARRY, MULL) else R(ZERO)])
    if shape == CARRY:
        value, carry = fn(a, b, _lanes(k & 1 for _, _, k in operands))
        prog.expect(label, value & m, carry)
    elif shape == MULL:
        low, high = fn(a, b)
        prog.expect(label, low & m, high)
    elif shape == SHIFTED:
        shifts = [_shift(opcode, k) for _, _, k in operands]
        values = [fn(a[i : i + 1], b[i : i + 1], s) for i, s in enumerate(shifts)]
        prog.expect(label, np.concatenate(values) & m, zeros)
    else:  # ALU, DIV
        prog.expect(label, fn(a, b, width) & m, zeros)


def _shift(opcode: str, k: int) -> int:
    """The shift immediate of a shifted row: ``addsl`` scales an index by
    1-8, ``orrsl`` shifts either way."""
    return abs(k) % 4 if opcode == "addsl" else k


def _emit_load(prog, width, values, slice_width) -> None:
    """``bs_ldr`` of ``width`` bytes from a stored word."""
    m = _mask(width)
    loaded = _lanes(v & m for v in values)
    miss = out_of_slice(loaded, slice_mask(slice_width))
    for v in values:
        prog.movi(0, v)
        prog.emit("str", uses=[R(0), R(13)])
        prog.speculate("bs_ldr", [R(2, width)], [R(13), Imm(width)], width)
    prog.expect_verdicts(f"bs_ldr w{width}", loaded, miss)


def _emit_predicate(prog, width, pairs, cond) -> None:
    """``cmp``/``bs_cmp`` (``cmp64hi``+``cmp64lo`` at width 8), then the
    predicate through ``movcond`` and through ``bcond``."""
    for i, (x, y) in enumerate(pairs):
        if width == 8:
            prog.movi(0, x >> 32)
            prog.movi(1, y >> 32)
            prog.movi(5, x & 0xFFFF_FFFF)
            prog.movi(6, y & 0xFFFF_FFFF)
            prog.emit("cmp64hi", uses=[R(0), R(1)])
            prog.emit("cmp64lo", uses=[R(5), R(6)])
        else:
            prog.movi(0, x)
            prog.movi(1, y)
            opcode = "bs_cmp" if i % 2 else "cmp"
            prog.emit(opcode, uses=[R(0, width), R(1, width)], width=width)
        prog.movi(2, 0)
        prog.emit("movcond", [R(2)], [R(ONE)], cond=cond)
        prog.movi(3, 1)
        branch = prog.emit("bcond", cond=cond)
        prog.movi(3, 0)  # the fall-through path only
        prog.code[branch].target = len(prog.code)
        prog.emit("out", uses=[R(2)])
        prog.emit("out", uses=[R(3)])
        prog.end_region()
    dtype = np.uint64 if width == 8 else np.int64
    a = np.array([x for x, _ in pairs], dtype=dtype)
    b = np.array([y for _, y in pairs], dtype=dtype)
    taken = np.asarray(holds(a, b, width, cond)).astype(np.int64)
    prog.expect(f"{cond} w{width}", taken, taken)


# -- running the five copies ------------------------------------------------------


def _run(copy: str, linked: LinkedProgram):
    """(trap, out words, misspeculations) of one run."""
    if copy == "executor":
        machine = SymbolicMachine(SimpleNamespace(linked=linked, module=Module()), {})
        ((trap, out, _image, _lanes),) = machine.run().terminals
        return trap, [int(v) for v in out], machine.misspec_lanes
    saved = predecode.TRANSLATE_AFTER
    if copy == "fast":
        predecode.TRANSLATE_AFTER = None  # step every region
    elif copy == "compiled":
        predecode.TRANSLATE_AFTER = 0  # translate every region
    try:
        engine = "fast" if copy == "compiled" else copy
        result = Machine(linked, Module(), engine=engine).run()
    except MachineError as exc:
        return str(exc), None, None
    finally:
        predecode.TRANSLATE_AFTER = saved
    return None, result.output, result.misspeculations


def _check(copy: str, prog: _Program, slice_width: int = 8) -> None:
    trap, out, misspecs = _run(copy, prog.link(slice_width))
    assert trap is None, f"{copy}: trapped: {trap}"
    if out != prog.words():
        at = 0
        for i, (label, words) in enumerate(prog.cases):
            got = tuple(out[at : at + len(words)])
            if got != words:
                pytest.fail(f"{copy}: case {i} ({label}): got {got}, table says {words}")
            at += len(words)
        pytest.fail(f"{copy}: {len(out)} words, table says {at}")
    assert misspecs == prog.misspecs, copy


@functools.lru_cache(maxsize=None)  # one program per grid, for every copy
def _value_rows(width: int) -> _Program:
    prog = _Program()
    grid = [(a, b, 0) for a in _edges(width) for b in _edges(width)]
    shifts = [(a, s, 0) for a in _edges(width) for s in SHIFTS]
    for opcode, (shape, _fn) in ROWS.items():
        if shape == ALU:
            shifted = opcode in ("lsl", "lsr", "asr")
            _emit(prog, opcode, width, shifts if shifted else grid)
        elif shape in (DIV, MULL):
            _emit(prog, opcode, width, grid)
        elif shape == CARRY:
            carries = (0, 1) if opcode in READS_CARRY else (0,)
            _emit(prog, opcode, width, [(a, b, k) for a, b, _ in grid for k in carries])
        elif shape == SHIFTED:
            few = _edges(width)[::3]
            _emit(
                prog, opcode, width,
                [(a, b, k) for a in few for b in few for k in (-31, -8, -1, 0, 1, 2, 3, 16)],
            )
        elif shape == EXT:
            _emit(prog, opcode, width, [(v, 0, 0) for v in EDGES])
    return prog


@functools.lru_cache(maxsize=None)
def _speculative_rows(slice_width: int) -> _Program:
    prog = _Program()
    for width in WIDTHS:
        m = _mask(width)
        limit = slice_mask(slice_width)
        # the verdict's edges: the slice limit, a carry or borrow past it
        values = sorted({v & m for v in (0, 1, limit >> 1, limit, limit + 1, m)})
        words = sorted({v & 0xFFFF_FFFF for v in (*values, 1 << 31, limit + 1)})
        grid = [(a, b, 0) for a in values for b in values]
        shifts = [(a, s, 0) for a in values for s in (0, 1, 7, 31, 32, 255)]
        for opcode, (shape, _fn) in ROWS.items():
            if shape == SPEC:
                shifted = opcode in ("bs_lsl", "bs_lsr")
                _emit(prog, opcode, width, shifts if shifted else grid, slice_width)
            elif shape == CHECK:
                _emit(prog, opcode, width, [(v, 0, 0) for v in words], slice_width)
        _emit_load(prog, width, words, slice_width)
    return prog


@functools.lru_cache(maxsize=None)
def _predicates(width: int) -> _Program:
    prog = _Program()
    if width == 8:
        values = (0, 1, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)
    else:
        sign = 1 << (8 * width - 1)
        values = (0, 1, sign - 1, sign, _mask(width))
    pairs = [(a, b) for a in values for b in values]
    for cond in CONDS:
        _emit_predicate(prog, width, pairs, cond)
    return prog


# -- the tests --------------------------------------------------------------------


def test_table_has_a_row_for_every_value_opcode():
    """A value opcode the fast path decodes must have a table row."""
    fast = set(predecode._ALU_SUB) | set(predecode._BS_SUB) | set(DIV_OPS)
    fast |= {"mul", "umull", "adds", "adc", "subs", "sbc", "addsl", "orrsl"}
    fast |= {"uxt", "sxt", "trunc", "bs_trunc", "bs_trunc_hi"}
    assert set(ROWS) == fast


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("copy", COPIES)
def test_value_rows(copy, width):
    _check(copy, _value_rows(width))


@pytest.mark.parametrize("slice_width", SLICE_WIDTHS)
@pytest.mark.parametrize("copy", COPIES)
def test_speculative_rows(copy, slice_width):
    _check(copy, _speculative_rows(slice_width), slice_width)


@pytest.mark.parametrize("width", (1, 2, 4, 8))
@pytest.mark.parametrize("copy", COPIES)
def test_predicates(copy, width):
    _check(copy, _predicates(width))


@pytest.mark.parametrize("opcode", DIV_OPS)
@pytest.mark.parametrize("copy", COPIES)
def test_zero_divisor_traps(copy, opcode):
    prog = _Program()
    prog.movi(0, 7)
    prog.emit(opcode, [R(2)], [R(0), R(ZERO)])
    trap, _out, _misspecs = _run(copy, prog.link(8))
    assert trap == "division by zero"


_WORDS = st.integers(0, 0xFFFF_FFFF)


@settings(max_examples=30, deadline=None)
@given(
    opcode=st.sampled_from(sorted(ROWS)),
    width=st.sampled_from(WIDTHS),
    slice_width=st.sampled_from(SLICE_WIDTHS),
    operands=st.lists(
        st.tuples(_WORDS, st.one_of(_WORDS, st.integers(0, 40)), st.integers(-31, 31)),
        min_size=1,
        max_size=6,
    ),
)
def test_random_operands(opcode, width, slice_width, operands):
    prog = _Program()
    _emit(prog, opcode, width, operands, slice_width)
    for copy in COPIES:
        _check(copy, prog, slice_width)


def test_engine_processes_do_not_load_numpy():
    """The engines, the bench executor and the server import the table
    without loading numpy, and run programs on its scalar forms: numpy
    costs an engine process ~0.1 s to import."""
    code = textwrap.dedent(
        """
        import sys
        import repro.arch.compiled, repro.arch.machine, repro.arch.ooo
        import repro.arch.predecode, repro.bench.executor, repro.serve.server
        from repro.arch.machine import ENGINES, Machine
        from repro.core.pipeline import CompilerConfig, set_global_inputs
        from repro.eval.harness import get_binary
        from repro.workloads import get_workload
        assert "numpy" not in sys.modules, "numpy loaded at import"
        for name in ("crc32", "sha"):
            binary = get_binary(name, CompilerConfig.bitspec())
            set_global_inputs(binary.module, get_workload(name).inputs("test", 0))
            for engine in ENGINES:
                Machine(binary.linked, binary.module, engine=engine).run()
        assert "numpy" not in sys.modules, "numpy loaded by a run"
        """
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
