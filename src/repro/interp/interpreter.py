"""IR interpreter — the functional simulator of the compilation pipeline.

Executes a :class:`~repro.ir.function.Module` with exact wrapping integer
semantics, emulating SIR speculation: a speculative instruction whose result
does not fit its squeezed type *misspeculates*, transferring control to the
containing region's handler (the software path the BITSPEC hardware triggers
via PC+Δ).

The interpreter doubles as the *bitwidth profiler's* measurement engine: with
``trace=True`` it records, per SSA variable, the number of dynamic
assignments and the min/avg/max ``RequiredBits`` over them (§3.2.2), plus the
aggregate bitwidth histograms behind Figures 1 and 5.

Execution runs on a *lowered* form, built per run.  A function is lowered on
its first call: every SSA value, argument, constant and global address gets a
slot in a frame template (constants and addresses pre-filled), so an operand
is always ``env[i]``.  Each block is lowered the first time it is entered,
into one closure per instruction with opcode, mask, element size and
signedness resolved; phis become a parallel copy per incoming edge, a
terminator returns the next block's index, and a speculative instruction
whose value does not fit raises :class:`_Misspeculation`, which the block
loop turns into the jump to the region's handler.  Under ``trace=True`` each
integer-valued closure also counts ``bit_length()`` of its result into its
own histogram (an ``iN`` value needs at most N+1 slots); the histograms fold
into the :class:`Trace` when :meth:`Interpreter.run` returns (a run that
raises folds nothing).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.interp.memory import (
    FlatMemory,
    STACK_TOP,
    initialize_globals,
    layout_globals,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BINARY_OPS,
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    Gep,
    Icmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.types import IntType, required_bits
from repro.ir.values import Constant, GlobalVariable, Value


class TrapError(Exception):
    """The program performed an undefined operation (e.g. division by zero)."""


class StepLimitExceeded(Exception):
    """The program exceeded the interpreter's dynamic instruction budget."""


@dataclass
class VarStats:
    """Dynamic RequiredBits statistics for one SSA variable (§3.2.2)."""

    count: int = 0
    total_bits: int = 0
    min_bits: int = 64
    max_bits: int = 0

    def record(self, bits: int) -> None:
        self.count += 1
        self.total_bits += bits
        if bits < self.min_bits:
            self.min_bits = bits
        if bits > self.max_bits:
            self.max_bits = bits

    @property
    def avg_bits(self) -> float:
        return self.total_bits / self.count if self.count else 0.0


def bucket(bits: int) -> int:
    """Histogram bucket (8/16/32/64) for a bit count."""
    for edge in (8, 16, 32):
        if bits <= edge:
            return edge
    return 64


@dataclass
class Trace:
    """Aggregated dynamic statistics of one execution."""

    instructions: int = 0
    int_instructions: int = 0
    #: dynamic integer instructions bucketed by declared result width (Fig 1b)
    declared_hist: dict[int, int] = field(
        default_factory=lambda: {8: 0, 16: 0, 32: 0, 64: 0}
    )
    #: dynamic integer instructions bucketed by RequiredBits (Fig 1a)
    required_hist: dict[int, int] = field(
        default_factory=lambda: {8: 0, 16: 0, 32: 0, 64: 0}
    )
    #: per-variable RequiredBits statistics, keyed by (function, value name)
    var_stats: dict[tuple[str, str], VarStats] = field(default_factory=dict)
    misspeculations: int = 0
    #: misspeculations per (function, region id)
    misspec_by_region: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of a program run."""

    return_value: Optional[int]
    output: list[int]
    trace: Trace
    memory: FlatMemory
    global_addresses: dict[str, int]


class _Misspeculation(Exception):
    """A speculative instruction's value did not fit its squeezed type.

    ``args[0]`` is the instruction's index in its block segment.
    """


_LOAD_CHECK = (
    "p = env[a]\n"
    "if p < 0 or p + k > size:\n"
    '    raise MemoryError(f"load out of bounds: 0x{p:x}+{k}")\n'
)
_MISSPECULATE = "    raise _Misspeculation(pos)"

#: Lowering templates: each body computes ``v`` from the frame ``env`` and
#: constants fixed at lowering time — operand slots ``a``/``b``/``c``, result
#: mask ``m``, sign bit ``s``, shift clamp or element size ``k``, element
#: mask ``e``, segment index ``pos``, memory ``data`` of ``size`` bytes.
#: Values in the frame are always wrapped to their type, so ``(x ^ s) - s``
#: reads ``x`` as signed.  ``spec-*`` forms misspeculate instead of wrapping.
_BODIES = {
    "add": "v = (env[a] + env[b]) & m",
    "sub": "v = (env[a] - env[b]) & m",
    "mul": "v = (env[a] * env[b]) & m",
    "and": "v = env[a] & env[b]",
    "or": "v = env[a] | env[b]",
    "xor": "v = env[a] ^ env[b]",
    "shl": "r = env[b]\nv = (env[a] << r) & m if r < 64 else 0",
    "lshr": "v = env[a] >> env[b]",
    "ashr": "v = (((env[a] ^ s) - s) >> min(env[b], k)) & m",
    "udiv": 'x = env[a]\nr = env[b]\nif not r:\n    raise TrapError("udiv by zero")\nv = x // r',
    "urem": 'x = env[a]\nr = env[b]\nif not r:\n    raise TrapError("urem by zero")\nv = x % r',
    "sdiv": (
        'x = (env[a] ^ s) - s\nr = env[b]\nif not r:\n    raise TrapError("sdiv by zero")\n'
        "y = (r ^ s) - s\nq = abs(x) // abs(y)\nv = (-q if (x < 0) != (y < 0) else q) & m"
    ),
    "srem": (
        'x = (env[a] ^ s) - s\nr = env[b]\nif not r:\n    raise TrapError("srem by zero")\n'
        "q = abs(x) % abs((r ^ s) - s)\nv = (-q if x < 0 else q) & m"
    ),
    "spec-add": f"v = env[a] + env[b]\nif v > m:\n{_MISSPECULATE}",
    "spec-sub": f"v = env[a] - env[b]\nif v < 0:\n{_MISSPECULATE}",
    "spec-mul": f"v = env[a] * env[b]\nif v > m:\n{_MISSPECULATE}",
    "spec-shl": f"r = env[b]\nv = env[a] << r if r < 64 else 0\nif v > m:\n{_MISSPECULATE}",
    "select": "v = env[b] if env[a] else env[c]",
    "zext": "v = env[a]",
    "sext": "v = ((env[a] ^ s) - s) & m",
    "trunc": "v = env[a] & m",
    "spec-trunc": f"x = env[a]\nv = x & m\nif v != x:\n{_MISSPECULATE}",
    "load": _LOAD_CHECK + 'v = int.from_bytes(data[p:p + k], "little") & m',
    "load1": _LOAD_CHECK + "v = data[p] & m",
    "spec-load": (
        _LOAD_CHECK + 'x = int.from_bytes(data[p:p + k], "little") & e\n'
        f"v = x & m\nif v != x:\n{_MISSPECULATE}"
    ),
    "spec-load1": _LOAD_CHECK + f"x = data[p] & e\nv = x & m\nif v != x:\n{_MISSPECULATE}",
    "gep": "v = (env[a] + ((env[b] ^ s) - s) * k) & 0xFFFFFFFF",
}
_BODIES.update(
    (pred, f"v = 1 if env[a] {op} env[b] else 0")
    for pred, op in (("eq", "=="), ("ne", "!="), ("ult", "<"), ("ule", "<="),
                     ("ugt", ">"), ("uge", ">="))
)
_BODIES.update(
    (pred, f"v = 1 if (env[a] ^ s) {op} (env[b] ^ s) else 0")
    for pred, op in (("slt", "<"), ("sle", "<="), ("sgt", ">"), ("sge", ">="))
)


#: every ``bit_length`` an integer value can have, and its :func:`bucket`
_BIT_LENGTHS = range(65)
_BUCKETS = [bucket(bits) for bits in _BIT_LENGTHS]


#: the namespace every template closure runs in
_TEMPLATE_GLOBALS = {"TrapError": TrapError, "_Misspeculation": _Misspeculation}


@functools.lru_cache(maxsize=None)
def _factory(key: str):
    """``make(**constants)`` building the closure for template ``key``; a
    traced closure (histogram ``h`` given) counts each result's
    ``bit_length``."""
    name = "make_" + key.replace("-", "_")
    source = "\n".join([
        f"def {name}(a=0, b=0, c=0, d=0, m=0, s=0, k=0, e=0, h=None, pos=0,"
        " data=None, size=0):",
        "    def op(env):",
        *(f"        {line}" for line in _BODIES[key].split("\n")),
        "        env[d] = v",
        "        if h is not None:",
        "            h[v.bit_length()] += 1",
        "    return op",
    ])
    exec(source, _TEMPLATE_GLOBALS)
    return _TEMPLATE_GLOBALS.pop(name)


class _Function:
    """One function's lowered form: the frame template, and its blocks,
    each lowered (a :class:`_Block`) the first time it is entered."""

    __slots__ = ("ir", "bbs", "index", "slots", "template", "arg_slots", "blocks")

    def __init__(self, ir: Function, global_addresses: dict[str, int]) -> None:
        self.ir = ir
        #: the function's blocks, then any other block a branch or a
        #: region handler reaches
        self.bbs = list(ir.blocks)
        self.index = {bb: i for i, bb in enumerate(self.bbs)}
        self.slots: dict[Value, int] = {}
        #: slot 0 carries the return value out of a ``ret``
        self.template: list = [None]
        self.arg_slots = [self._slot(arg, global_addresses) for arg in ir.args]
        slots = self.slots
        for bb in self.bbs:  # grows while it scans
            for inst in bb.instructions:
                for value in (inst, *inst.operands):
                    if value not in slots:
                        self._slot(value, global_addresses)
                kind = type(inst)
                if kind is Br:
                    self._reach(inst.target)
                elif kind is CondBr:
                    self._reach(inst.if_true)
                    self._reach(inst.if_false)
            if bb.region is not None and bb.region.handler is not None:
                self._reach(bb.region.handler)
        self.blocks: list[Optional[_Block]] = [None] * len(self.bbs)

    def _slot(self, value: Value, global_addresses: dict[str, int]) -> int:
        slot = self.slots[value] = len(self.template)
        if isinstance(value, Constant):
            self.template.append(value.value)
        elif isinstance(value, GlobalVariable):
            self.template.append(global_addresses.get(value.name))
        else:
            self.template.append(None)
        return slot

    def _reach(self, bb) -> None:
        if bb not in self.index:
            self.index[bb] = len(self.bbs)
            self.bbs.append(bb)


class _Block:
    """A lowered block.

    ``segments`` holds ``(n, ops)`` runs of closures, split after each call
    so the step budget is exact when a callee starts; the last op of the
    last segment is the terminator.  ``phis`` lists ``(phi, slot, hist)``;
    ``edges`` maps a predecessor's index (-1 at function entry) to the phis'
    parallel copy along that edge.
    """

    __slots__ = ("ir", "phis", "edges", "segments")

    def __init__(self, ir, phis: list, segments: tuple) -> None:
        self.ir = ir
        self.phis = phis
        self.edges: dict = {}
        self.segments = segments


def _parallel_copy(moves: tuple):
    """The phi copy for one edge: ``moves`` is ``(src, dst, hist)`` per phi."""
    if len(moves) == 1 and moves[0][2] is None:
        (a, d, _), = moves

        def copy(env):
            env[d] = env[a]

        return copy
    sources = tuple(a for a, _, _ in moves)
    targets = tuple((d, h) for _, d, h in moves)

    def copy(env):
        for (d, h), v in zip(targets, [env[a] for a in sources]):
            env[d] = v
            if h is not None:
                h[v.bit_length()] += 1

    return copy


class Interpreter:
    """Executes IR modules; see module docstring."""

    def __init__(
        self,
        module: Module,
        *,
        trace: bool = False,
        step_limit: int = 200_000_000,
    ) -> None:
        self.module = module
        self.tracing = trace
        self.step_limit = step_limit
        self.memory = FlatMemory()
        self.global_addresses = layout_globals(module)
        initialize_globals(self.memory, module, self.global_addresses)
        self.trace = Trace()
        self.output: list[int] = []
        self._sp = STACK_TOP
        self._steps = 0
        #: lowered functions by name and the histograms of traced
        #: instructions, both alive only during run()
        self._lowered: dict[str, _Function] = {}
        self._hists: list = []

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[list[int]] = None) -> RunResult:
        """Run ``entry`` with integer ``args``; returns the result bundle."""
        steps, misspeculations = self._steps, self.trace.misspeculations
        try:
            value = self._call(self._function(entry), list(args or []))
            if self.tracing:
                self._fold(self._steps - steps,
                           self.trace.misspeculations - misspeculations)
        finally:
            # the closures refer back to this interpreter: drop them here so
            # no cycle keeps the memory image alive
            self._lowered = {}
            self._hists = []
        return RunResult(
            return_value=value,
            output=self.output,
            trace=self.trace,
            memory=self.memory,
            global_addresses=self.global_addresses,
        )

    # -- execution -------------------------------------------------------------

    def _function(self, name: str) -> _Function:
        fn = self._lowered.get(name)
        if fn is None:
            fn = self._lowered[name] = _Function(
                self.module.function(name), self.global_addresses
            )
        return fn

    def _call(self, fn: _Function, args: list[int]) -> Optional[int]:
        func = fn.ir
        if len(args) != len(func.args):
            raise TrapError(
                f"{func.name}: expected {len(func.args)} args, got {len(args)}"
            )
        env = fn.template.copy()
        for formal, slot, actual in zip(func.args, fn.arg_slots, args):
            value = env[slot] = formal.type.wrap(actual)
            if self.tracing and isinstance(formal.type, IntType):
                # Arguments are profiled like variables (they are assigned a
                # value per invocation) but are not dynamic instructions.
                key = (func.name, formal.name)
                stats = self.trace.var_stats.get(key)
                if stats is None:
                    stats = self.trace.var_stats[key] = VarStats()
                stats.record(required_bits(value))
        if not fn.blocks:
            func.entry  # raises: the function has no blocks
        blocks = fn.blocks
        limit = self.step_limit
        saved_sp = self._sp
        index, pred = 0, -1
        try:
            while True:
                block = blocks[index] or self._lower_block(fn, index)
                if block.phis:
                    copy = block.edges.get(pred) or self._lower_edge(fn, block, pred)
                    copy(env)
                    self._steps += len(block.phis)
                target = None
                try:
                    for n, ops in block.segments:
                        base = self._steps
                        if base + n > limit:
                            target = self._stepwise(fn, block, ops, env, base)
                        else:
                            self._steps = base + n
                            for op in ops:
                                target = op(env)
                except _Misspeculation as exc:
                    self._steps = base + exc.args[0] + 1
                    target = self._misspeculate(fn, block.ir)
                if target is None:
                    raise TrapError(f"{func.name}:{block.ir.name} fell off block end")
                if target < 0:
                    return env[0]
                index, pred = target, index
        finally:
            self._sp = saved_sp

    def _stepwise(self, fn: _Function, block: _Block, ops, env, base: int):
        """Run a segment that may cross the step budget, checking it before
        every instruction."""
        target = None
        for steps, op in enumerate(ops, base + 1):
            self._steps = steps
            if steps > self.step_limit:
                raise StepLimitExceeded(f"at {fn.ir.name}:{block.ir.name}")
            target = op(env)
        return target

    def _misspeculate(self, fn: _Function, bb) -> int:
        region = bb.region
        if region is None or region.handler is None:
            raise TrapError(
                f"{fn.ir.name}:{bb.name}: misspeculation outside a region"
            )
        self.trace.misspeculations += 1
        key = (fn.ir.name, region.id)
        self.trace.misspec_by_region[key] = (
            self.trace.misspec_by_region.get(key, 0) + 1
        )
        return fn.index[region.handler]

    def _fold(self, steps: int, misspeculations: int) -> None:
        """Fold this run's histograms into :attr:`trace`.  Every step but a
        misspeculated one is a traced instruction."""
        trace = self.trace
        trace.instructions += steps - misspeculations
        required = trace.required_hist
        for func, name, bits, hist in self._hists:
            seen = list(itertools.compress(_BIT_LENGTHS, hist))
            if not seen:
                continue
            count = total = 0
            for b in seen:
                n = hist[b]
                count += n
                total += (b or 1) * n  # RequiredBits(0) = 1
                required[_BUCKETS[b]] += n
            trace.int_instructions += count
            trace.declared_hist[_BUCKETS[bits]] += count
            stats = trace.var_stats.get((func, name))
            if stats is None:
                stats = trace.var_stats[(func, name)] = VarStats()
            stats.count += count
            stats.total_bits += total
            stats.min_bits = min(stats.min_bits, seen[0] or 1)
            stats.max_bits = max(stats.max_bits, seen[-1] or 1)

    # -- lowering --------------------------------------------------------------

    def _lower_block(self, fn: _Function, index: int) -> _Block:
        bb = fn.bbs[index]
        phis, segments, ops = [], [], []
        ended = False
        for inst in bb.instructions:
            kind = type(inst)
            if kind is Phi:  # every phi of the block, as block.phis() lists them
                phis.append((inst, fn.slots[inst], self._hist(fn, inst)))
            elif not ended:
                lower = _LOWERINGS.get(kind, Interpreter._lower_unknown)
                ops.append(lower(self, fn, inst, len(ops)))
                if kind is Br or kind is CondBr or kind is Ret:
                    ended = True
                elif kind is Call and inst.callee != "__out":
                    segments.append((len(ops), tuple(ops)))
                    ops = []
        if ops:
            segments.append((len(ops), tuple(ops)))
        block = fn.blocks[index] = _Block(bb, phis, tuple(segments))
        return block

    def _lower_edge(self, fn: _Function, block: _Block, pred: int):
        pred_bb = fn.bbs[pred] if pred >= 0 else None
        copy = block.edges[pred] = _parallel_copy(tuple(
            (fn.slots[phi.incoming_for_block(pred_bb)], slot, hist)
            for phi, slot, hist in block.phis
        ))
        return copy

    def _hist(self, fn: _Function, inst: Instruction) -> Optional[list[int]]:
        """A fresh bit-length histogram for a traced integer result."""
        if not (self.tracing and isinstance(inst.type, IntType)):
            return None
        hist = [0] * (inst.type.bits + 1)
        self._hists.append((fn.ir.name, inst.name, inst.type.bits, hist))
        return hist

    def _template(self, fn: _Function, inst: Instruction, key: str, **constants):
        return _factory(key)(d=fn.slots[inst], h=self._hist(fn, inst), **constants)

    # One method per instruction class: ``inst`` as a closure over the frame;
    # ``pos`` is its index in the block segment.

    def _lower_binop(self, fn: _Function, inst: BinOp, pos: int):
        lhs, rhs = inst.operands
        ty = inst.type
        key = inst.opcode
        if inst.speculative and f"spec-{key}" in _BODIES:
            key = f"spec-{key}"
        return self._template(
            fn, inst, key, a=fn.slots[lhs], b=fn.slots[rhs], m=ty.mask,
            s=1 << (ty.bits - 1), k=ty.bits - 1, pos=pos,
        )

    def _lower_icmp(self, fn: _Function, inst: Icmp, pos: int):
        lhs, rhs = inst.operands
        return self._template(
            fn, inst, inst.pred, a=fn.slots[lhs], b=fn.slots[rhs],
            s=1 << (lhs.type.bits - 1),
        )

    def _lower_select(self, fn: _Function, inst: Select, pos: int):
        cond, if_true, if_false = (fn.slots[v] for v in inst.operands)
        return self._template(fn, inst, "select", a=cond, b=if_true, c=if_false)

    def _lower_cast(self, fn: _Function, inst: Cast, pos: int):
        (value,) = inst.operands
        key = inst.opcode
        if key == "trunc" and inst.speculative:
            key = "spec-trunc"
        return self._template(
            fn, inst, key, a=fn.slots[value], m=inst.type.mask,
            s=1 << (value.type.bits - 1), pos=pos,
        )

    def _lower_load(self, fn: _Function, inst: Load, pos: int):
        (ptr,) = inst.operands
        elem = ptr.type.pointee
        key = "load1" if elem.size_bytes == 1 else "load"
        mask = inst.type.mask
        if inst.speculative:
            key = f"spec-{key}"
        else:
            mask &= elem.mask
        return self._template(
            fn, inst, key, a=fn.slots[ptr], m=mask, k=elem.size_bytes,
            e=elem.mask, pos=pos, data=self.memory.data, size=self.memory.size,
        )

    def _lower_gep(self, fn: _Function, inst: Gep, pos: int):
        ptr, index = inst.operands
        return self._template(
            fn, inst, "gep", a=fn.slots[ptr], b=fn.slots[index],
            s=1 << (index.type.bits - 1), k=inst.type.pointee.size_bytes,
        )

    def _lower_store(self, fn: _Function, inst: Store, pos: int):
        value, ptr = (fn.slots[v] for v in inst.operands)
        data, size = self.memory.data, self.memory.size
        width = inst.ptr.type.pointee.size_bytes
        mask = (1 << (8 * width)) - 1

        def store(env):
            p = env[ptr]
            if p < 0 or p + width > size:
                raise MemoryError(f"store out of bounds: 0x{p:x}+{width}")
            data[p:p + width] = (env[value] & mask).to_bytes(width, "little")

        def store1(env):
            p = env[ptr]
            if p < 0 or p >= size:
                raise MemoryError(f"store out of bounds: 0x{p:x}+1")
            data[p] = env[value] & 0xFF

        return store1 if width == 1 else store

    def _lower_alloca(self, fn: _Function, inst: Alloca, pos: int):
        result = fn.slots[inst]
        size = inst.elem_type.size_bytes * inst.count
        align = ~(inst.elem_type.size_bytes - 1)

        def alloca(env):
            sp = self._sp = (self._sp - size) & align
            env[result] = sp

        return alloca

    def _lower_call(self, fn: _Function, inst: Call, pos: int):
        args = tuple(fn.slots[a] for a in inst.operands)
        if inst.callee == "__out":
            output = self.output

            def out(env):
                output.extend([env[a] for a in args])

            return out
        callee = inst.callee
        if not inst.has_result:

            def call(env):
                self._call(self._function(callee), [env[a] for a in args])

            return call
        result, mask, hist = fn.slots[inst], inst.type.mask, self._hist(fn, inst)

        def call_value(env):
            value = self._call(self._function(callee), [env[a] for a in args])
            v = env[result] = (value if value is not None else 0) & mask
            if hist is not None:
                hist[v.bit_length()] += 1

        return call_value

    def _lower_br(self, fn: _Function, inst: Br, pos: int):
        target = fn.index[inst.target]
        return lambda env: target

    def _lower_condbr(self, fn: _Function, inst: CondBr, pos: int):
        cond = fn.slots[inst.cond]
        if_true, if_false = fn.index[inst.if_true], fn.index[inst.if_false]
        return lambda env: if_true if env[cond] else if_false

    def _lower_ret(self, fn: _Function, inst: Ret, pos: int):
        if inst.value is None:
            return lambda env: -1
        value = fn.slots[inst.value]

        def ret(env):
            env[0] = env[value]
            return -1

        return ret

    def _lower_unknown(self, fn: _Function, inst: Instruction, pos: int):
        def unknown(env):  # pragma: no cover - defensive
            raise TrapError(f"cannot interpret {inst.opcode}")

        return unknown


_LOWERINGS = {
    BinOp: Interpreter._lower_binop,
    Icmp: Interpreter._lower_icmp,
    Select: Interpreter._lower_select,
    Cast: Interpreter._lower_cast,
    Load: Interpreter._lower_load,
    Gep: Interpreter._lower_gep,
    Store: Interpreter._lower_store,
    Alloca: Interpreter._lower_alloca,
    Call: Interpreter._lower_call,
    Br: Interpreter._lower_br,
    CondBr: Interpreter._lower_condbr,
    Ret: Interpreter._lower_ret,
}


def evaluate_binop(op: str, lhs: int, rhs: int, ty: IntType) -> int:
    """Public constant-folding helper: wrapped result of a binary op on
    operands in ``ty``'s unsigned representation (the interpreter's own
    lowering of ``op``)."""
    if op not in BINARY_OPS:
        raise TrapError(f"unknown binop {op}")
    env = [lhs, rhs, None]
    _factory(op)(
        a=0, b=1, d=2, m=ty.mask, s=1 << (ty.bits - 1), k=ty.bits - 1
    )(env)
    return env[2]


def evaluate_icmp(pred: str, lhs: int, rhs: int, ty: IntType) -> bool:
    """Public constant-folding helper: result of an integer comparison."""
    if pred == "eq":
        return lhs == rhs
    if pred == "ne":
        return lhs != rhs
    if pred == "ult":
        return lhs < rhs
    if pred == "ule":
        return lhs <= rhs
    if pred == "ugt":
        return lhs > rhs
    if pred == "uge":
        return lhs >= rhs
    a, b = ty.to_signed(lhs), ty.to_signed(rhs)
    if pred == "slt":
        return a < b
    if pred == "sle":
        return a <= b
    if pred == "sgt":
        return a > b
    if pred == "sge":
        return a >= b
    raise TrapError(f"unknown icmp predicate {pred}")  # pragma: no cover
