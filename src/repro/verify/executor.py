"""Bounded symbolic execution over the machine ISA.

Runs a linked binary on the :mod:`repro.verify.domain` valuation domain:
machine words are per-lane tables over the bounded input space, and every
instruction is evaluated over all lanes at once.  Every value is computed
through the opcode table of :mod:`repro.arch.semantics`, the one the
``ooo`` engine runs and ``tests/test_semantics.py`` checks against every
engine: the same slice masks, sign extensions, Δ-redirect
misspeculation verdicts and trap conditions, minus the cost model
(cycles/energy/caches), which is out of scope for the architectural
equivalence contract.  A table row takes ``int`` and lane-array operands
alike, so uniform values stay scalar-fast.

Control flow forks when lanes disagree:

* a conditional branch whose predicate differs across lanes splits the
  state into a taken and a fall-through child;
* a speculative ``bs_*`` op whose misspeculation verdict differs splits
  into a write-back child and a ``pc += Δ`` redirect child (so handler
  code is symbolically executed exactly like the hardware reaches it);
* a memory access or indirect branch through a lane-dependent address is
  concretized by forking per distinct address value;
* a lane-dependent zero divisor forks the trapping lanes off.

The terminal states make up the run's :class:`Observations`: the
architecturally visible exit state (trap, ``out()`` stream, final global
memory) of every lane, kept column-wise so :mod:`repro.verify.checker`
compares the two worlds without building one :class:`Observation` per
lane.  All budgets are deterministic (lane-steps and live states), so a
run either completes identically every time or raises
:class:`BoundExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.machine import HALT
from repro.arch.semantics import (
    ALU,
    CARRY,
    DIV,
    EXT,
    LOAD_SIZES,
    MULL,
    ROWS,
    SHIFTED,
    SPEC,
    STORE_SIZES,
    holds,
    join64,
    out_of_slice,
    select,
)
from repro.arch.widths import BYTE_MASKS as _MASKS, slice_mask
from repro.backend.mir import Imm, Slice
from repro.core.pipeline import set_global_inputs
from repro.interp.memory import FlatMemory, STACK_TOP, initialize_globals
from repro.verify.checker import DEFAULT_MAX_STATES, DEFAULT_STEP_BUDGET
from repro.verify.domain import Vec, lane, make, partition, restrict

_ND = np.ndarray


class BoundExceeded(Exception):
    """The bounded exploration ran out of budget (not a verdict either way)."""


@dataclass(frozen=True)
class Observation:
    """The architecturally visible exit state of one lane.

    ``trap`` is ``None`` for a clean halt, else the trap message; ``out``
    is the concrete ``out()`` stream; ``globals_image`` is a tuple of
    ``(name, element values)`` for every module global, read back from
    final memory — together the final register/memory state the
    BITSPEC ≡ BASELINE contract quantifies over (return values flow
    through ``out`` in driver programs; stack locals are dead on exit).
    """

    trap: object
    out: tuple
    globals_image: tuple


class Observations:
    """Every lane's :class:`Observation`, held column-wise.

    ``terminals`` lists each terminal state as ``(trap, out, image,
    lanes)``: ``out`` values and ``image`` elements are ``int`` or
    :class:`Vec` over that state's ``lanes``.  ``state_of[lane]`` indexes
    the lane's terminal state and ``position[lane]`` its slot there.
    """

    def __init__(self, terminals: list, n_lanes: int) -> None:
        self.terminals = terminals
        self.state_of = np.zeros(n_lanes, dtype=np.int64)
        self.position = np.zeros(n_lanes, dtype=np.int64)
        for index, (_trap, _out, _image, lanes) in enumerate(terminals):
            self.state_of[lanes] = index
            self.position[lanes] = np.arange(len(lanes))

    def at(self, lane_id: int) -> Observation:
        """The observation of one lane."""
        trap, out, image, _lanes = self.terminals[self.state_of[lane_id]]
        i = int(self.position[lane_id])
        return Observation(
            trap=trap,
            out=tuple(lane(v, i) for v in out),
            globals_image=tuple(
                (name, tuple(lane(e, i) for e in elems)) for name, elems in image
            ),
        )

    def first_difference(self, other: "Observations"):
        """The lowest lane whose observation differs from ``other``'s.

        Lanes are grouped by their pair of terminal states; each group
        compares its columns as arrays.  Returns ``None`` when every lane
        agrees.
        """
        key = self.state_of * len(other.terminals) + other.state_of
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        first = None
        for lanes in np.split(order, cuts):
            if first is not None and lanes[0] > first:
                continue
            differs = _differing(
                self.terminals[self.state_of[lanes[0]]],
                self.position[lanes],
                other.terminals[other.state_of[lanes[0]]],
                other.position[lanes],
            )
            hits = np.flatnonzero(differs)
            if hits.size:
                found = int(lanes[hits[0]])
                first = found if first is None else min(first, found)
        return first


def _differing(a, pos_a, b, pos_b) -> np.ndarray:
    """Per-lane disequality of two terminal states over aligned lanes."""
    trap_a, out_a, image_a, _ = a
    trap_b, out_b, image_b, _ = b
    differs = np.zeros(len(pos_a), dtype=bool)
    if (
        trap_a != trap_b
        or len(out_a) != len(out_b)
        or [(n, len(e)) for n, e in image_a] != [(n, len(e)) for n, e in image_b]
    ):
        differs[:] = True
        return differs
    columns_a = list(out_a)
    columns_b = list(out_b)
    for (_name, elems_a), (_, elems_b) in zip(image_a, image_b):
        columns_a.extend(elems_a)
        columns_b.extend(elems_b)
    for va, vb in zip(columns_a, columns_b):
        if type(va) is Vec:
            va = va.vals[pos_a]
        if type(vb) is Vec:
            vb = vb.vals[pos_b]
        differs |= va != vb
    return differs


def _raw(value):
    """The operand form of a stored value: ``int`` or lane array."""
    return value.vals if type(value) is Vec else value


class _State:
    """One symbolically executing machine, restricted to a lane subset."""

    __slots__ = ("pc", "regs", "overlay", "out", "cmp", "carry", "lanes")

    def __init__(self, pc, regs, overlay, out, cmp, carry, lanes):
        self.pc = pc
        self.regs = regs
        self.overlay = overlay
        self.out = out
        self.cmp = cmp
        self.carry = carry
        self.lanes = lanes

    def split(self, positions: np.ndarray) -> "_State":
        """A child state re-aligned to the lane subset ``positions``."""
        return _State(
            self.pc,
            [restrict(r, positions) for r in self.regs],
            {a: restrict(v, positions) for a, v in self.overlay.items()},
            [restrict(v, positions) for v in self.out],
            (
                restrict(self.cmp[0], positions),
                restrict(self.cmp[1], positions),
                self.cmp[2],
            ),
            restrict(self.carry, positions),
            self.lanes[positions],
        )


class SymbolicMachine:
    """Symbolically executes one compiled binary over a bounded input domain.

    ``symbolic`` maps scalar global names to their per-lane value tables
    (every table the same length — the joint assignment enumeration built
    by :func:`repro.verify.checker.build_lanes`); ``inputs`` holds the
    concrete values for every other input global, applied exactly like a
    concrete ``CompiledBinary.run(inputs)``.
    """

    def __init__(
        self,
        binary,
        symbolic: dict,
        *,
        inputs: dict = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        self.binary = binary
        self.linked = binary.linked
        self.module = binary.module
        self.symbolic = dict(symbolic)
        self.step_budget = step_budget
        self.max_states = max_states
        lane_counts = {len(v) for v in symbolic.values()} or {1}
        if len(lane_counts) != 1:
            raise ValueError("symbolic inputs must share one lane count")
        self.n_lanes = lane_counts.pop()
        self.spec_mask = slice_mask(getattr(self.linked, "slice_width", 8))

        if inputs:
            set_global_inputs(self.module, inputs)
        self.base = FlatMemory()
        initialize_globals(self.base, self.module, self.linked.global_addresses)

        # exploration statistics (deterministic; surfaced in verdicts)
        self.lane_steps = 0
        self.paths = 0
        self.forks = 0
        self.misspec_lanes = 0

    # -- entry ----------------------------------------------------------------

    def _initial_state(self) -> _State:
        regs = [0] * 16
        regs[13] = STACK_TOP
        regs[14] = HALT
        overlay = {}
        for name, table in self.symbolic.items():
            gv = self.module.globals.get(name)
            if gv is None:
                raise KeyError(f"no such global: {name}")
            if gv.count != 1:
                raise ValueError(f"symbolic input {name} must be scalar")
            base = self.linked.global_addresses[name]
            size = gv.elem_type.size_bytes
            values = np.array(table, dtype=np.int64)
            if size < 8:
                # a 64-bit input's int64 pattern already has the right bytes
                values = gv.elem_type.wrap(values)
            for i in range(size):
                byte = make((values >> (8 * i)) & 0xFF)
                if type(byte) is Vec or byte != self.base.data[base + i]:
                    overlay[base + i] = byte
        return _State(
            self.linked.entry_index,
            regs,
            overlay,
            [],
            (0, 0, 4),
            0,
            np.arange(self.n_lanes),
        )

    def run(self) -> Observations:
        """Explore every path; returns every lane's :class:`Observations`."""
        stack = [self._initial_state()]
        terminals = []
        while stack:
            if len(stack) + self.paths > self.max_states:
                raise BoundExceeded(
                    f"state budget exceeded ({self.max_states} states)"
                )
            state = stack.pop()
            trap = self._run_state(state, stack)
            if trap is _FORKED:
                continue
            terminals.append(
                (trap, state.out, self._globals_image(state), state.lanes)
            )
            self.paths += 1
        return Observations(terminals, self.n_lanes)

    # -- memory ---------------------------------------------------------------

    def _load(self, state, addr: int, size: int):
        """The ``size``-byte word at ``addr`` as an ``int`` or lane array
        (``uint64`` for 8 bytes), or None when out of bounds."""
        if addr < 0 or addr + size > self.base.size:
            return None  # trap, matches FlatMemory bounds check
        overlay = state.overlay
        base = self.base.data
        raw = []
        any_sym = False
        for i in range(size):
            byte = overlay.get(addr + i)
            if byte is None:
                byte = base[addr + i]
            elif type(byte) is Vec:
                any_sym = True
            raw.append(byte)
        if not any_sym:
            value = 0
            for i, byte in enumerate(raw):
                value |= byte << (8 * i)
            return value
        dtype = np.uint64 if size == 8 else np.int64
        value = np.zeros(len(state.lanes), dtype=dtype)
        for i, byte in enumerate(raw):
            value |= np.asarray(_raw(byte)).astype(dtype) << dtype(8 * i)
        return value

    def _store(self, state, addr: int, value, size: int) -> bool:
        if addr < 0 or addr + size > self.base.size:
            return False
        for i in range(size):
            state.overlay[addr + i] = make((value >> (8 * i)) & 0xFF)
        return True

    def _globals_image(self, state) -> list:
        image = []
        for name in sorted(self.module.globals):
            gv = self.module.globals[name]
            base = self.linked.global_addresses[name]
            size = gv.elem_type.size_bytes
            elems = [
                make(self._load(state, base + i * size, size))
                for i in range(gv.count)
            ]
            image.append((name, elems))
        return image

    # -- forking --------------------------------------------------------------

    def _fork(self, state, pred, stack, true_pc, false_pc) -> object:
        """Split ``state`` on a lane-dependent predicate; push both children."""
        true_pos, false_pos = partition(pred)
        self.forks += 1
        for positions, pc in ((false_pos, false_pc), (true_pos, true_pc)):
            child = state.split(positions)
            child.pc = pc
            stack.append(child)
        return _FORKED

    def _concretize_addr(self, state, addr, stack) -> object:
        """Fork per distinct lane-dependent address; reruns the same pc.

        Children are pushed in ascending address order, each over its
        lanes in ascending position order.
        """
        _values, inverse = np.unique(addr.vals, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        cuts = np.cumsum(np.bincount(inverse))[:-1]
        self.forks += 1
        for positions in np.split(order, cuts):
            stack.append(state.split(positions))
        return _FORKED

    # -- the step loop ---------------------------------------------------------

    def _run_state(self, state, stack):
        """Run ``state`` to halt/trap/fork.  Returns the trap message
        (``None`` for a clean halt) or :data:`_FORKED`."""
        linked = self.linked
        insts = linked.insts
        delta = linked.delta
        spec_mask = self.spec_mask
        budget = self.step_budget
        regs = state.regs
        n = len(state.lanes)

        def read(op):
            t = type(op)
            if t is Slice:
                size = op.size if op.size <= 4 else 4
                mask = _MASKS[size]
                shift = op.offset * 8
                value = regs[op.reg]
                if type(value) is Vec:
                    value = value.vals
                if shift == 0 and mask == 0xFFFFFFFF:
                    return value
                return (value >> shift) & mask
            if t is Imm:
                return op.value & 0xFFFFFFFF
            if op == "sp":
                return _raw(regs[13])
            raise TypeError(f"cannot read operand {op!r}")

        def write(op, value):
            size = op.size if op.size <= 4 else 4
            mask = _MASKS[size]
            shift = op.offset * 8
            if shift == 0 and mask == 0xFFFFFFFF:
                value = value & 0xFFFFFFFF
            else:
                keep = ~(mask << shift) & 0xFFFFFFFF
                value = (_raw(regs[op.reg]) & keep) | ((value & mask) << shift)
            regs[op.reg] = make(value) if type(value) is _ND else value

        while state.pc != HALT:
            pc = state.pc
            if pc is _TRAP_DIV:
                return "division by zero"
            if not 0 <= pc < len(insts):
                return f"pc out of range: {pc}"
            self.lane_steps += n
            if self.lane_steps > budget:
                raise BoundExceeded(
                    f"step budget exceeded ({budget} lane-steps)"
                )
            inst = insts[pc]
            opcode = inst.opcode
            next_pc = pc + 1

            row = ROWS.get(opcode)
            if row is not None:
                shape, fn = row
                uses = inst.uses
                # every row rebinds a, b and value: a lane array left in
                # one would outlive its register until the next row
                a = read(uses[0])
                b = read(uses[1]) if len(uses) > 1 else 0
                if shape >= SPEC:
                    if shape == SPEC:
                        value = fn(a, b)
                        miss = make(out_of_slice(value, spec_mask))
                    else:
                        value = a
                        miss = make(fn(a, spec_mask))
                    if type(miss) is Vec:
                        # the clean child re-executes this op (its verdict
                        # is then uniformly clean), so the write-back still
                        # happens
                        self.misspec_lanes += int(np.count_nonzero(miss.vals))
                        return self._fork(state, miss, stack, pc + delta, pc)
                    if miss:
                        self.misspec_lanes += n
                        next_pc = pc + delta
                    elif inst.defs:
                        write(inst.defs[0], value)
                elif shape == MULL:
                    value, high = fn(a, b)
                    write(inst.defs[0], value)
                    write(inst.defs[1], high)
                else:
                    if shape == ALU:
                        value = fn(a, b, inst.width)
                    elif shape == CARRY:
                        value, carry = fn(a, b, _raw(state.carry))
                        state.carry = make(carry)
                    elif shape == DIV:
                        zero = make(b == 0)
                        if type(zero) is Vec:
                            return self._fork(state, zero, stack, _TRAP_DIV, pc)
                        if zero:
                            return "division by zero"
                        value = fn(a, b, inst.width)
                    elif shape == EXT:
                        src = uses[0]
                        value = fn(a, (src.size if type(src) is Slice else 4) * 8)
                    else:  # SHIFTED
                        value = fn(a, b, uses[2].value)
                    write(inst.defs[0], value)
            elif opcode == "mov" or opcode == "movi":
                write(inst.defs[0], read(inst.uses[0]))
            elif opcode == "b":
                next_pc = inst.target
            elif opcode == "bcond":
                a, b, width = state.cmp
                cond = make(holds(_raw(a), _raw(b), width, inst.cond))
                if type(cond) is Vec:
                    return self._fork(state, cond, stack, inst.target, pc + 1)
                if cond:
                    next_pc = inst.target
            elif opcode == "cmp" or opcode == "bs_cmp":
                state.cmp = (
                    make(read(inst.uses[0])),
                    make(read(inst.uses[1])),
                    inst.width,
                )
            elif opcode in LOAD_SIZES:
                base = read(inst.uses[0])
                disp = inst.uses[1].value if len(inst.uses) > 1 else 0
                addr = make((base + disp) & 0xFFFFFFFF)
                if type(addr) is Vec:
                    return self._concretize_addr(state, addr, stack)
                size = LOAD_SIZES[opcode]
                value = self._load(state, addr, size)
                if value is None:
                    return f"load out of bounds: 0x{addr:x}+{size}"
                write(inst.defs[0], value)
            elif opcode in STORE_SIZES:
                value = read(inst.uses[0])
                base = read(inst.uses[1])
                disp = inst.uses[2].value if len(inst.uses) > 2 else 0
                addr = make((base + disp) & 0xFFFFFFFF)
                if type(addr) is Vec:
                    return self._concretize_addr(state, addr, stack)
                size = STORE_SIZES[opcode]
                if not self._store(state, addr, value, size):
                    return f"store out of bounds: 0x{addr:x}+{size}"
            elif opcode == "bs_ldr":
                addr = make(read(inst.uses[0]))
                if type(addr) is Vec:
                    return self._concretize_addr(state, addr, stack)
                size = inst.uses[1].value
                value = self._load(state, addr, size)
                if value is None:
                    return f"load out of bounds: 0x{addr:x}+{size}"
                miss = make(out_of_slice(value, spec_mask))
                if type(miss) is Vec:
                    # the clean child re-executes this op, as above
                    self.misspec_lanes += int(np.count_nonzero(miss.vals))
                    return self._fork(state, miss, stack, pc + delta, pc)
                if miss:
                    self.misspec_lanes += n
                    next_pc = pc + delta
                else:
                    write(inst.defs[0], value)
            elif opcode == "cmp64hi":
                state.cmp = (
                    make(read(inst.uses[0])),
                    make(read(inst.uses[1])),
                    "hi",
                )
            elif opcode == "cmp64lo":
                a_hi, b_hi, _tag = state.cmp
                state.cmp = (
                    make(join64(_raw(a_hi), read(inst.uses[0]))),
                    make(join64(_raw(b_hi), read(inst.uses[1]))),
                    8,
                )
            elif opcode == "movcond":
                a, b, width = state.cmp
                cond = holds(_raw(a), _raw(b), width, inst.cond)
                source = read(inst.uses[0])
                old = read(inst.defs[0])
                write(inst.defs[0], select(cond, source, old))
            elif opcode == "bl":
                regs[14] = pc + 1
                next_pc = inst.target
            elif opcode == "bx":
                target = regs[14]
                if type(target) is Vec:
                    return self._concretize_addr(state, target, stack)
                next_pc = target
            elif opcode == "subspi":
                regs[13] = make((_raw(regs[13]) - inst.uses[0].value) & 0xFFFFFFFF)
            elif opcode == "addspi":
                regs[13] = make((_raw(regs[13]) + inst.uses[0].value) & 0xFFFFFFFF)
            elif opcode == "out":
                state.out.append(make(read(inst.uses[0])))
            elif opcode == "nop" or opcode == "mode":
                pass
            else:
                return f"unknown opcode {opcode!r} at {pc}"
            state.pc = next_pc
        return None


#: sentinel returned by fork helpers: the state was replaced by children
_FORKED = object()

#: sentinel pc: the state trapped on a forked zero divisor
_TRAP_DIV = object()
