"""Instruction selection: (S)IR → SMIR (§3.3.1–3.3.2).

Lowers each IR function onto the ARM-flavoured machine vocabulary:

* values ≤32 bits map to one virtual register sized by their type, so the
  BITSPEC allocator can pack 8-bit values into register slices;
* 64-bit values are legalized into lo/hi register pairs with carry-chained
  arithmetic (``adds``/``adc``), like a real 32-bit ARM;
* speculative IR instructions select the Table 1 ops (``bs.*``), each
  annotated with its region's handler for skeleton-block layout (§3.3.4);
* comparisons feeding a single branch fuse into ``cmp`` + ``b.<cond>``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.arch.widths import slice_bytes
from repro.backend.mir import (
    GlobalRef,
    Imm,
    MachineBlock,
    MachineFunction,
    MachineInst,
    MachineProgram,
    VReg,
)
from repro.interp.memory import layout_globals
from repro.ir.block import BasicBlock
from repro.ir.cfg import predecessor_map, reverse_postorder
from repro.ir.function import Function, Module
from repro.ir.instructions import (
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
from repro.ir.types import IntType, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class ISelError(Exception):
    """The IR uses a construct the machine cannot lower."""


_ALU_OPCODES = {
    "add": "add",
    "sub": "sub",
    "and": "and",
    "or": "orr",
    "xor": "eor",
    "shl": "lsl",
    "lshr": "lsr",
    "ashr": "asr",
    "mul": "mul",
    "udiv": "udiv",
    "sdiv": "sdiv",
    "urem": "urem",
    "srem": "srem",
}

_BS_OPCODES = {
    "add": "bs_add",
    "sub": "bs_sub",
    "and": "bs_and",
    "or": "bs_orr",
    "xor": "bs_eor",
    "shl": "bs_lsl",
    "lshr": "bs_lsr",
}

#: max inline immediate for ALU ops (ARM modified-immediate stand-in)
_ALU_IMM_MAX = 255
#: max inline immediate for speculative ops (imm4, Table 1)
_BS_IMM_MAX = 15


def _value_size(value: Value) -> int:
    if isinstance(value.type, PointerType):
        return 4
    return value.type.size_bytes


def _is_pair(value: Value) -> bool:
    return isinstance(value.type, IntType) and value.type.bits > 32


class FunctionISel:
    """Lowers one IR function to a :class:`MachineFunction`."""

    def __init__(
        self,
        func: Function,
        program: MachineProgram,
        module: Module,
        *,
        bitspec: bool,
        slice_width: int = 8,
    ) -> None:
        self.func = func
        self.module = module
        self.program = program
        self.bitspec = bitspec
        self.slice_width = slice_width
        #: register-file footprint of a slice op (bytes); sub-byte widths
        #: still occupy one byte cell
        self.slice_bytes = slice_bytes(slice_width)
        self.mfunc = MachineFunction(func.name)
        self.mfunc.signature = _function_signature(func)
        self.vmap: dict[Value, object] = {}
        self.bmap: dict[BasicBlock, MachineBlock] = {}
        self.fused_cmps: set[Icmp] = set()
        self.phi_copies: list[tuple[Phi, MachineBlock]] = []
        self.current: Optional[MachineBlock] = None

    # -- emission helpers ------------------------------------------------------

    def emit(self, inst: MachineInst) -> MachineInst:
        return self.current.append(inst)

    def vreg_for(self, value: Value):
        """The VReg (or (lo, hi) pair) holding ``value``; created on demand."""
        mapped = self.vmap.get(value)
        if mapped is not None:
            return mapped
        if _is_pair(value):
            mapped = (
                self.mfunc.new_vreg(4, f"{value.name}.lo"),
                self.mfunc.new_vreg(4, f"{value.name}.hi"),
            )
        else:
            mapped = self.mfunc.new_vreg(_value_size(value), value.name)
        self.vmap[value] = mapped
        return mapped

    def materialize(self, value: Value, *, fold_zext: bool = True) -> VReg:
        """A single VReg holding a ≤32-bit value (constants materialized).

        ``fold_zext=False`` forces a width-faithful vreg: ``sxt`` reads its
        extension width off the operand's allocated slice, so a folded 8-bit
        slice standing in for a wider zext result would sign-extend from the
        wrong bit.
        """
        if isinstance(value, Constant):
            vd = self.mfunc.new_vreg(_value_size(value), "const")
            self.emit(MachineInst("movi", [vd], [Imm(value.value)]))
            return vd
        if isinstance(value, GlobalVariable):
            vd = self.mfunc.new_vreg(4, f"&{value.name}")
            self.emit(MachineInst("movi", [vd], [GlobalRef(value.name)]))
            return vd
        if self.bitspec and fold_zext:
            # Zero-extension folds into operand routing on the BITSPEC ISA:
            # reading an 8-bit register slice already delivers the
            # zero-extended value (Table 1's mixed-width addressing), so a
            # consumer can use the slice vreg directly.
            folded = self._fold_zext(value)
            if folded is not None:
                return folded
        return self.vreg_for(value)

    def _fold_zext(self, value: Value) -> Optional[VReg]:
        if (
            isinstance(value, Cast)
            and value.opcode == "zext"
            and not _is_pair(value)
            and isinstance(value.value.type, IntType)
            and value.value.type.bits <= max(8, self.slice_width)
            and value.value.type.bits < 32
            and not isinstance(value.value, Constant)
        ):
            return self.vreg_for(value.value)
        return None

    def materialize_pair(self, value: Value):
        if isinstance(value, Constant):
            lo = self.mfunc.new_vreg(4, "const.lo")
            hi = self.mfunc.new_vreg(4, "const.hi")
            self.emit(MachineInst("movi", [lo], [Imm(value.value & 0xFFFFFFFF)]))
            self.emit(MachineInst("movi", [hi], [Imm(value.value >> 32)]))
            return lo, hi
        return self.vreg_for(value)

    def operand(self, value: Value, imm_max: int) -> Union[VReg, Imm]:
        """Register-or-immediate operand for ALU ops."""
        if isinstance(value, Constant) and value.value <= imm_max:
            return Imm(value.value)
        return self.materialize(value)

    # -- driver ------------------------------------------------------------------

    def run(self) -> MachineFunction:
        for block in self.func.blocks:
            mblock = self.mfunc.add_block(block.name)
            mblock.world = block.world
            mblock.is_handler = block.handler_for is not None
            if block.region is not None:
                mblock.region_id = block.region.id
            self.bmap[block] = mblock
        # Resolve handler links and successor edges.
        for block in self.func.blocks:
            mblock = self.bmap[block]
            mblock.succs = [self.bmap[s] for s in block.successors()]
            if block.region is not None and block.region.handler is not None:
                mblock.handler = self.bmap[block.region.handler]

        # Parameters: one vreg (or pair) each, defined by `param` pseudos.
        entry = self.bmap[self.func.entry]
        self.current = entry
        slot = 0
        for arg in self.func.args:
            target = self.vreg_for(arg)
            if isinstance(target, tuple):
                self.emit(MachineInst("param", [target[0]], [Imm(slot)]))
                self.emit(MachineInst("param", [target[1]], [Imm(slot + 1)]))
                slot += 2
            else:
                self.emit(MachineInst("param", [target], [Imm(slot)]))
                slot += 1
        self.mfunc.param_vregs = [self.vmap[a] for a in self.func.args]

        self._find_fusable_cmps()
        for block in reverse_postorder(self.func):
            self.current = self.bmap[block]
            for inst in block.instructions:
                self.lower(inst)
        self._insert_phi_copies()
        return self.mfunc

    def _find_fusable_cmps(self) -> None:
        for block in self.func.blocks:
            term = block.terminator
            if not isinstance(term, CondBr):
                continue
            cond = term.cond
            if (
                isinstance(cond, Icmp)
                and cond.parent is block
                and len(cond.users) == 1
            ):
                self.fused_cmps.add(cond)

    # -- phi handling ------------------------------------------------------------

    def _insert_phi_copies(self) -> None:
        """Lower phis into copies at the end of each predecessor.

        Incoming values are staged through temporaries when a block's phi
        destinations also appear as incoming sources (the swap problem).
        """
        preds = predecessor_map(self.func)
        for block in self.func.blocks:
            phis = block.phis()
            if not phis:
                continue
            for pred in preds[block]:
                mpred = self.bmap[pred]
                moves = []
                for phi in phis:
                    incoming = phi.incoming_for_block(pred)
                    dest = self.vreg_for(phi)
                    if isinstance(dest, tuple):
                        src = self.materialize_pair_in(incoming, mpred)
                        moves.append((dest[0], src[0]))
                        moves.append((dest[1], src[1]))
                    else:
                        src = self.materialize_in(incoming, mpred, dest.size)
                        moves.append((dest, src))
                dests = {d for d, _ in moves}
                needs_staging = any(s in dests for _, s in moves)
                copy_insts = []
                if needs_staging:
                    staged = []
                    for dest, src in moves:
                        tmp = self.mfunc.new_vreg(dest.size, "phitmp")
                        copy_insts.append(
                            MachineInst("mov", [tmp], [src], width=dest.size, kind="copy")
                        )
                        staged.append((dest, tmp))
                    moves = staged
                for dest, src in moves:
                    copy_insts.append(
                        MachineInst("mov", [dest], [src], width=dest.size, kind="copy")
                    )
                self._insert_before_terminator(mpred, copy_insts)

    def _insert_before_terminator(
        self, mblock: MachineBlock, insts: list[MachineInst]
    ) -> None:
        index = len(mblock.insts)
        while index > 0 and mblock.insts[index - 1].opcode in ("b", "bcond"):
            index -= 1
        for offset, inst in enumerate(insts):
            mblock.insts.insert(index + offset, inst)

    def materialize_in(self, value: Value, mblock: MachineBlock, size: int) -> VReg:
        """Materialize ``value`` (constants included) inside ``mblock``."""
        saved = self.current
        self.current = mblock
        try:
            if isinstance(value, Constant):
                vd = self.mfunc.new_vreg(size, "const")
                inst = MachineInst("movi", [vd], [Imm(value.value)])
                self._insert_before_terminator(mblock, [inst])
                return vd
            return self.materialize(value)
        finally:
            self.current = saved

    def materialize_pair_in(self, value: Value, mblock: MachineBlock):
        saved = self.current
        self.current = mblock
        try:
            if isinstance(value, Constant):
                lo = self.mfunc.new_vreg(4, "const.lo")
                hi = self.mfunc.new_vreg(4, "const.hi")
                self._insert_before_terminator(
                    mblock,
                    [
                        MachineInst("movi", [lo], [Imm(value.value & 0xFFFFFFFF)]),
                        MachineInst("movi", [hi], [Imm(value.value >> 32)]),
                    ],
                )
                return lo, hi
            return self.vreg_for(value)
        finally:
            self.current = saved

    # -- instruction lowering ------------------------------------------------------

    def lower(self, inst: Instruction) -> None:
        if isinstance(inst, Phi):
            self.vreg_for(inst)  # dest vreg; copies inserted later
        elif isinstance(inst, BinOp):
            self.lower_binop(inst)
        elif isinstance(inst, Icmp):
            self.lower_icmp(inst)
        elif isinstance(inst, Select):
            self.lower_select(inst)
        elif isinstance(inst, Cast):
            self.lower_cast(inst)
        elif isinstance(inst, Load):
            self.lower_load(inst)
        elif isinstance(inst, Store):
            self.lower_store(inst)
        elif isinstance(inst, Gep):
            self.lower_gep(inst)
        elif isinstance(inst, Alloca):
            slot = self.mfunc.new_slot(inst.elem_type.size_bytes * inst.count)
            vd = self.vreg_for(inst)
            self.emit(MachineInst("addsp", [vd], [slot]))
        elif isinstance(inst, Call):
            self.lower_call(inst)
        elif isinstance(inst, Br):
            self.emit(MachineInst("b", target=self.bmap[inst.target]))
        elif isinstance(inst, CondBr):
            self.lower_condbr(inst)
        elif isinstance(inst, Ret):
            self.lower_ret(inst)
        else:  # pragma: no cover - defensive
            raise ISelError(f"cannot lower {inst.opcode}")

    def lower_binop(self, inst: BinOp) -> None:
        if _is_pair(inst):
            self.lower_binop_pair(inst)
            return
        size = _value_size(inst)
        vd = self.vreg_for(inst)
        if inst.speculative:
            opcode = _BS_OPCODES.get(inst.opcode)
            if opcode is None:
                raise ISelError(f"no speculative form of {inst.opcode}")
            lhs = self.materialize(inst.lhs)
            rhs = self.operand(inst.rhs, _BS_IMM_MAX)
            out = self.emit(
                MachineInst(
                    opcode, [vd], [lhs, rhs],
                    width=self.slice_bytes, speculative=True,
                )
            )
            out.handler = self.current.handler
            return
        opcode = _ALU_OPCODES[inst.opcode]
        lhs = self.materialize(inst.lhs)
        rhs = self.operand(inst.rhs, _ALU_IMM_MAX)
        self.emit(MachineInst(opcode, [vd], [lhs, rhs], width=size))

    def lower_binop_pair(self, inst: BinOp) -> None:
        lo_d, hi_d = self.vreg_for(inst)
        op = inst.opcode
        if op in ("add", "sub"):
            a_lo, a_hi = self.materialize_pair(inst.lhs)
            b_lo, b_hi = self.materialize_pair(inst.rhs)
            first, second = ("adds", "adc") if op == "add" else ("subs", "sbc")
            self.emit(MachineInst(first, [lo_d], [a_lo, b_lo]))
            self.emit(MachineInst(second, [hi_d], [a_hi, b_hi]))
            return
        if op in ("and", "or", "xor"):
            opcode = _ALU_OPCODES[op]
            a_lo, a_hi = self.materialize_pair(inst.lhs)
            b_lo, b_hi = self.materialize_pair(inst.rhs)
            self.emit(MachineInst(opcode, [lo_d], [a_lo, b_lo]))
            self.emit(MachineInst(opcode, [hi_d], [a_hi, b_hi]))
            return
        if op in ("shl", "lshr") and isinstance(inst.rhs, Constant):
            self.lower_shift_pair(inst, lo_d, hi_d)
            return
        if op == "mul":
            # 64 x 64 -> low 64: umull + two cross products into the high word.
            a_lo, a_hi = self.materialize_pair(inst.lhs)
            b_lo, b_hi = self.materialize_pair(inst.rhs)
            self.emit(MachineInst("umull", [lo_d, hi_d], [a_lo, b_lo]))
            cross1 = self.mfunc.new_vreg(4, "mulx1")
            cross2 = self.mfunc.new_vreg(4, "mulx2")
            self.emit(MachineInst("mul", [cross1], [a_lo, b_hi]))
            self.emit(MachineInst("mul", [cross2], [a_hi, b_lo]))
            self.emit(MachineInst("add", [hi_d], [hi_d, cross1]))
            self.emit(MachineInst("add", [hi_d], [hi_d, cross2]))
            return
        raise ISelError(f"64-bit {op} is not supported by the 32-bit machine")

    def lower_shift_pair(self, inst: BinOp, lo_d: VReg, hi_d: VReg) -> None:
        amount = inst.rhs.value
        a_lo, a_hi = self.materialize_pair(inst.lhs)
        if amount == 0:
            self.emit(MachineInst("mov", [lo_d], [a_lo], kind="copy"))
            self.emit(MachineInst("mov", [hi_d], [a_hi], kind="copy"))
            return
        if inst.opcode == "shl":
            if amount >= 32:
                self.emit(MachineInst("lsl", [hi_d], [a_lo, Imm(amount - 32)]))
                self.emit(MachineInst("movi", [lo_d], [Imm(0)]))
            else:
                self.emit(MachineInst("lsl", [hi_d], [a_hi, Imm(amount)]))
                self.emit(
                    MachineInst(
                        "orrsl", [hi_d], [hi_d, a_lo, Imm(-(32 - amount))]
                    )
                )
                self.emit(MachineInst("lsl", [lo_d], [a_lo, Imm(amount)]))
        else:  # lshr
            if amount >= 32:
                self.emit(MachineInst("lsr", [lo_d], [a_hi, Imm(amount - 32)]))
                self.emit(MachineInst("movi", [hi_d], [Imm(0)]))
            else:
                self.emit(MachineInst("lsr", [lo_d], [a_lo, Imm(amount)]))
                self.emit(
                    MachineInst("orrsl", [lo_d], [lo_d, a_hi, Imm(32 - amount)])
                )
                self.emit(MachineInst("lsr", [hi_d], [a_hi, Imm(amount)]))

    def _emit_cmp(self, lhs: Value, rhs: Value) -> None:
        """Emit the compare feeding a conditional (no result register)."""
        if _is_pair(lhs):
            # Two-instruction 64-bit compare (cmp + conditional-compare on
            # ARM); split keeps spill rewriting within two scratch registers.
            a_lo, a_hi = self.materialize_pair(lhs)
            b_lo, b_hi = self.materialize_pair(rhs)
            self.emit(MachineInst("cmp64hi", uses=[a_hi, b_hi]))
            self.emit(MachineInst("cmp64lo", uses=[a_lo, b_lo]))
            return
        narrow = (
            isinstance(lhs.type, IntType)
            and lhs.type.bits <= max(8, self.slice_width)
            and lhs.type.bits < 32
            and isinstance(rhs.type, IntType)
        )
        a = self.materialize(lhs)
        if narrow and self.bitspec:
            b = self.operand(rhs, _BS_IMM_MAX)
            # width carries the operand's byte size: the slice compare unit
            # interprets signedness at the operand width, not the sweep's
            # global slice width.
            self.emit(
                MachineInst("bs_cmp", uses=[a, b], width=_value_size(lhs))
            )
        else:
            b = self.operand(rhs, _ALU_IMM_MAX)
            self.emit(MachineInst("cmp", uses=[a, b], width=_value_size(lhs)))

    def lower_icmp(self, inst: Icmp) -> None:
        if inst in self.fused_cmps:
            return  # emitted by the branch
        vd = self.vreg_for(inst)
        self.emit(MachineInst("movi", [vd], [Imm(0)]))
        self._emit_cmp(inst.lhs, inst.rhs)
        self.emit(MachineInst("movcond", [vd], [Imm(1)], cond=inst.pred))

    def lower_select(self, inst: Select) -> None:
        cond = self.materialize(inst.cond)
        if _is_pair(inst):
            lo_d, hi_d = self.vreg_for(inst)
            f_lo, f_hi = self.materialize_pair(inst.false_value)
            t_lo, t_hi = self.materialize_pair(inst.true_value)
            self.emit(MachineInst("mov", [lo_d], [f_lo], kind="copy"))
            self.emit(MachineInst("mov", [hi_d], [f_hi], kind="copy"))
            self.emit(MachineInst("cmp", uses=[cond, Imm(0)], width=1))
            self.emit(MachineInst("movcond", [lo_d], [t_lo], cond="ne"))
            self.emit(MachineInst("movcond", [hi_d], [t_hi], cond="ne"))
            return
        vd = self.vreg_for(inst)
        fval = self.materialize(inst.false_value)
        tval = self.materialize(inst.true_value)
        self.emit(MachineInst("mov", [vd], [fval], width=vd.size, kind="copy"))
        self.emit(MachineInst("cmp", uses=[cond, Imm(0)], width=1))
        self.emit(MachineInst("movcond", [vd], [tval], cond="ne", width=vd.size))

    def lower_cast(self, inst: Cast) -> None:
        source = inst.value
        if inst.opcode == "trunc" and inst.speculative:
            vd = self.vreg_for(inst)
            src = (
                self.materialize_pair(source)[0]
                if _is_pair(source)
                else self.materialize(source)
            )
            out = self.emit(
                MachineInst(
                    "bs_trunc", [vd], [src],
                    width=self.slice_bytes, speculative=True,
                )
            )
            out.handler = self.current.handler
            if _is_pair(source):
                # The high word must also be zero; monitor it too.
                hi = self.materialize_pair(source)[1]
                chk = self.emit(
                    MachineInst("bs_trunc_hi", uses=[hi], width=1, speculative=True)
                )
                chk.handler = self.current.handler
            return
        if _is_pair(inst):
            lo_d, hi_d = self.vreg_for(inst)
            if inst.opcode == "zext":
                src = self.materialize(source)
                self.emit(MachineInst("uxt", [lo_d], [src], width=4))
                self.emit(MachineInst("movi", [hi_d], [Imm(0)]))
            elif inst.opcode == "sext":
                src = self.materialize(source, fold_zext=False)
                self.emit(MachineInst("sxt", [lo_d], [src], width=4))
                self.emit(MachineInst("asr", [hi_d], [lo_d, Imm(31)]))
            else:
                raise ISelError("trunc cannot produce a 64-bit value")
            return
        vd = self.vreg_for(inst)
        if _is_pair(source):
            lo, _hi = self.materialize_pair(source)
            self.emit(MachineInst("trunc", [vd], [lo], width=vd.size))
            return
        src = self.materialize(source, fold_zext=(inst.opcode != "sext"))
        if inst.opcode == "zext":
            self.emit(MachineInst("uxt", [vd], [src], width=vd.size))
        elif inst.opcode == "sext":
            self.emit(MachineInst("sxt", [vd], [src], width=vd.size))
        else:
            self.emit(MachineInst("trunc", [vd], [src], width=vd.size))

    def lower_load(self, inst: Load) -> None:
        addr = self.materialize(inst.ptr)
        elem_size = inst.ptr.type.pointee.size_bytes
        if inst.speculative:
            vd = self.vreg_for(inst)
            out = self.emit(
                MachineInst(
                    "bs_ldr", [vd], [addr, Imm(elem_size)],
                    width=self.slice_bytes, speculative=True,
                )
            )
            out.handler = self.current.handler
            return
        if _is_pair(inst):
            lo_d, hi_d = self.vreg_for(inst)
            self.emit(MachineInst("ldr", [lo_d], [addr, Imm(0)]))
            self.emit(MachineInst("ldr", [hi_d], [addr, Imm(4)]))
            return
        vd = self.vreg_for(inst)
        opcode = {1: "ldrb", 2: "ldrh", 4: "ldr"}[elem_size]
        self.emit(MachineInst(opcode, [vd], [addr, Imm(0)], width=elem_size))

    def lower_store(self, inst: Store) -> None:
        addr = self.materialize(inst.ptr)
        elem_size = inst.ptr.type.pointee.size_bytes
        if elem_size == 8:
            lo, hi = self.materialize_pair(inst.value)
            self.emit(MachineInst("str", uses=[lo, addr, Imm(0)]))
            self.emit(MachineInst("str", uses=[hi, addr, Imm(4)]))
            return
        value = self.materialize(inst.value)
        opcode = {1: "strb", 2: "strh", 4: "str"}[elem_size]
        self.emit(MachineInst(opcode, uses=[value, addr, Imm(0)], width=elem_size))

    def lower_gep(self, inst: Gep) -> None:
        vd = self.vreg_for(inst)
        base = self.materialize(inst.ptr)
        size = inst.type.pointee.size_bytes
        index = inst.index
        if isinstance(index, Constant):
            offset = index.type.to_signed(index.value) * size
            if 0 <= offset <= _ALU_IMM_MAX:
                self.emit(MachineInst("add", [vd], [base, Imm(offset)]))
            else:
                tmp = self.mfunc.new_vreg(4, "goff")
                self.emit(MachineInst("movi", [tmp], [Imm(offset & 0xFFFFFFFF)]))
                self.emit(MachineInst("add", [vd], [base, tmp]))
            return
        idx = self.materialize(index)
        if idx.size < 4:
            wide = self.mfunc.new_vreg(4, "idx")
            self.emit(MachineInst("uxt", [wide], [idx], width=4))
            idx = wide
        if size == 1:
            self.emit(MachineInst("add", [vd], [base, idx]))
        else:
            shift = {2: 1, 4: 2, 8: 3}[size]
            self.emit(MachineInst("addsl", [vd], [base, idx, Imm(shift)]))

    def lower_call(self, inst: Call) -> None:
        if inst.callee == "__out":
            value = self.materialize(inst.args[0])
            self.emit(MachineInst("out", uses=[value]))
            return
        self.mfunc.uses_calls = True
        uses: list = []
        for arg in inst.args:
            if _is_pair(arg):
                lo, hi = self.materialize_pair(arg)
                uses.extend([lo, hi])
            else:
                uses.append(self.materialize(arg))
        defs: list = []
        if inst.has_result:
            mapped = self.vreg_for(inst)
            defs = list(mapped) if isinstance(mapped, tuple) else [mapped]
        self.emit(MachineInst("call", defs, uses, target=inst.callee))

    def lower_condbr(self, inst: CondBr) -> None:
        cond = inst.cond
        if isinstance(cond, Icmp) and cond in self.fused_cmps:
            self._emit_cmp(cond.lhs, cond.rhs)
            pred = cond.pred
        elif isinstance(cond, Constant):
            target = inst.if_true if cond.value else inst.if_false
            self.emit(MachineInst("b", target=self.bmap[target]))
            return
        else:
            c = self.materialize(cond)
            self.emit(MachineInst("cmp", uses=[c, Imm(0)], width=1))
            pred = "ne"
        self.emit(MachineInst("bcond", cond=pred, target=self.bmap[inst.if_true]))
        self.emit(MachineInst("b", target=self.bmap[inst.if_false]))

    def lower_ret(self, inst: Ret) -> None:
        uses: list = []
        if inst.value is not None:
            if _is_pair(inst.value):
                lo, hi = self.materialize_pair(inst.value)
                uses = [lo, hi]
            else:
                uses = [self.materialize(inst.value)]
        self.emit(MachineInst("ret", uses=uses))


_PURE_OPCODES = frozenset(
    {
        "mov",
        "movi",
        "uxt",
        "sxt",
        "trunc",
        "add",
        "sub",
        "and",
        "orr",
        "eor",
        "lsl",
        "lsr",
        "asr",
        "mul",
        "addsl",
        "orrsl",
    }
)


def remove_dead_machine_code(mfunc: MachineFunction) -> int:
    """Drop side-effect-free instructions whose results are never read.

    Zext folding leaves the original extension instructions dangling; this
    pass (pre-allocation, so operands are still VRegs) sweeps them.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        used: set[VReg] = set()
        for block in mfunc.blocks:
            for inst in block.insts:
                for op in inst.uses:
                    if isinstance(op, VReg):
                        used.add(op)
                if inst.opcode == "movcond":
                    for op in inst.defs:
                        if isinstance(op, VReg):
                            used.add(op)
        for block in mfunc.blocks:
            kept = []
            for inst in block.insts:
                if (
                    inst.opcode in _PURE_OPCODES
                    and inst.defs
                    and all(isinstance(d, VReg) for d in inst.defs)
                    and not any(d in used for d in inst.defs)
                ):
                    removed += 1
                    changed = True
                    continue
                kept.append(inst)
            block.insts = kept
    return removed


def _function_signature(func: Function) -> dict:
    """Source-level signature metadata for link-time debug info.

    :mod:`repro.verify` uses this to delimit per-function entry state (one
    ``(name, bits, pointer)`` triple per formal parameter) and to mask the
    exit-state comparison to the declared return width.
    """
    params = []
    for arg in func.args:
        if isinstance(arg.type, PointerType):
            params.append((arg.name, 32, True))
        else:
            params.append((arg.name, arg.type.bits, False))
    ret = None
    if isinstance(func.ret_type, IntType):
        ret = func.ret_type.bits
    return {"params": tuple(params), "return_bits": ret}


def select_module(
    module: Module, *, isa: str = "ARM", name: str = "program",
    slice_width: int = 8, baseline_functions: frozenset = frozenset(),
) -> MachineProgram:
    """Lower a whole module; ``isa`` ∈ {ARM, ARM_BS, THUMB}.

    ``baseline_functions`` names functions lowered with ``bitspec=False``
    even on ARM_BS — the pipeline's graceful-degradation fallback, which
    produces a mixed-world binary instead of failing the whole compile.
    """
    program = MachineProgram(name, isa)
    program.global_addresses = layout_globals(module)
    bitspec = isa == "ARM_BS"
    for func in module.functions.values():
        isel = FunctionISel(
            func, program, module,
            bitspec=bitspec and func.name not in baseline_functions,
            slice_width=slice_width,
        )
        mfunc = isel.run()
        remove_dead_machine_code(mfunc)
        program.add_function(mfunc)
    return program
