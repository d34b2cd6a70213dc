"""IRBuilder: convenience layer for constructing IR.

Mirrors LLVM's ``IRBuilder``: keeps an insertion point (a basic block) and
provides one method per instruction kind, auto-naming results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.block import BasicBlock
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    Gep,
    Icmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.types import IntType, int_type
from repro.ir.values import Constant, Value


class IRBuilder:
    """Builds instructions at the end of a chosen basic block."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self):
        if self.block is None or self.block.parent is None:
            raise ValueError("builder has no insertion block")
        return self.block.parent

    def _emit(self, inst):
        if not inst.name and inst.has_result:
            inst.name = self.function.next_name(inst.opcode)
        return self.block.append(inst)

    # -- constants -----------------------------------------------------------

    def const(self, value: int, bits: int = 32) -> Constant:
        return Constant(int_type(bits), value)

    # -- arithmetic / logic ----------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self._emit(BinOp(op, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("mul", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("udiv", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("urem", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("ashr", lhs, rhs, name)

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> Icmp:
        return self._emit(Icmp(pred, lhs, rhs, name))

    def select(self, cond: Value, tval: Value, fval: Value, name: str = "") -> Select:
        return self._emit(Select(cond, tval, fval, name))

    # -- casts ---------------------------------------------------------------

    def zext(self, value: Value, to_bits: int, name: str = "") -> Value:
        if value.type.bits == to_bits:
            return value
        return self._emit(Cast("zext", value, int_type(to_bits), name))

    def sext(self, value: Value, to_bits: int, name: str = "") -> Value:
        if value.type.bits == to_bits:
            return value
        return self._emit(Cast("sext", value, int_type(to_bits), name))

    def trunc(self, value: Value, to_bits: int, name: str = "") -> Value:
        if value.type.bits == to_bits:
            return value
        return self._emit(Cast("trunc", value, int_type(to_bits), name))

    # -- memory --------------------------------------------------------------

    def load(self, ptr: Value, name: str = "", *, volatile: bool = False) -> Load:
        return self._emit(Load(ptr, name, volatile=volatile))

    def store(self, value: Value, ptr: Value, *, volatile: bool = False) -> Store:
        return self._emit(Store(value, ptr, volatile=volatile))

    def gep(self, ptr: Value, index: Value, name: str = "") -> Gep:
        return self._emit(Gep(ptr, index, name))

    def alloca(self, elem_type: IntType, count: int = 1, name: str = "") -> Alloca:
        return self._emit(Alloca(elem_type, count, name))

    # -- control flow ----------------------------------------------------------

    def phi(self, ty, name: str = "") -> Phi:
        """Insert a phi at the start of the current block's phi group."""
        inst = Phi(ty, name or self.function.next_name("phi"))
        index = 0
        for i, existing in enumerate(self.block.instructions):
            if isinstance(existing, Phi):
                index = i + 1
        return self.block.insert(index, inst)

    def call(self, callee: str, args: Sequence[Value], ret_type, name: str = "") -> Call:
        return self._emit(Call(callee, args, ret_type, name))

    def br(self, target: BasicBlock) -> Br:
        return self._emit(Br(target))

    def condbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> CondBr:
        return self._emit(CondBr(cond, if_true, if_false))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._emit(Ret(value))
