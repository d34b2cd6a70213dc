"""Scalar and CFG simplification.

A small instcombine/simplifycfg analog: constant folding, identity folds,
add/sub chain reassociation (which collapses the induction-variable chains
loop unrolling produces), constant-branch folding, straight-line block
merging and empty-block threading.  Run after the expander so Figure 3's
"fewer IR instructions as unrolling grows" effect materializes.
"""

from __future__ import annotations

from repro.interp.interpreter import TrapError, evaluate_binop, evaluate_icmp
from repro.ir.block import BasicBlock
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Br,
    Cast,
    CondBr,
    Icmp,
    Instruction,
    Phi,
    Select,
)
from repro.ir.types import IntType
from repro.ir.values import Constant, Value
from repro.passes.dce import eliminate_dead_code


def _fold_instruction(inst: Instruction):
    """Return a replacement Value for ``inst``, or None."""
    if isinstance(inst, BinOp):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            try:
                return Constant(
                    inst.type, evaluate_binop(inst.opcode, lhs.value, rhs.value, inst.type)
                )
            except TrapError:
                return None
        if isinstance(rhs, Constant):
            c = rhs.value
            if c == 0 and inst.opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
                return lhs
            if c == 0 and inst.opcode in ("mul", "and"):
                return Constant(inst.type, 0)
            if c == 1 and inst.opcode in ("mul", "udiv", "sdiv"):
                return lhs
            if c == inst.type.mask and inst.opcode == "and":
                return lhs
            # Reassociate constant chains: (x op c1) op c2 -> x op (c1+c2).
            if (
                isinstance(lhs, BinOp)
                and lhs.opcode == inst.opcode
                and inst.opcode in ("add", "sub")
                and isinstance(lhs.rhs, Constant)
            ):
                merged = inst.type.wrap(lhs.rhs.value + c)
                return BinOp(inst.opcode, lhs.lhs, Constant(inst.type, merged))
        if isinstance(lhs, Constant):
            c = lhs.value
            if c == 0 and inst.opcode == "add":
                return rhs
            if c == 0 and inst.opcode in ("mul", "and"):
                return Constant(inst.type, 0)
        if lhs is rhs:
            if inst.opcode in ("xor", "sub"):
                return Constant(inst.type, 0)
            if inst.opcode in ("and", "or"):
                return lhs
        return None
    if isinstance(inst, Icmp):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            result = evaluate_icmp(inst.pred, lhs.value, rhs.value, lhs.type)
            from repro.ir.types import int_type

            return Constant(int_type(1), int(result))
        return None
    if isinstance(inst, Cast):
        value = inst.value
        if isinstance(value, Constant):
            if inst.opcode == "sext":
                return Constant(inst.type, value.type.to_signed(value.value))
            return Constant(inst.type, value.value)
        # zext(trunc(x)) where widths match x -> cannot fold in general
        # (trunc drops bits); but trunc(zext(x)) back to the source width is x.
        if (
            inst.opcode == "trunc"
            and isinstance(value, Cast)
            and value.opcode == "zext"
            and value.value.type.bits == inst.type.bits
        ):
            return value.value
        if (
            inst.opcode in ("zext", "trunc")
            and isinstance(value, Cast)
            and value.opcode == "zext"
            and inst.opcode == "zext"
        ):
            return Cast("zext", value.value, inst.type)
        return None
    if isinstance(inst, Select):
        if isinstance(inst.cond, Constant):
            return inst.true_value if inst.cond.value else inst.false_value
        if inst.true_value is inst.false_value:
            return inst.true_value
        return None
    return None


def fold_constants(func: Function) -> int:
    """Apply peephole folds until fixpoint; returns number of rewrites."""
    total = 0
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            for inst in list(block.instructions):
                if inst.speculative:
                    # Folding a speculative instruction would silently drop
                    # its misspeculation check; leave it to the hardware.
                    continue
                replacement = _fold_instruction(inst)
                if replacement is None:
                    continue
                if isinstance(replacement, Instruction) and replacement.parent is None:
                    # A freshly created instruction (reassociation): insert it
                    # in place of the original.
                    replacement.name = func.next_name(replacement.opcode)
                    index = block.instructions.index(inst)
                    block.insert(index, replacement)
                inst.replace_all_uses_with(replacement)
                inst.erase_from_parent()
                total += 1
                changed = True
    return total


def _fold_constant_branches(func: Function) -> int:
    changed = 0
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBr) and isinstance(term.cond, Constant):
            taken = term.if_true if term.cond.value else term.if_false
            dropped = term.if_false if term.cond.value else term.if_true
            if dropped is not taken:
                for phi in dropped.phis():
                    if block in phi.incoming_blocks:
                        phi.remove_incoming(block)
            term.erase_from_parent()
            block.append(Br(taken))
            changed += 1
    return changed


def _merge_straightline(func: Function) -> int:
    """Merge B into A when A->B is B's only entry and A's only exit.

    One predecessor map (one entry per edge) serves the whole pass: a
    merge only renames B to A in the lists of B's successors.  The scan
    resumes at A, which has B's exits now; blocks before A cannot have
    become mergeable, since no branch targeted B but A's.
    """
    preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    merged = 0
    index = 0
    while index < len(func.blocks):
        block = func.blocks[index]
        index += 1
        term = block.terminator
        if not isinstance(term, Br):
            continue
        succ = term.target
        if succ is block or len(preds.get(succ, [])) != 1:
            continue
        if succ is func.entry or succ.phis():
            continue
        if succ.handler_for is not None or block.handler_for is not None:
            continue
        if succ.region is not block.region:
            continue
        # Fold: remove the branch, move succ's instructions into block.
        succ_successors = succ.successors()
        term.erase_from_parent()
        for inst in list(succ.instructions):
            succ.remove(inst)
            block.append(inst)
        for after in succ_successors:
            preds[after] = [block if p is succ else p for p in preds[after]]
            for phi in after.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is succ:
                        phi.set_incoming_block(i, block)
        del preds[succ]
        func.remove_block(succ)
        merged += 1
        index = func.blocks.index(block)
    return merged


def _thread_empty_blocks(func: Function) -> int:
    """Retarget branches that hop through a block containing only ``br``."""
    threaded = 0
    for block in list(func.blocks):
        if block is func.entry or block.handler_for is not None:
            continue
        if len(block.instructions) != 1:
            continue
        term = block.terminator
        if not isinstance(term, Br):
            continue
        target = term.target
        if target is block:
            continue
        if target.phis():
            continue  # would need phi surgery; the merge pass handles these
        # Queried per block: threading moves edges, so a map built up front
        # would be stale by the next empty block.
        for pred in block.predecessors():
            pred.terminator.replace_target(block, target)
            threaded += 1
    if threaded:
        remove_unreachable_blocks(func)
    return threaded


def simplify_function(func: Function) -> None:
    """Run the full simplification pipeline to a fixpoint."""
    from repro.passes import stats

    for _ in range(8):
        changed = 0
        folds = fold_constants(func)
        stats.bump("simplify", "constants_folded", folds)
        changed += folds
        changed += _fold_constant_branches(func)
        changed += _thread_empty_blocks(func)
        changed += _merge_straightline(func)
        changed += eliminate_dead_code(func)
        changed += remove_unreachable_blocks(func)
        if not changed:
            break


def simplify_module(module: Module) -> None:
    for func in module.functions.values():
        simplify_function(func)
