"""IR verifier: structural and SSA well-formedness checks.

Raises :class:`VerificationError` describing the first problem found.  Run
after construction and after every transformation pass in tests.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.cfg import compute_dominators, dominates, predecessor_map
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class VerificationError(Exception):
    """The IR violates a structural invariant."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def verify_function(func: Function, module: Optional[Module] = None) -> None:
    _check(bool(func.blocks), f"{func.name}: function has no blocks")

    block_set = set(func.blocks)
    seen_names: set[str] = set()
    defined: dict[Value, BasicBlock] = {}

    for block in func.blocks:
        _check(block.parent is func, f"{block.name}: wrong parent")
        _check(len(block.instructions) > 0, f"{block.name}: empty block")
        term = block.instructions[-1]
        _check(term.is_terminator, f"{block.name}: missing terminator")
        for inst in block.instructions[:-1]:
            _check(
                not inst.is_terminator,
                f"{block.name}: terminator {inst.opcode} not at block end",
            )
        for succ in block.successors():
            _check(
                succ in block_set,
                f"{block.name}: branch to foreign block {succ.name}",
            )
        for inst in block.instructions:
            _check(inst.parent is block, f"{block.name}: orphan instruction")
            if inst.has_result:
                _check(
                    inst.name not in seen_names,
                    f"{func.name}: duplicate value name %{inst.name}",
                )
                seen_names.add(inst.name)
                defined[inst] = block

    preds = predecessor_map(func)

    for block in func.blocks:
        phi_group_done = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                _check(
                    not phi_group_done,
                    f"{block.name}: phi %{inst.name} after non-phi instruction",
                )
                incoming_blocks = list(inst.incoming_blocks)
                incoming_names = sorted(b.name for b in incoming_blocks)
                # One incoming per unique predecessor: a conditional branch
                # may target the same block on both edges, which still counts
                # as a single phi entry (predecessor_map() dedupes likewise).
                _check(
                    incoming_names == sorted(set(incoming_names)),
                    f"{block.name}: phi %{inst.name} has duplicate incoming "
                    f"blocks {incoming_names}",
                )
                _check(
                    incoming_names
                    == sorted({p.name for p in preds[block]}),
                    f"{block.name}: phi %{inst.name} incoming blocks "
                    f"{[b.name for b in incoming_blocks]} != preds "
                    f"{[p.name for p in preds[block]]}",
                )
            else:
                phi_group_done = True

    has_handlers = any(b.handler_for is not None for b in func.blocks)
    if has_handlers:
        # SIR rule (Eq. 1): a handler is dominated by whatever dominates its
        # region's entry, letting it use values live into the region.
        from repro.sir.regions import sir_predecessor_map

        dom = compute_dominators(func, sir_predecessor_map(preds))
    else:
        dom = compute_dominators(func, preds)
    for block in func.blocks:
        for inst in block.instructions:
            operand_pairs = list(enumerate(inst.operands))
            for idx, op in operand_pairs:
                _check(
                    isinstance(op, (Instruction, Constant, Argument, GlobalVariable)),
                    f"{block.name}: bad operand kind {type(op).__name__}",
                )
                if isinstance(op, Instruction):
                    _check(
                        op in defined,
                        f"{block.name}: %{inst.name or inst.opcode} uses "
                        f"undefined value %{op.name}",
                    )
                    if isinstance(inst, Phi):
                        use_block = inst.incoming_blocks[idx]
                    else:
                        use_block = block
                    def_block = defined[op]
                    if def_block is use_block and not isinstance(inst, Phi):
                        def_pos = use_block.instructions.index(op)
                        use_pos = use_block.instructions.index(inst)
                        _check(
                            def_pos < use_pos,
                            f"{block.name}: %{op.name} used before defined",
                        )
                    elif def_block is not use_block:
                        if use_block in dom:
                            _check(
                                dominates(dom, def_block, use_block),
                                f"{block.name}: def of %{op.name} "
                                f"({def_block.name}) does not dominate use "
                                f"in {use_block.name}",
                            )
            if module is not None and inst.opcode == "call":
                _check(
                    inst.callee in module.functions
                    or inst.callee.startswith("__"),
                    f"{block.name}: call to unknown function @{inst.callee}",
                )


def verify_module(module: Module) -> None:
    for func in module.functions.values():
        verify_function(func, module)
