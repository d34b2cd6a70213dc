"""CFG analyses: traversal orders, predecessors, dominators, natural loops.

These serve the verifier (SSA dominance checks), the squeezer (block
ordering and SSA repair), isel (phi lowering) and the expander's loop
detection.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable blocks last)."""
    visited: set[int] = set()
    postorder: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(id(block))
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    if func.blocks:
        visit(func.entry)
    order = list(reversed(postorder))
    order.extend(b for b in func.blocks if id(b) not in visited)
    return order


def predecessor_map(func: Function) -> dict[BasicBlock, list[BasicBlock]]:
    """Every block's CFG predecessors, in one pass over the successors.

    Each list is what :meth:`BasicBlock.predecessors` returns — branch
    sources only, without duplicates, in ``func.blocks`` order — but the
    whole map costs O(edges) instead of O(blocks) per block.  It goes stale
    as soon as a branch target changes.
    """
    preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            sources = preds.setdefault(succ, [])
            if not sources or sources[-1] is not block:
                sources.append(block)
    return preds


def compute_dominators(
    func: Function, preds: Optional[dict[BasicBlock, list[BasicBlock]]] = None
) -> dict[BasicBlock, set[BasicBlock]]:
    """Iterative dataflow dominator computation.

    ``preds`` overrides the predecessor relation (default:
    :func:`predecessor_map`); pass
    :func:`repro.sir.regions.sir_predecessor_map` to verify SIR functions,
    where a misspeculation handler's predecessors are those of its region's
    entry (Eq. 1 of the paper) even though no branch targets the handler.
    """
    blocks = reverse_postorder(func)
    if not blocks:
        return {}
    entry = func.entry
    all_blocks = set(blocks)
    dom: dict[BasicBlock, set[BasicBlock]] = {b: set(all_blocks) for b in blocks}
    dom[entry] = {entry}
    if preds is None:
        preds = predecessor_map(func)
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block is entry:
                continue
            reachable_preds = [p for p in preds[block] if p in dom]
            if reachable_preds:
                new = set.intersection(*(dom[p] for p in reachable_preds))
            else:
                new = set()
            new.add(block)
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom


def dominates(
    dom: dict[BasicBlock, set[BasicBlock]], a: BasicBlock, b: BasicBlock
) -> bool:
    """True when block ``a`` dominates block ``b``."""
    return a in dom.get(b, set())


class NaturalLoop:
    """A natural loop: header plus body blocks, from a back edge."""

    def __init__(self, header: BasicBlock, blocks: set[BasicBlock]) -> None:
        self.header = header
        self.blocks = blocks

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} size={len(self.blocks)}>"


def find_natural_loops(func: Function) -> list[NaturalLoop]:
    """Find natural loops via back edges (edges into a dominator)."""
    preds = predecessor_map(func)
    dom = compute_dominators(func, preds)
    loops: dict[int, NaturalLoop] = {}
    for block in func.blocks:
        for succ in block.successors():
            if dominates(dom, succ, block):
                # back edge block -> succ; collect the loop body
                loop = loops.get(id(succ))
                if loop is None:
                    loop = NaturalLoop(succ, {succ})
                    loops[id(succ)] = loop
                stack = [block]
                while stack:
                    current = stack.pop()
                    if current in loop.blocks:
                        continue
                    loop.blocks.add(current)
                    stack.extend(preds[current])
    return list(loops.values())


def remove_unreachable_blocks(func: Function) -> int:
    """Delete blocks not reachable from the entry; returns count removed.

    Handler blocks reachable only via misspeculation are *kept*: they are
    reachable through their region's PC+Δ redirection even though no branch
    targets them.  A handler's downstream (CFG_orig) blocks are therefore
    treated as reachable through the handler.
    """
    reachable: set[int] = set()
    worklist = [func.entry] if func.blocks else []
    while worklist:
        block = worklist.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        worklist.extend(block.successors())
        if block.region is not None and block.region.handler is not None:
            worklist.append(block.region.handler)
    removed = 0
    for block in list(func.blocks):
        if id(block) not in reachable:
            for inst in list(block.instructions):
                inst.drop_all_references()
            for succ in block.successors():
                for phi in succ.phis():
                    if block in phi.incoming_blocks:
                        phi.remove_incoming(block)
            func.remove_block(block)
            removed += 1
    return removed
