"""Speculative regions — the SIR extension of §3.1.

A :class:`SpeculativeRegion` is a single-entry single-exit sequence of basic
blocks with exactly one *handler* block that control enters iff an
instruction in the region misspeculates.  Handlers are never branch targets;
their predecessors are defined by Eq. 1 (SIR) / Eq. 2 (SMIR) of the paper.

In this implementation the squeezer creates one region per speculative basic
block (the block is trivially SESE), matching Figure 6 of the paper where
``B.nonphis`` forms the region.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function


class SpeculativeRegion:
    """A SESE block sequence monitored for misspeculation."""

    _counter = 0

    def __init__(self, blocks: list[BasicBlock]) -> None:
        if not blocks:
            raise ValueError("speculative region needs at least one block")
        SpeculativeRegion._counter += 1
        self.id = SpeculativeRegion._counter
        self.blocks = list(blocks)
        self.handler: Optional[BasicBlock] = None
        for block in self.blocks:
            if block.region is not None:
                raise ValueError(
                    f"block {block.name} already in region {block.region.id}"
                )
            block.region = self

    @property
    def entry(self) -> BasicBlock:
        """Entry : SR -> BB (first block of the sequence)."""
        return self.blocks[0]

    def set_handler(self, handler: BasicBlock) -> None:
        """Register ``handler`` as this region's misspeculation handler.

        A basic block can be the handler of a single region, and a handler
        cannot itself be inside a region (§3.1.1).
        """
        if handler.handler_for is not None:
            raise ValueError(f"{handler.name} already handles a region")
        if handler.region is not None:
            raise ValueError(f"handler {handler.name} lies inside a region")
        self.handler = handler
        handler.handler_for = self

    def add_block(self, block: BasicBlock) -> None:
        if block.region is not None:
            raise ValueError(f"block {block.name} already in a region")
        block.region = self
        self.blocks.append(block)

    def __repr__(self) -> str:
        handler = self.handler.name if self.handler else "?"
        return (
            f"<SR#{self.id} entry={self.entry.name} "
            f"blocks={len(self.blocks)} handler={handler}>"
        )


def regions_of(func: Function) -> list[SpeculativeRegion]:
    """All distinct speculative regions in ``func``, in block order."""
    seen: set[int] = set()
    out: list[SpeculativeRegion] = []
    for block in func.blocks:
        region = block.region
        if region is not None and region.id not in seen:
            seen.add(region.id)
            out.append(region)
    return out


def sir_predecessors(block: BasicBlock) -> list[BasicBlock]:
    """Predecessors under the SIR rule (Eq. 1).

    For a handler: ``Preds(Handler(SR)) = Preds(Entry(SR))``.  For ordinary
    blocks, plain branch predecessors.
    """
    if block.handler_for is not None:
        return block.handler_for.entry.predecessors()
    return block.predecessors()


def sir_predecessor_map(
    preds: dict[BasicBlock, list[BasicBlock]]
) -> dict[BasicBlock, list[BasicBlock]]:
    """:func:`sir_predecessors` for every block, derived from the plain
    :func:`repro.ir.cfg.predecessor_map` without re-scanning the CFG."""
    return {
        block: preds[block.handler_for.entry]
        if block.handler_for is not None
        else sources
        for block, sources in preds.items()
    }


def smir_predecessors(block: BasicBlock) -> list[BasicBlock]:
    """Predecessors under the SMIR rule (Eq. 2).

    For a handler: every block of the region it handles (control can leave
    each of them on misspeculation).
    """
    if block.handler_for is not None:
        return list(block.handler_for.blocks)
    return block.predecessors()
