"""Basic blocks and speculative-region metadata.

A :class:`BasicBlock` is an ordered instruction list ending in a terminator.
Blocks carry the SIR state introduced by the squeezer: the speculative region
they belong to, whether they are a misspeculation *handler*, and which world
(``CFG_spec`` vs ``CFG_orig``, §3.2.3 step 1) they live in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.ir.instructions import Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function
    from repro.sir.regions import SpeculativeRegion


class BasicBlock:
    """A single-entry straight-line instruction sequence."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.parent: Optional["Function"] = None
        #: Speculative region containing this block (None outside regions).
        self.region: Optional["SpeculativeRegion"] = None
        #: Region this block is the misspeculation handler for, if any.
        self.handler_for: Optional["SpeculativeRegion"] = None
        #: World tag: "orig" for CFG_orig blocks, "spec" for CFG_spec clones,
        #: None before the squeezer runs.
        self.world: Optional[str] = None

    # -- instruction list management ------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        index = len(self.instructions)
        if self.instructions and self.instructions[-1].is_terminator:
            index -= 1
        return self.insert(index, inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    # -- structure queries ------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> list["BasicBlock"]:
        """CFG predecessors (branch sources only).

        Costs O(blocks): a loop over blocks should build
        :func:`repro.ir.cfg.predecessor_map` once instead.

        Note: for SIR liveness the handler predecessor rule (Eq. 1/2 of the
        paper) is applied by :mod:`repro.sir.regions`, not here.
        """
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    @property
    def is_handler(self) -> bool:
        return self.handler_for is not None

    def is_idempotent(self) -> bool:
        """Idempotent? predicate on blocks (§3.2.3): no volatile ops/calls."""
        return all(i.is_idempotent for i in self.instructions)

    def __iter__(self) -> Iterable[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __bool__(self) -> bool:
        # A block is always truthy, even when empty: callers test `is None`.
        return True

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
