"""On-demand SSA reconstruction (the LLVM ``SSAUpdater`` analog).

The squeezer's handler insertion (pass ③) introduces additional definitions
of original variables — the zero-extensions materialized in each handler —
and additional control edges (handler → ``BB_orig``).  Rewiring every
downstream use requires phi insertion at the joins of ``CFG_orig``; this
module implements the classic recursive reaching-definition construction
with cycle-breaking phi placement (Braun et al. style, on a complete CFG).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import Value


class UndefinedValueError(Exception):
    """A use was reachable along a path with no definition."""


class SSAUpdater:
    """Rewrites uses of one variable that now has multiple definitions."""

    def __init__(
        self,
        func: Function,
        ty,
        name_hint: str,
        preds: dict[BasicBlock, list[BasicBlock]],
    ) -> None:
        """``preds`` is :func:`repro.ir.cfg.predecessor_map` of the final
        CFG; updaters only insert phis, so one map serves them all."""
        self.func = func
        self.type = ty
        self.name_hint = name_hint
        self.preds = preds
        self._def_at_end: dict[BasicBlock, Value] = {}
        self._placed_phis: list[Phi] = []

    def add_def(self, block: BasicBlock, value: Value) -> None:
        """Declare that ``value`` is the variable's value at the end of
        ``block`` (a real definition, not a computed join)."""
        self._def_at_end[block] = value

    def value_at_end(self, block: BasicBlock) -> Value:
        cached = self._def_at_end.get(block)
        if cached is not None:
            return cached
        value = self._value_at_begin(block)
        self._def_at_end[block] = value
        return value

    def _value_at_begin(self, block: BasicBlock) -> Value:
        preds = self.preds[block]
        if not preds:
            raise UndefinedValueError(
                f"{self.name_hint}: no reaching definition at {block.name}"
            )
        if len(preds) == 1:
            return self.value_at_end(preds[0])
        # Place the phi before recursing so loops terminate.
        phi = Phi(self.type, self.func.next_name(f"{self.name_hint}.merge"))
        block.insert(0, phi)
        self._def_at_end[block] = phi
        self._placed_phis.append(phi)
        for pred in preds:
            phi.add_incoming(self.value_at_end(pred), pred)
        return self._try_remove_trivial(phi)

    def _try_remove_trivial(self, phi: Phi) -> Value:
        distinct = {v for v in phi.operands if v is not phi}
        if len(distinct) != 1:
            return phi
        (replacement,) = distinct
        phi.replace_all_uses_with(replacement)
        # Patch cached entries pointing at the phi.
        for block, value in list(self._def_at_end.items()):
            if value is phi:
                self._def_at_end[block] = replacement
        phi.erase_from_parent()
        self._placed_phis.remove(phi)
        return replacement

    def rewrite_use(self, user, operand_index: int) -> None:
        """Replace the use at ``user.operands[operand_index]``."""
        if isinstance(user, Phi):
            incoming_block = user.incoming_blocks[operand_index]
            value = self.value_at_end(incoming_block)
        else:
            value = self._value_at_begin_for_use(user.parent)
        user.set_operand(operand_index, value)

    def _value_at_begin_for_use(self, block: BasicBlock) -> Value:
        # A use in the block where a definition lives refers to that
        # definition directly (SSA: single static def per value).
        existing = self._def_at_end.get(block)
        if existing is not None:
            return existing
        return self._value_at_begin(block)

    def cleanup(self) -> None:
        """Remove phis that became trivial after all uses were rewritten."""
        changed = True
        while changed:
            changed = False
            for phi in list(self._placed_phis):
                if self._try_remove_trivial(phi) is not phi:
                    changed = True
