"""The squeezer — BITSPEC's core transformation (§3.2.3).

Given the profiler's squeeze plan, rewrites a prepared function so selected
variables compute and live at 8 bits inside speculative regions, with a
misspeculation handler per region that re-extends live state and re-executes
the block at the original bitwidth:

② clone the CFG into ``CFG_spec``/``CFG_orig`` and speculatively narrow the
   planned definitions (speculative truncates bridge unsqueezed operands);
③ insert one handler per speculative region: zero-extensions of the values
   live into the original block, a branch to ``BB_orig``, and SSA repair of
   ``CFG_orig`` through phi insertion (Eq. 8, generalized via SSAUpdater).

After any misspeculation, execution continues in ``CFG_orig`` until the
function returns — the paper's misspeculate-once-per-invocation model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.cfg import predecessor_map, reverse_postorder
from repro.ir.clone import clone_blocks
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Br,
    Cast,
    Icmp,
    Instruction,
    Load,
    Phi,
)
from repro.ir.liveness import compute_liveness
from repro.ir.types import IntType, int_type
from repro.passes import stats
from repro.ir.values import Constant, Value
from repro.passes.ssa_updater import SSAUpdater
from repro.profiler.selection import SqueezePlan
from repro.sir.regions import SpeculativeRegion


@dataclass
class SqueezeResult:
    """Bookkeeping produced by squeezing one function."""

    narrowed: int = 0
    narrowed_cmps: int = 0
    spec_truncs: int = 0
    regions: int = 0
    #: Spec relation restricted to blocks: CFG_orig block -> CFG_spec block
    spec_block: dict = field(default_factory=dict)
    #: spec-world value -> its 8-bit form
    spec8: dict = field(default_factory=dict)
    #: per-(block, value) speculative-truncate dedup cache
    trunc_cache: dict = field(default_factory=dict)


def _narrow_operand(
    func: Function,
    block: BasicBlock,
    position: Instruction,
    value: Value,
    spec8: dict,
    result: SqueezeResult,
    slice_ty: IntType,
) -> Value:
    """Slice-width form of ``value`` for use by a narrowed instruction."""
    mapped = spec8.get(value)
    if mapped is not None:
        return mapped
    if isinstance(value, Constant):
        return Constant(slice_ty, value.value)
    if isinstance(value.type, IntType) and value.type.bits == slice_ty.bits:
        return value
    cached = result.trunc_cache.get((id(block), value))
    if cached is not None:
        return cached
    if isinstance(value.type, IntType) and value.type.bits < slice_ty.bits:
        # i1 operand: widen to the slice; trivially fits, never misspeculates.
        widen = Cast("zext", value, slice_ty, func.next_name("swiden"))
        index = block.instructions.index(position)
        block.insert(index, widen)
        result.trunc_cache[(id(block), value)] = widen
        return widen
    # Unsqueezed wide producer: bridge with a speculative truncate, which
    # misspeculates when the run-time value does not fit the slice.
    trunc = Cast("trunc", value, slice_ty, func.next_name("strunc"))
    trunc.speculative = True
    index = block.instructions.index(position)
    block.insert(index, trunc)
    result.spec_truncs += 1
    result.trunc_cache[(id(block), value)] = trunc
    return trunc


def _narrow_definition(
    func: Function,
    inst: Instruction,
    spec8: dict,
    result: SqueezeResult,
    slice_ty: IntType,
) -> Optional[Instruction]:
    """Create the slice-width clone of ``inst`` (or alias through for casts)."""
    block = inst.parent
    if isinstance(inst, BinOp):
        lhs = _narrow_operand(func, block, inst, inst.lhs, spec8, result, slice_ty)
        rhs = _narrow_operand(func, block, inst, inst.rhs, spec8, result, slice_ty)
        narrow = BinOp(inst.opcode, lhs, rhs, func.next_name(f"{inst.name}.n"))
        narrow.speculative = True
    elif isinstance(inst, Load):
        narrow = Load(
            inst.ptr, func.next_name(f"{inst.name}.n"), result_type=slice_ty
        )
        narrow.speculative = True
    elif isinstance(inst, Cast):
        src = inst.value
        mapped = spec8.get(src)
        if mapped is not None:
            spec8[inst] = mapped
            return None
        if isinstance(src, Constant):
            spec8[inst] = Constant(slice_ty, slice_ty.wrap(src.value))
            return None
        if isinstance(src.type, IntType) and src.type.bits == slice_ty.bits:
            spec8[inst] = src
            return None
        if isinstance(src.type, IntType) and src.type.bits < slice_ty.bits:
            # Sub-slice source (i1 from a compare): the low slice bits of the
            # original widening cast are the same cast to the slice type —
            # always fits, so no speculation is needed.
            narrow = Cast(inst.opcode, src, slice_ty, func.next_name(f"{inst.name}.n"))
        else:
            narrow = Cast("trunc", src, slice_ty, func.next_name(f"{inst.name}.n"))
            narrow.speculative = True
            result.spec_truncs += 1
    elif isinstance(inst, Phi):
        narrow = Phi(slice_ty, func.next_name(f"{inst.name}.n"))
        # incomings are filled once every definition has its 8-bit form
    else:  # pragma: no cover - plan only selects the kinds above
        raise TypeError(f"cannot narrow {inst.opcode}")
    index = block.instructions.index(inst)
    block.insert(index, narrow)
    spec8[inst] = narrow
    return narrow


def squeeze_function(
    func: Function, plan: SqueezePlan, module: Optional[Module] = None
) -> SqueezeResult:
    """Apply the squeezer to ``func`` (already CFG-prepared and profiled)."""
    result = SqueezeResult()
    if not plan.narrow and not plan.narrow_cmps:
        return result
    slice_ty = int_type(plan.width)

    # Dedicated (idempotent, call-free) entry block to host the hoisted
    # argument truncates; created pre-clone so its CFG_orig twin exists.
    if plan.narrow_args:
        old_entry = func.entry
        pre_entry = func.add_block("entry.args")
        pre_entry.append(Br(old_entry))
        func.set_entry(pre_entry)

    # -- pass ①b: clone into CFG_spec / CFG_orig ------------------------------
    orig_blocks = list(func.blocks)
    for block in orig_blocks:
        block.world = "orig"
    vmap, bmap = clone_blocks(func, orig_blocks, ".sp")
    for block in orig_blocks:
        clone = bmap[block]
        clone.world = "spec"
        result.spec_block[block] = clone
    func.set_entry(bmap[func.entry])

    spec_narrow = {vmap[v] for v in plan.narrow}
    spec_cmps = {vmap[c] for c in plan.narrow_cmps}
    spec8 = result.spec8

    # Hoisted argument truncates: one speculative slice form per narrow
    # argument, materialized in the dedicated spec entry block.
    spec_entry = func.entry
    if plan.narrow_args:
        for position, arg in enumerate(
            sorted(plan.narrow_args, key=lambda a: a.index)
        ):
            trunc = Cast("trunc", arg, slice_ty, func.next_name(f"{arg.name}.arg8"))
            trunc.speculative = True
            spec_entry.insert(position, trunc)
            spec8[arg] = trunc
            result.spec_truncs += 1

    # -- pass ②: narrow definitions in CFG_spec --------------------------------
    narrow_phis: list[tuple[Phi, Phi]] = []
    for block in reverse_postorder(func):
        if block.world != "spec":
            continue
        for inst in list(block.instructions):
            if inst in spec_narrow:
                narrow = _narrow_definition(func, inst, spec8, result, slice_ty)
                if isinstance(narrow, Phi):
                    narrow_phis.append((inst, narrow))
                result.narrowed += 1
            elif inst in spec_cmps:
                lhs = _narrow_operand(
                    func, block, inst, inst.lhs, spec8, result, slice_ty
                )
                rhs = _narrow_operand(
                    func, block, inst, inst.rhs, spec8, result, slice_ty
                )
                narrow_cmp = Icmp(
                    inst.pred, lhs, rhs, func.next_name(f"{inst.name}.n")
                )
                index = block.instructions.index(inst)
                block.insert(index, narrow_cmp)
                inst.replace_all_uses_with(narrow_cmp)
                inst.erase_from_parent()
                spec8[inst] = narrow_cmp  # i1-typed: used directly by handlers
                result.narrowed_cmps += 1

    # Fill narrow-phi incomings (all producers now have 8-bit forms).
    for original, narrow in narrow_phis:
        for value, pred in original.incoming():
            if value in spec8:
                narrow.add_incoming(spec8[value], pred)
            elif isinstance(value, Constant):
                narrow.add_incoming(Constant(slice_ty, value.value), pred)
            elif isinstance(value.type, IntType) and value.type.bits == plan.width:
                narrow.add_incoming(value, pred)
            else:  # pragma: no cover - excluded by the plan's phi fixpoint
                raise AssertionError(
                    f"narrow phi {narrow.name}: wide incoming {value!r}"
                )

    # -- pass ②c: extend narrowed values back for surviving wide uses ---------
    for original in list(spec8):
        if not isinstance(original, Instruction) or original.parent is None:
            continue
        if original not in spec_narrow:
            continue
        narrow_value = spec8[original]
        block = original.parent
        if original.users:
            ext = Cast(
                "zext", narrow_value, original.type, func.next_name(f"{original.name}.x")
            )
            phis = block.phis()
            if isinstance(original, Phi):
                index = len(phis)  # after the phi group
            else:
                index = block.instructions.index(original)
            block.insert(index, ext)
            original.replace_all_uses_with(ext)
        original.erase_from_parent()

    # -- speculative regions: one per block holding speculative instructions --
    liveness = compute_liveness(func)
    regions: list[SpeculativeRegion] = []
    for block in func.blocks:
        if block.world != "spec":
            continue
        if any(inst.speculative for inst in block.instructions):
            regions.append(SpeculativeRegion([block]))
    result.regions = len(regions)

    # -- pass ③: handlers + SSA repair of CFG_orig ------------------------------
    orig_of = {clone: orig for orig, clone in bmap.items()}
    handler_defs: dict[Instruction, list[tuple[BasicBlock, Value]]] = {}
    def_blocks: dict[Instruction, BasicBlock] = {}
    for block in orig_blocks:
        for inst in block.instructions:
            if inst.has_result:
                def_blocks[inst] = block

    for region in regions:
        b_spec = region.entry
        b_orig = orig_of[b_spec]
        handler = func.add_block(f"{b_orig.name}.hdl")
        handler.world = "handler"
        region.set_handler(handler)
        live_in = sorted(
            (
                v
                for v in liveness.live_in.get(b_orig, ())
                if isinstance(v, Instruction) and v in def_blocks
            ),
            key=lambda v: v.name,
        )
        for v_orig in live_in:
            spec_value = vmap.get(v_orig)
            if spec_value is None:  # pragma: no cover - clone covers all defs
                continue
            narrow_value = spec8.get(spec_value)
            if narrow_value is not None and narrow_value.type != v_orig.type:
                ext = Cast(
                    "zext",
                    narrow_value,
                    v_orig.type,
                    func.next_name(f"{v_orig.name}.h"),
                )
                handler.append(ext)
                handler_value: Value = ext
            elif narrow_value is not None:
                handler_value = narrow_value
            else:
                handler_value = spec_value
            handler_defs.setdefault(v_orig, []).append((handler, handler_value))
        handler.append(Br(b_orig))

    # Rewrite CFG_orig uses of variables that handlers redefine.  The last
    # handler edge is in, so every updater shares one predecessor map.
    preds = predecessor_map(func)
    updaters: list[SSAUpdater] = []
    for v_orig, defs in handler_defs.items():
        home = def_blocks[v_orig]
        updater = SSAUpdater(func, v_orig.type, v_orig.name, preds)
        updater.add_def(home, v_orig)
        for handler, handler_value in defs:
            updater.add_def(handler, handler_value)
        updaters.append(updater)
        for user in list(v_orig.users):
            if user.parent is None:
                continue
            if user.parent is home and not isinstance(user, Phi):
                continue
            for index, operand in enumerate(user.operands):
                if operand is v_orig:
                    if isinstance(user, Phi) and user.incoming_blocks[index] is home:
                        continue
                    updater.rewrite_use(user, index)
    for updater in updaters:
        updater.cleanup()
    return result


def squeeze_module(
    module: Module, plans: dict[str, SqueezePlan]
) -> dict[str, SqueezeResult]:
    """Squeeze every function that has a plan; returns per-function results."""
    results = {}
    for name, plan in plans.items():
        result = squeeze_function(module.functions[name], plan, module)
        results[name] = result
        stats.bump("squeezer", "variables_narrowed", result.narrowed)
        stats.bump("squeezer", "compares_narrowed", result.narrowed_cmps)
        stats.bump("squeezer", "casts_inserted", result.spec_truncs)
        stats.bump("squeezer", "regions_created", result.regions)
        stats.bump("squeezer", "functions_squeezed",
                   1 if (plan.narrow or plan.narrow_cmps) else 0)
    return results
