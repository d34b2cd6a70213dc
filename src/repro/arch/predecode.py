"""Predecoded fast path for the behavioral machine model.

The legacy :meth:`Machine.run` loop re-examines every :class:`MachineInst`
on every dynamic execution: string opcode matching through a ~30-way elif
chain, ``type()`` dispatch per operand, and half a dozen dict/attribute
counter increments per step.  This module predecodes the linked program
*once* into dense tuples — integer opcode ids, resolved operand
descriptors, precomputed masks/shifts — and batches every statically
determined energy/event counter out of the hot loop entirely: the loop
bumps one per-pc execution count, and all static counter contributions
(register-file accesses by width, ALU/move/mul/div op counts, instruction
classes, loads/stores, branch counts, fixed extra cycles) are recovered at
the end as ``Σ per-pc effect × execution count``.  Only genuinely dynamic
events (hazard bubbles, taken conditional branches, misspeculations, and
the conditional register writes of ``movcond`` / ``bs_*`` ops) are
counted inside the loop.

The cache hierarchy is not in the loop at all.  Cache geometry never
changes architectural state, so the loop only *logs* the L1 access
stream — one event per I-line transition (a local shadow of the
icache's last line filters same-line fetches) and one per data access —
into a compact ``array('q')``.  :func:`replay` then feeds that log, in
program order, through the LRU model of a :class:`MemoryHierarchy`,
filling the per-pc cache-level arrays and leaving the hierarchy exactly
as per-access lookups would have.  The same log replays under any other
geometry (:meth:`ArchRun.fold`), which is how a DSE sweep scores cache
sizes without re-executing the program.

The loop is the cold tier of a two-tier engine.  It counts region
entries on control transfers, and a region the program's runs keep
entering is translated by :mod:`repro.arch.compiled` and runs as
straight-line Python on the same state from then on (:func:`run_fast`).

The predecoded form is cached on the :class:`LinkedProgram` instance, so
repeated simulations of one binary (different inputs, DTS reruns, the
bench matrix) skip predecode.  Event counts are bit-identical to the
legacy path — ``tests/test_machine_predecode.py`` asserts this
differentially over the fuzz seed corpus and real workloads, and
``tests/test_cache_replay.py`` across cache geometries.

Observability rides the same batching (:mod:`repro.obs`): the loop keeps
*per-pc* arrays for the genuinely dynamic events (load-use hazards,
misspeculations, taken conditional branches, conditional-move commits)
and the replay adds the per-pc cache misses, each bumped only when the
event actually occurs.  The fold gathers the arrays into a
:class:`PcSample` and *derives* the common-case counters (L1 hits, slice
writes of successful ``bs_*`` ops, stall cycles) from ``exec − events``
in :func:`tally_pcs` instead of bumping them per step.  Attribution calls
the same function per group of pcs, so its data is a free by-product of
the fast path.  When ``Machine.obs`` is set, the sample is handed to the
caller on ``SimResult.obs``.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass, field

from repro.arch.cache import L1_LINE_SHIFT, MemoryHierarchy
from repro.arch.energy import EnergyCounters
from repro.arch.machine import HALT
from repro.arch.semantics import DIV_OPS as _DIV_OPS
from repro.arch.widths import BYTE_MASKS as _MASKS, slice_mask
from repro.backend.mir import Imm, Slice
from repro.interp.interpreter import evaluate_icmp
from repro.interp.memory import FlatMemory, STACK_TOP, initialize_globals
from repro.ir.types import int_type

# -- integer opcode ids -------------------------------------------------------

(
    OP_ALU,
    OP_MOV,
    OP_LOAD,
    OP_STORE,
    OP_BCOND,
    OP_B,
    OP_CMP,
    OP_BS_BIN,
    OP_BS_TRUNC,
    OP_BS_TRUNC_HI,
    OP_BS_LDR,
    OP_EXT,
    OP_MOVCOND,
    OP_MUL,
    OP_UMULL,
    OP_DIV,
    OP_ADDS,
    OP_ADC,
    OP_SUBS,
    OP_SBC,
    OP_ADDSL,
    OP_ORRSL,
    OP_BL,
    OP_BX,
    OP_SUBSPI,
    OP_ADDSPI,
    OP_CMP64LO,
    OP_OUT,
    OP_NOP,
    OP_ERROR,
) = range(30)

#: opcode ids that resolve a speculation (the engines' four spec sites)
SPEC_OPS = frozenset({OP_BS_BIN, OP_BS_TRUNC, OP_BS_TRUNC_HI, OP_BS_LDR})

_ALU_SUB = {"add": 0, "sub": 1, "and": 2, "orr": 3, "eor": 4, "lsl": 5,
            "lsr": 6, "asr": 7}
_BS_SUB = {"bs_add": 0, "bs_sub": 1, "bs_and": 2, "bs_orr": 3, "bs_eor": 4,
           "bs_lsl": 5, "bs_lsr": 6}

# -- static counter ids (the batched, exec-count-weighted events) -------------

(
    C_RF_R1, C_RF_R2, C_RF_R4,
    C_RF_W1, C_RF_W2, C_RF_W4,
    C_ALU32, C_ALU8, C_MUL, C_DIV, C_MOVE,
    K_ALU32, K_ALU8, K_MUL, K_DIV, K_MOVE, K_MEM, K_BRANCH,
    C_LOADS, C_STORES, C_COPIES, C_SPILL_L, C_SPILL_S,
    C_BRANCHES, C_TAKEN, C_XCYCLES,
) = range(26)

N_STATIC = 26

_RF_R_ID = {1: C_RF_R1, 2: C_RF_R2, 4: C_RF_R4}
_RF_W_ID = {1: C_RF_W1, 2: C_RF_W2, 4: C_RF_W4}


class _PredecodeError(Exception):
    """An instruction the fast path cannot represent (re-raised as the
    legacy path's MachineError when — and only when — it executes)."""


def _read_desc(op, eff, narrow_rf):
    """Operand -> (reg, shift, mask, const); records the static rf-read
    effect.

    The operand's value is ``(regs[reg] >> shift) & mask`` when ``mask``
    is non-zero and ``const`` when it is zero: a register slice has
    ``const`` 0, ``sp`` is the full slice of r13 and an immediate is
    ``(0, 0, 0, value)``.
    """
    if type(op) is Slice:
        size = op.size if op.size <= 4 else 4
        width = size if narrow_rf else 4
        eff[_RF_R_ID[width]] = eff.get(_RF_R_ID[width], 0) + 1
        return (op.reg, op.offset * 8, _MASKS[size], 0)
    if type(op) is Imm:
        return (0, 0, 0, op.value & 0xFFFFFFFF)
    if op == "sp":
        eff[C_RF_R4] = eff.get(C_RF_R4, 0) + 1
        return (13, 0, 0xFFFFFFFF, 0)
    raise _PredecodeError(f"cannot read operand {op!r}")


def _rf_width(op, narrow_rf):
    size = op.size if op.size <= 4 else 4
    return size if narrow_rf else 4


def _write_desc(op, eff, narrow_rf, count=True):
    """Slice def -> (reg, shift, value-mask, keep-mask)."""
    if type(op) is not Slice:
        raise _PredecodeError(f"cannot write operand {op!r}")
    size = op.size if op.size <= 4 else 4
    if count:
        width = size if narrow_rf else 4
        eff[_RF_W_ID[width]] = eff.get(_RF_W_ID[width], 0) + 1
    shift = op.offset * 8
    vmask = _MASKS[size]
    return (op.reg, shift, vmask, (~(vmask << shift)) & 0xFFFFFFFF)


def _bump(eff, cid, amount=1):
    eff[cid] = eff.get(cid, 0) + amount


def _alu_counters(eff, narrow_rf, width):
    if narrow_rf and width == 1:
        _bump(eff, C_ALU8)
        _bump(eff, K_ALU8)
    else:
        _bump(eff, C_ALU32)
        _bump(eff, K_ALU32)


def _predecode_inst(inst, narrow_rf):
    """One MachineInst -> (args tuple, static-effects dict)."""
    eff: dict = {}
    opcode = inst.opcode
    kind = inst.kind
    if kind:
        if kind == "copy":
            _bump(eff, C_COPIES)
        elif kind == "reload":
            _bump(eff, C_SPILL_L)
        elif kind == "spill":
            _bump(eff, C_SPILL_S)
    hazard = tuple(
        sorted({op.reg for op in inst.uses if type(op) is Slice})
    )

    if opcode == "mov" or opcode == "movi":
        src = _read_desc(inst.uses[0], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        _bump(eff, C_MOVE)
        _bump(eff, K_MOVE)
        return (OP_MOV, hazard, src, dst), eff
    if opcode in ("ldr", "ldrb", "ldrh"):
        base = _read_desc(inst.uses[0], eff, narrow_rf)
        disp = inst.uses[1].value if len(inst.uses) > 1 else 0
        size = {"ldr": 4, "ldrb": 1, "ldrh": 2}[opcode]
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        _bump(eff, C_LOADS)
        _bump(eff, K_MEM)
        return (OP_LOAD, hazard, base, disp, size, dst, inst.defs[0].reg), eff
    if opcode in ("str", "strb", "strh"):
        value = _read_desc(inst.uses[0], eff, narrow_rf)
        base = _read_desc(inst.uses[1], eff, narrow_rf)
        disp = inst.uses[2].value if len(inst.uses) > 2 else 0
        size = {"str": 4, "strb": 1, "strh": 2}[opcode]
        _bump(eff, C_STORES)
        _bump(eff, K_MEM)
        return (OP_STORE, hazard, value, base, disp, size), eff
    if opcode in _ALU_SUB:
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        width = inst.width
        mask = _MASKS.get(width, 0xFFFFFFFF)
        _alu_counters(eff, narrow_rf, width)
        # asr needs the signed type of the operation width
        ty = int_type(width * 8) if opcode == "asr" else None
        return (OP_ALU, hazard, _ALU_SUB[opcode], a, b, dst, mask, ty), eff
    if opcode == "bs_ldr":
        addr = _read_desc(inst.uses[0], eff, narrow_rf)
        size = inst.uses[1].value
        dst = _write_desc(inst.defs[0], eff, narrow_rf, count=False)
        wr_width = _rf_width(inst.defs[0], narrow_rf)
        _bump(eff, C_LOADS)
        _bump(eff, C_ALU8)
        _bump(eff, K_ALU8)
        return (OP_BS_LDR, hazard, addr, size, dst, wr_width,
                inst.defs[0].reg), eff
    if opcode in _BS_SUB:
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf, count=False)
        wr_width = _rf_width(inst.defs[0], narrow_rf)
        _bump(eff, C_ALU8)
        _bump(eff, K_ALU8)
        return (OP_BS_BIN, hazard, _BS_SUB[opcode], a, b, dst, wr_width), eff
    if opcode == "bs_trunc":
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf, count=False)
        wr_width = _rf_width(inst.defs[0], narrow_rf)
        _bump(eff, C_ALU8)
        _bump(eff, K_ALU8)
        return (OP_BS_TRUNC, hazard, a, dst, wr_width), eff
    if opcode == "bs_trunc_hi":
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        _bump(eff, C_ALU8)
        _bump(eff, K_ALU8)
        return (OP_BS_TRUNC_HI, hazard, a), eff
    if opcode in ("cmp", "bs_cmp", "cmp64hi", "cmp64lo"):
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        if opcode == "bs_cmp":
            _bump(eff, C_ALU8)
            _bump(eff, K_ALU8)
        else:
            _bump(eff, C_ALU32)
            _bump(eff, K_ALU32)
        if opcode == "cmp64lo":
            return (OP_CMP64LO, hazard, a, b), eff
        # cmp64hi leaves its halves under the width "hi" for cmp64lo
        width = "hi" if opcode == "cmp64hi" else inst.width
        return (OP_CMP, hazard, a, b, width), eff
    if opcode.startswith("bs_"):
        raise _PredecodeError(f"unknown speculative opcode {opcode!r}")
    if opcode == "b":
        _bump(eff, C_BRANCHES)
        _bump(eff, C_TAKEN)
        _bump(eff, C_XCYCLES, 2)
        _bump(eff, K_BRANCH)
        return (OP_B, hazard, inst.target), eff
    if opcode == "bcond":
        _bump(eff, C_BRANCHES)
        _bump(eff, K_BRANCH)
        return (OP_BCOND, hazard, inst.cond, inst.target), eff
    if opcode == "movcond":
        src = inst.uses[0]
        src_desc = _read_desc(src, {}, narrow_rf)  # counted dynamically
        src_w = _rf_width(src, narrow_rf) if type(src) is Slice else (
            4 if src == "sp" else 0
        )
        dst = _write_desc(inst.defs[0], eff, narrow_rf, count=False)
        wr_width = _rf_width(inst.defs[0], narrow_rf)
        _bump(eff, C_MOVE)
        _bump(eff, K_MOVE)
        return (OP_MOVCOND, hazard, inst.cond, src_desc, src_w, dst,
                wr_width), eff
    if opcode in ("uxt", "sxt", "trunc"):
        src = inst.uses[0]
        a = _read_desc(src, eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        if narrow_rf and inst.width == 1:
            _bump(eff, C_ALU8)
            _bump(eff, K_ALU8)
        else:
            _bump(eff, C_MOVE)
            _bump(eff, K_MOVE)
        if opcode != "sxt":
            # the slice write zero-extends or truncates: a move
            return (OP_MOV, hazard, a, dst), eff
        src_bits = (src.size if type(src) is Slice else 4) * 8
        return (OP_EXT, hazard, a, int_type(src_bits), dst), eff
    if opcode == "mul":
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        mask = _MASKS.get(inst.width, 0xFFFFFFFF)
        _bump(eff, C_MUL)
        _bump(eff, K_MUL)
        _bump(eff, C_XCYCLES, 2)
        return (OP_MUL, hazard, a, b, dst, mask), eff
    if opcode == "umull":
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        lo = _write_desc(inst.defs[0], eff, narrow_rf)
        hi = _write_desc(inst.defs[1], eff, narrow_rf)
        _bump(eff, C_MUL)
        _bump(eff, K_MUL)
        _bump(eff, C_XCYCLES, 3)
        return (OP_UMULL, hazard, a, b, lo, hi), eff
    if opcode in _DIV_OPS:
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        ty = int_type(inst.width * 8)
        _bump(eff, C_DIV)
        _bump(eff, K_DIV)
        _bump(eff, C_XCYCLES, 11)
        return (OP_DIV, hazard, _DIV_OPS.index(opcode), a, b, dst, ty), eff
    if opcode in ("adds", "adc", "subs", "sbc"):
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        _bump(eff, C_ALU32)
        _bump(eff, K_ALU32)
        opid = {"adds": OP_ADDS, "adc": OP_ADC, "subs": OP_SUBS,
                "sbc": OP_SBC}[opcode]
        return (opid, hazard, a, b, dst), eff
    if opcode in ("addsl", "orrsl"):
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        b = _read_desc(inst.uses[1], eff, narrow_rf)
        dst = _write_desc(inst.defs[0], eff, narrow_rf)
        shift = inst.uses[2].value
        _bump(eff, C_ALU32)
        _bump(eff, K_ALU32)
        opid = OP_ADDSL if opcode == "addsl" else OP_ORRSL
        return (opid, hazard, a, b, shift, dst), eff
    if opcode == "bl":
        _bump(eff, C_BRANCHES)
        _bump(eff, C_TAKEN)
        _bump(eff, C_XCYCLES, 2)
        _bump(eff, K_BRANCH)
        return (OP_BL, hazard, inst.target), eff
    if opcode == "bx":
        _bump(eff, C_BRANCHES)
        _bump(eff, C_TAKEN)
        _bump(eff, C_XCYCLES, 2)
        _bump(eff, K_BRANCH)
        return (OP_BX, hazard), eff
    if opcode == "subspi" or opcode == "addspi":
        _bump(eff, C_ALU32)
        _bump(eff, K_ALU32)
        opid = OP_SUBSPI if opcode == "subspi" else OP_ADDSPI
        return (opid, hazard, inst.uses[0].value), eff
    if opcode == "out":
        a = _read_desc(inst.uses[0], eff, narrow_rf)
        _bump(eff, C_MOVE)
        _bump(eff, K_MOVE)
        return (OP_OUT, hazard, a), eff
    if opcode == "nop" or opcode == "mode":
        _bump(eff, K_MOVE)
        return (OP_NOP, hazard), eff
    raise _PredecodeError(f"unknown opcode {opcode!r}")


def predecode(linked, narrow_rf: bool):
    """Predecode a linked program; cached on the LinkedProgram instance.

    Returns ``(code, effects)``: per-pc argument tuples and per-pc static
    counter effects (tuples of ``(counter_id, amount)``).
    """
    cache = getattr(linked, "_predecode_cache", None)
    if cache is None:
        cache = {}
        linked._predecode_cache = cache
    cached = cache.get(narrow_rf)
    if cached is not None:
        return cached
    # Mixed-world binaries: instructions owned by functions that fell back
    # to BASELINE codegen use full-width register-file accounting even when
    # the image as a whole is ARM_BS.  The fallback set is fixed per
    # LinkedProgram instance, so ``narrow_rf`` alone still keys the cache.
    fallback = getattr(linked, "fallback_functions", None) or None
    owner = linked.owner if (fallback and narrow_rf) else None
    code = []
    effects = []
    for index, inst in enumerate(linked.insts):
        inst_narrow = narrow_rf
        if owner is not None and owner[index] in fallback:
            inst_narrow = False
        try:
            args, eff = _predecode_inst(inst, inst_narrow)
        except _PredecodeError as exc:
            # Mirror the legacy path: the error is raised only if the
            # instruction is actually executed.
            args, eff = (OP_ERROR, (), str(exc), inst.opcode), {}
        code.append(args)
        effects.append(tuple(sorted(eff.items())))
    cache[narrow_rf] = (code, effects)
    return cache[narrow_rf]


#: a region the program's runs have entered this many times in all by a
#: control transfer is translated (:mod:`repro.arch.compiled`) and runs
#: translated from then on.  Set to ``None`` (the tests' "never" lane),
#: the engine steps every instruction; ``run_fast(translate_after=None)``
#: instead means "use this constant".  Chosen by measurement:
#: roster-cold's cold simulations sum lowest near 64, and no serve-closed
#: region is entered that often
TRANSLATE_AFTER = 64


def run_fast(machine, checkpoint_at=None, resume_from=None, *,
             translate_after=None) -> "SimResult":
    """Execute a linked program on the tiered in-order engine.

    Produces a :class:`repro.arch.machine.SimResult` with event counts
    bit-identical to :meth:`Machine._run_legacy`.

    The loop below steps the predecoded program one instruction at a
    time and counts region entries on control transfers only (taken
    branches, calls, returns and misspeculation redirects) on the
    program's image, across runs.  A region entered more than
    ``translate_after`` times is translated and runs translated from
    then on — from its first entry if an earlier run translated it — on
    the same registers, memory, access log and per-pc arrays, through a
    :class:`repro.arch.compiled.Tier` that lives as long as the run.
    The ``S`` slots carry the rest of the state across each hand-off in
    either direction, so the tiers agree on it at every region
    boundary; translated code that exits to a cold entry, or to a pc no
    region starts at, hands the stepper that pc.  The fold adds the
    translated executions to the stepped ones.  A fault session or a
    checkpoint steps every instruction.

    ``translate_after=None`` (the default) reads :data:`TRANSLATE_AFTER`
    at call time, and a ``None`` there steps every instruction; an
    integer, 0 included, is the threshold itself.

    ``checkpoint_at=N`` returns a
    :class:`repro.arch.checkpoint.Snapshot` at the first
    instruction-count boundary ``>= N`` (a SimResult when the program
    halts first); ``resume_from`` restores one.  The fast path's
    in-flight state is the per-pc event arrays, captured wholesale —
    the fold at halt then sees exactly what an uninterrupted run would
    have accumulated, so resume is bit-identical by construction.  The
    pending access log is replayed before a snapshot is taken, so the
    snapshot holds the same hierarchy an in-loop cache model would.

    A whole run (no ``resume_from``) also leaves its :class:`ArchRun` on
    ``machine.arch_run``, for re-scoring under other cache geometries.
    """
    from repro.arch.machine import MachineError

    linked = machine.linked
    code = predecode(linked, machine.narrow_rf)[0]
    n_insts = len(code)
    delta = linked.delta
    inst_bytes = linked.inst_bytes
    spec_mask = slice_mask(machine.slice_width)
    if translate_after is None:
        translate_after = TRANSLATE_AFTER
    ishift = _iline_shift(inst_bytes)
    pc_bits = _pc_bits(n_insts)

    output: list = []

    hierarchy = MemoryHierarchy(machine.geometry)
    # The L1 access stream, in program order: ``~pc`` for a fetch that
    # leaves the icache's last line, ``addr << pc_bits | pc`` for a data
    # access.  ``iline`` shadows ``hierarchy.icache._last_line``.
    log = array("q")
    log_append = log.append
    iline = -1
    # fetches since the log began: the same-line ones are icache hits
    # that log nothing, but still count as accesses
    log_from = 0
    skipped = 0

    memory = FlatMemory()
    initialize_globals(memory, machine.module, linked.global_addresses)
    mem_load = memory.load
    mem_store = memory.store

    regs = [0] * 16
    regs[13] = STACK_TOP
    regs[14] = HALT
    cmp_state = (0, 0, 4)
    carry = 0

    exec_counts = [0] * n_insts

    pc = linked.entry_index
    steps = 0
    limit = machine.step_limit
    # Dynamic events, recorded per pc and only when they occur.  The
    # common case (L1 hit, no hazard, no misspeculation, branch not
    # taken) touches none of these; everything an aggregate counter or
    # :mod:`repro.obs` needs is derived from ``exec − events`` at fold
    # time.  This is also what keeps obs overhead ~zero: enabling it
    # adds no work to the loop at all.
    last_load_reg = -1
    ic_l2_pc = [0] * n_insts  # fetch hit L2
    ic_mem_pc = [0] * n_insts  # fetch went to DRAM
    d_l2_pc = [0] * n_insts  # data access hit L2 (loads and stores)
    d_mem_pc = [0] * n_insts  # data access went to DRAM
    hazard_pc = [0] * n_insts  # load-use bubble charged to the consumer
    misspec_pc = [0] * n_insts  # bs_* op overflowed its slice
    taken_pc = [0] * n_insts  # conditional branch taken
    movcond_pc = [0] * n_insts  # movcond condition was true (committed)

    if resume_from is not None:
        from repro.arch.checkpoint import restore_hierarchy

        snap = resume_from
        snap.check_resume(machine, "fast")
        hierarchy = restore_hierarchy(snap.hierarchy, machine.geometry)
        iline = hierarchy.icache._last_line
        memory.data[:] = snap.memory_data
        regs[:] = snap.regs
        cmp_state = tuple(snap.cmp_state)
        carry = snap.carry
        last_load_reg = snap.last_load_reg
        pc = snap.pc
        steps = log_from = snap.instructions
        output[:] = snap.output
        state = snap.state
        exec_counts[:] = state["exec_counts"]
        ic_l2_pc[:] = state["ic_l2_pc"]
        ic_mem_pc[:] = state["ic_mem_pc"]
        d_l2_pc[:] = state["d_l2_pc"]
        d_mem_pc[:] = state["d_mem_pc"]
        hazard_pc[:] = state["hazard_pc"]
        misspec_pc[:] = state["misspec_pc"]
        taken_pc[:] = state["taken_pc"]
        movcond_pc[:] = state["movcond_pc"]

    fx = machine.faults
    tier = None
    hot = False
    if (translate_after is not None and fx is None and checkpoint_at is None
            and resume_from is None):
        from repro.arch import compiled

        tier = compiled.Tier(
            compiled.get_image(linked, machine.narrow_rf, spec_mask),
            translate_after, regs, memory.data, output, log,
            hazard_pc, misspec_pc, taken_pc, movcond_pc,
        )
        budget = tier.budget
        S = tier.S
        # the run's first entry counts like a control transfer
        if 0 <= pc < n_insts:
            if budget[pc]:
                budget[pc] -= 1
            else:
                hot = True
    else:
        # no pc ever runs translated
        budget = [-1] * n_insts
    try:
        # alternate between the tiers: translated code from a hot entry
        # until it hands a pc back, then steps from there until a control
        # transfer into a hot entry breaks out of the step loop
        while True:
            if hot:
                S[0] = cmp_state
                S[1] = carry
                S[2] = last_load_reg
                S[3] = steps
                S[4] = iline
                pc = tier.run(pc, limit)
                cmp_state = S[0]
                carry = S[1]
                last_load_reg = S[2]
                steps = S[3]
                iline = S[4]
            hot = True
            while pc != HALT:
                if checkpoint_at is not None and steps >= checkpoint_at:
                    from repro.arch.checkpoint import make_snapshot

                    replay(hierarchy, log, steps - log_from - skipped, inst_bytes,
                           ic_l2_pc, ic_mem_pc, d_l2_pc, d_mem_pc)
                    return make_snapshot(
                        machine, "fast",
                        instructions=steps, pc=pc, regs=regs, cmp_state=cmp_state,
                        carry=carry, last_load_reg=last_load_reg, output=output,
                        memory=memory, hierarchy=hierarchy,
                        state={
                            "exec_counts": list(exec_counts),
                            "ic_l2_pc": list(ic_l2_pc),
                            "ic_mem_pc": list(ic_mem_pc),
                            "d_l2_pc": list(d_l2_pc),
                            "d_mem_pc": list(d_mem_pc),
                            "hazard_pc": list(hazard_pc),
                            "misspec_pc": list(misspec_pc),
                            "taken_pc": list(taken_pc),
                            "movcond_pc": list(movcond_pc),
                        },
                    )
                if not 0 <= pc < n_insts:
                    raise MachineError(f"pc out of range: {pc}")
                t = code[pc]
                steps += 1
                if steps > limit:
                    raise MachineError("machine step limit exceeded")
                if fx is not None:
                    if fx.on_step(steps, pc, regs, memory) is not None:
                        # corrupted fetch: the slot executes as a bubble (same
                        # architectural effect as the legacy engine's skip) and
                        # fetches nothing
                        exec_counts[pc] += 1
                        skipped += 1
                        last_load_reg = -1
                        pc = pc + 1
                        continue
                # instruction fetch: only a line transition reaches the log
                if pc >> ishift != iline:
                    iline = pc >> ishift
                    log_append(~pc)
                exec_counts[pc] += 1
                # load-use hazard
                if last_load_reg >= 0:
                    if last_load_reg in t[1]:
                        hazard_pc[pc] += 1
                    last_load_reg = -1
                op = t[0]
                next_pc = pc + 1

                if op == OP_ALU:
                    d = t[3]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[4]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    sub = t[2]
                    mask = t[6]
                    if sub == 0:
                        value = (a + b) & mask
                    elif sub == 1:
                        value = (a - b) & mask
                    elif sub == 2:
                        value = a & b
                    elif sub == 3:
                        value = a | b
                    elif sub == 4:
                        value = a ^ b
                    elif sub == 5:
                        value = (a << b) & mask if b < 32 else 0
                    elif sub == 6:
                        value = (a >> b) if b < 32 else 0
                    else:  # asr
                        ty = t[7]
                        shift = min(b, ty.bits - 1)
                        value = ty.wrap(ty.to_signed(a) >> shift)
                    w = t[5]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_MOV:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    w = t[3]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_LOAD:
                    d = t[2]
                    base = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    addr = (base + t[3]) & 0xFFFFFFFF
                    value = mem_load(addr, t[4])
                    w = t[5]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                    log_append(addr << pc_bits | pc)
                    last_load_reg = t[6]
                elif op == OP_STORE:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    base = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    addr = (base + t[4]) & 0xFFFFFFFF
                    mem_store(addr, value, t[5])
                    # legacy path discards the store's stall cycles; levels only
                    log_append(addr << pc_bits | pc)
                elif op == OP_BCOND:
                    a, b, width = cmp_state
                    ty = int_type(64 if width == 8 else width * 8)
                    if evaluate_icmp(t[2], a, b, ty):
                        next_pc = t[3]
                        taken_pc[pc] += 1
                        left = budget[next_pc]
                        if not left:
                            pc = next_pc
                            break
                        budget[next_pc] = left - 1
                elif op == OP_B:
                    next_pc = t[2]
                    left = budget[next_pc]
                    if not left:
                        pc = next_pc
                        break
                    budget[next_pc] = left - 1
                elif op == OP_CMP:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    cmp_state = (a, b, t[4])
                elif op == OP_BS_BIN:
                    d = t[3]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[4]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    sub = t[2]
                    if sub == 0:
                        wide = a + b
                    elif sub == 1:
                        wide = a - b
                    elif sub == 2:
                        wide = a & b
                    elif sub == 3:
                        wide = a | b
                    elif sub == 4:
                        wide = a ^ b
                    elif sub == 5:
                        wide = (a << b) if b < 32 else 0
                    else:
                        wide = a >> b if b < 32 else 0
                    miss = wide < 0 or wide > spec_mask
                    if fx is not None:
                        miss = fx.spec_outcome(miss)
                    if miss:
                        misspec_pc[pc] += 1
                        next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                        if 0 <= next_pc < n_insts:
                            left = budget[next_pc]
                            if not left:
                                pc = next_pc
                                break
                            budget[next_pc] = left - 1
                    else:
                        w = t[5]
                        r = w[0]
                        regs[r] = (regs[r] & w[3]) | ((wide & w[2]) << w[1])
                elif op == OP_BS_TRUNC:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    miss = value > spec_mask
                    if fx is not None:
                        miss = fx.spec_outcome(miss)
                    if miss:
                        misspec_pc[pc] += 1
                        next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                        if 0 <= next_pc < n_insts:
                            left = budget[next_pc]
                            if not left:
                                pc = next_pc
                                break
                            budget[next_pc] = left - 1
                    else:
                        w = t[3]
                        r = w[0]
                        regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_BS_TRUNC_HI:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    miss = value != 0
                    if fx is not None:
                        miss = fx.spec_outcome(miss)
                    if miss:
                        misspec_pc[pc] += 1
                        next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                        if 0 <= next_pc < n_insts:
                            left = budget[next_pc]
                            if not left:
                                pc = next_pc
                                break
                            budget[next_pc] = left - 1
                elif op == OP_BS_LDR:
                    d = t[2]
                    addr = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    value = mem_load(addr, t[3])
                    log_append(addr << pc_bits | pc)
                    miss = value > spec_mask
                    if fx is not None:
                        miss = fx.spec_outcome(miss)
                    if miss:
                        misspec_pc[pc] += 1
                        next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                        if 0 <= next_pc < n_insts:
                            left = budget[next_pc]
                            if not left:
                                pc = next_pc
                                break
                            budget[next_pc] = left - 1
                    else:
                        w = t[4]
                        r = w[0]
                        regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                        last_load_reg = t[6]
                elif op == OP_EXT:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    value = t[3].to_signed(value) & 0xFFFFFFFF
                    w = t[4]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_MOVCOND:
                    a, b, width = cmp_state
                    ty = int_type(64 if width == 8 else width * 8)
                    if evaluate_icmp(t[2], a, b, ty):
                        movcond_pc[pc] += 1
                        d = t[3]
                        value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                        w = t[5]
                        r = w[0]
                        regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_MUL:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    value = (a * b) & t[5]
                    w = t[4]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_UMULL:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    product = a * b
                    w = t[4]
                    r = w[0]
                    value = product & 0xFFFFFFFF
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                    w = t[5]
                    r = w[0]
                    value = (product >> 32) & 0xFFFFFFFF
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_DIV:
                    d = t[3]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[4]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    if b == 0:
                        raise MachineError("division by zero")
                    sub = t[2]
                    ty = t[6]
                    if sub == 0:  # udiv
                        value = a // b
                    elif sub == 2:  # urem
                        value = a % b
                    else:
                        sa, sb = ty.to_signed(a), ty.to_signed(b)
                        q = abs(sa) // abs(sb)
                        rr = abs(sa) % abs(sb)
                        if sub == 1:  # sdiv
                            value = ty.wrap(-q if (sa < 0) != (sb < 0) else q)
                        else:  # srem
                            value = ty.wrap(-rr if sa < 0 else rr)
                    value = ty.wrap(value)
                    w = t[5]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_ADDS or op == OP_ADC:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    full = a + b + (carry if op == OP_ADC else 0)
                    carry = full >> 32
                    value = full & 0xFFFFFFFF
                    w = t[4]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_SUBS:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    carry = 1 if a >= b else 0
                    value = (a - b) & 0xFFFFFFFF
                    w = t[4]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_SBC:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    full = a - b - (1 - carry)
                    carry = 1 if full >= 0 else 0
                    value = full & 0xFFFFFFFF
                    w = t[4]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_ADDSL or op == OP_ORRSL:
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    shift = t[4]
                    if op == OP_ADDSL:
                        value = (a + (b << shift)) & 0xFFFFFFFF
                    else:
                        shifted = (b << shift) & 0xFFFFFFFF if shift >= 0 else (
                            b >> (-shift)
                        )
                        value = a | shifted
                    w = t[5]
                    r = w[0]
                    regs[r] = (regs[r] & w[3]) | ((value & w[2]) << w[1])
                elif op == OP_BL:
                    regs[14] = pc + 1
                    next_pc = t[2]
                    left = budget[next_pc]
                    if not left:
                        pc = next_pc
                        break
                    budget[next_pc] = left - 1
                elif op == OP_BX:
                    next_pc = regs[14]
                    if 0 <= next_pc < n_insts:
                        left = budget[next_pc]
                        if not left:
                            pc = next_pc
                            break
                        budget[next_pc] = left - 1
                elif op == OP_SUBSPI:
                    regs[13] = (regs[13] - t[2]) & 0xFFFFFFFF
                elif op == OP_ADDSPI:
                    regs[13] = (regs[13] + t[2]) & 0xFFFFFFFF
                elif op == OP_CMP64LO:
                    a_hi, b_hi, _tag = cmp_state
                    d = t[2]
                    a = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    d = t[3]
                    b = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    cmp_state = ((a_hi << 32) | a, (b_hi << 32) | b, 8)
                elif op == OP_OUT:
                    d = t[2]
                    value = ((regs[d[0]] >> d[1]) & d[2]) if d[2] else d[3]
                    output.append(value)
                elif op == OP_NOP:
                    pass
                else:  # OP_ERROR
                    raise MachineError(f"{t[2]} at {pc}")
                pc = next_pc
            else:
                break
    finally:
        if tier is not None:
            tier.close()
    if tier is not None:
        tier.fold_counts(exec_counts, hazard_pc)

    run = ArchRun(
        machine, (exec_counts, hazard_pc, misspec_pc, taken_pc, movcond_pc,
                  log), output, regs, steps - log_from - skipped,
    )
    if resume_from is None:
        machine.arch_run = run
    return run.fold(machine.geometry, memory=memory, hierarchy=hierarchy,
                    served=(ic_l2_pc, ic_mem_pc, d_l2_pc, d_mem_pc))


def _pc_bits(n_insts: int) -> int:
    """Low bits of a data-access log event that hold the pc."""
    return n_insts.bit_length()


def _iline_shift(inst_bytes: int) -> int:
    """The I-line of pc is ``pc >> _iline_shift(inst_bytes)``.

    Instructions are 2 or 4 bytes, a power of two, so this is the line
    ``(pc * inst_bytes) >> L1_LINE_SHIFT`` that the legacy engine
    fetches.  The stepper, the translated regions and :func:`replay` all
    take the line from here, so the icache shadow the tiers hand each
    other (``S[4]``) means one thing in both.
    """
    return L1_LINE_SHIFT + 1 - inst_bytes.bit_length()


def replay(hierarchy, log, fetches, inst_bytes,
           ic_l2_pc, ic_mem_pc, d_l2_pc, d_mem_pc) -> None:
    """Feed a :func:`run_fast` access log through ``hierarchy``'s LRU model.

    Events are replayed in program order — the shared L2 makes the
    interleaving of I and D traffic matter — and each L1 miss bumps the
    serving level's per-pc array.  ``fetches`` is the number of
    instruction fetches the log covers: the same-line ones never reach
    the log but are icache accesses all the same.  Afterwards the
    hierarchy is exactly as :meth:`MemoryHierarchy.fetch` /
    :meth:`~MemoryHierarchy.data_access` per access would have left it:
    way lists, :class:`~repro.arch.cache.CacheStats`, last-line fast
    paths and ``dram_accesses``.
    """
    pc_bits = _pc_bits(len(ic_l2_pc))
    pc_mask = (1 << pc_bits) - 1
    d_shift = pc_bits + L1_LINE_SHIFT
    i_shift = _iline_shift(inst_bytes)
    icache, dcache, l2 = hierarchy.icache, hierarchy.dcache, hierarchy.l2
    i_sets, i_mask, i_ways = icache._lines, icache._set_mask, icache.ways
    d_sets, d_mask, d_ways = dcache._lines, dcache._set_mask, dcache.ways
    l_sets, l_mask, l_ways = l2._lines, l2._set_mask, l2.ways
    i_last, d_last, l_last = icache._last_line, dcache._last_line, l2._last_line
    # every L1 set's most recent way: a hit on one changes nothing, so
    # most events end at one set-membership test (the dcache's last line
    # is always among them, which covers its same-line fast path)
    i_mru = {ways[-1] for ways in i_sets if ways}
    d_mru = {ways[-1] for ways in d_sets if ways}
    i_misses = d_accesses = d_misses = l_accesses = l_misses = dram = 0
    for event in log:
        if event < 0:
            # an I-line transition: never the icache's last line
            line = i_last = ~event >> i_shift
            if line in i_mru:
                continue
            ways = i_sets[line & i_mask]
            if ways:
                i_mru.discard(ways[-1])
            i_mru.add(line)
            if line in ways:
                ways.remove(line)
                ways.append(line)
                continue
            i_misses += 1
            ways.append(line)
            if len(ways) > i_ways:
                del ways[0]
            pc = ~event
            l2_pc, mem_pc = ic_l2_pc, ic_mem_pc
        else:
            d_accesses += 1
            line = d_last = event >> d_shift
            if line in d_mru:
                continue
            ways = d_sets[line & d_mask]
            if ways:
                d_mru.discard(ways[-1])
            d_mru.add(line)
            if line in ways:
                ways.remove(line)
                ways.append(line)
                continue
            d_misses += 1
            ways.append(line)
            if len(ways) > d_ways:
                del ways[0]
            pc = event & pc_mask
            l2_pc, mem_pc = d_l2_pc, d_mem_pc
        # the L2's fast path is reset before every lookup: never taken
        l_accesses += 1
        l_last = line
        ways = l_sets[line & l_mask]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            l2_pc[pc] += 1
            continue
        l_misses += 1
        ways.append(line)
        if len(ways) > l_ways:
            del ways[0]
        dram += 1
        mem_pc[pc] += 1
    icache.stats.accesses += fetches
    icache.stats.misses += i_misses
    icache._last_line = i_last
    dcache.stats.accesses += d_accesses
    dcache.stats.misses += d_misses
    dcache._last_line = d_last
    l2.stats.accesses += l_accesses
    l2.stats.misses += l_misses
    l2._last_line = l_last
    hierarchy.dram_accesses += dram


@dataclass
class PcSample:
    """Per-pc dynamic event counts from one fast run.

    Parallel arrays indexed by pc over the full image (code + skeleton).
    ``exec_counts[pc]`` is the number of dynamic executions; the other
    arrays count the rare events.  Common-case counters (L1 hits,
    successful speculative writes, stall cycles) are *derived* — see
    :func:`tally_pcs`.  :func:`fold_result` builds one for every run and
    keeps it on ``SimResult.obs`` for an obs run; :mod:`repro.obs`
    re-exports it as ``repro.obs.events.PcSample``.
    """

    narrow_rf: bool
    delta: int
    exec_counts: list = field(default_factory=list)
    icache_l2: list = field(default_factory=list)
    icache_mem: list = field(default_factory=list)
    dcache_l2: list = field(default_factory=list)
    dcache_mem: list = field(default_factory=list)
    hazards: list = field(default_factory=list)
    misspecs: list = field(default_factory=list)
    taken: list = field(default_factory=list)
    movconds: list = field(default_factory=list)

    @property
    def n_insts(self) -> int:
        return len(self.exec_counts)


class ArchRun:
    """One fast execution with its cache traffic unscored.

    Everything here is independent of cache geometry: the per-pc event
    arrays, the output and registers, and the L1 access log.  :meth:`fold`
    replays the log under any geometry and folds a :class:`SimResult`
    bit-identical to simulating the program under that geometry; both
    engines end their own runs with it.  The fold goes through the run's
    :class:`PcSample` and :func:`tally_pcs`, so a re-score of an obs run
    carries a sample that attribution can tally as well.  The memory
    image is deliberately not kept: a re-scored result has
    ``memory=None``.  Nor is the machine: it holds this run on
    ``Machine.arch_run``, and a reference back would make every fast
    run a reference cycle that only the garbage collector frees.
    """

    __slots__ = ("linked", "module", "obs", "faults", "output", "regs",
                 "fetches", "_events", "_packed")

    def __init__(self, machine, events, output, regs, fetches) -> None:
        self.linked = machine.linked
        self.module = machine.module
        self.obs = machine.obs
        self.faults = machine.faults
        self.output = output
        self.regs = regs
        self.fetches = fetches
        #: the per-pc arrays in :func:`fold_result`'s order, then the log
        self._events = events
        self._packed = None

    def pack(self) -> None:
        """Compress the per-pc arrays and the log in place, for a run kept
        to re-score later: crc32's 142 KB log packs to 16 KB, and the
        mostly-zero arrays to almost nothing."""
        if self._packed is None:
            packer = zlib.compressobj(1)
            chunks = [packer.compress(array("q", part)) for part in self._events]
            chunks.append(packer.flush())
            self._packed = b"".join(chunks)
            self._events = None

    def fold(self, geometry=None, *, memory=None, hierarchy=None,
             served=None) -> "SimResult":
        """The run's :class:`SimResult` under cache ``geometry``.

        The engine folding its own run passes what the log cannot
        rebuild: the final ``memory`` image and, after a resume, the
        restored ``hierarchy`` and the per-pc cache-level arrays
        (``served``: icache L2/DRAM, dcache L2/DRAM) it has been filling.
        """
        from repro.arch.machine import Machine

        linked = self.linked
        machine = Machine(linked, self.module, obs=self.obs,
                          geometry=geometry, faults=self.faults)
        n_insts = len(linked.insts)
        if self._packed is None:
            events = self._events
        else:
            flat = array("q", zlib.decompress(self._packed))
            events = [flat[i * n_insts:(i + 1) * n_insts].tolist()
                      for i in range(5)]
            events.append(flat[5 * n_insts:])
        if served is None:
            served = [[0] * n_insts for _ in range(4)]
        if hierarchy is None:
            hierarchy = MemoryHierarchy(geometry)
        return fold_result(machine, self, events, served, hierarchy, memory)


def fold_result(machine, run, events, served, hierarchy, memory):
    """Replay ``run``'s access log and fold its events into a SimResult.

    ``events`` are ``run``'s per-pc arrays and log (unpacked).  The log
    is replayed through ``hierarchy`` into the four ``served`` per-pc
    cache-level arrays; the arrays then form the run's :class:`PcSample`,
    and :func:`tally_pcs` over every pc gives the aggregates.  The sample
    is kept on ``SimResult.obs`` when the machine runs with ``obs``.

    Reached only through :meth:`ArchRun.fold`, by :func:`run_fast`
    after a run on either tier and by every geometry re-score: the tiers
    record the same nine per-pc arrays and one log, so replay and
    aggregation are literally one code path.
    """
    from repro.arch.machine import SimResult

    exec_counts, hazard_pc, misspec_pc, taken_pc, movcond_pc, log = events
    ic_l2_pc, ic_mem_pc, d_l2_pc, d_mem_pc = served
    linked = machine.linked
    replay(hierarchy, log, run.fetches, linked.inst_bytes,
           ic_l2_pc, ic_mem_pc, d_l2_pc, d_mem_pc)
    sample = PcSample(
        narrow_rf=machine.narrow_rf,
        delta=linked.delta,
        exec_counts=exec_counts,
        icache_l2=ic_l2_pc,
        icache_mem=ic_mem_pc,
        dcache_l2=d_l2_pc,
        dcache_mem=d_mem_pc,
        hazards=hazard_pc,
        misspecs=misspec_pc,
        taken=taken_pc,
        movconds=movcond_pc,
    )
    fields, counters, class_counts = tally_pcs(
        linked, sample, range(len(exec_counts)))
    result = SimResult(output=run.output, slice_width=machine.slice_width,
                       counters=counters, class_counts=class_counts,
                       memory=memory, return_value=run.regs[0], **fields)
    fx = machine.faults
    if fx is not None:
        result.cycles += fx.extra_cycles
        counters.cycles = result.cycles
    if machine.obs:
        result.obs = sample
    return result


#: the :class:`SimResult` counts :func:`tally_pcs` derives, in report order
PC_COUNTER_FIELDS = (
    "instructions", "cycles", "misspeculations", "branches",
    "taken_branches", "loads", "stores", "spill_loads", "spill_stores",
    "copies",
)


def tally_pcs(linked, sample, pcs):
    """Fold the pcs ``pcs`` of ``sample`` into their aggregate counts.

    Returns ``(fields, counters, class_counts)``: ``fields`` maps the
    :data:`PC_COUNTER_FIELDS` names to integers, ``counters`` is an
    :class:`~repro.arch.energy.EnergyCounters` and ``class_counts`` the
    DTS instruction-class mix.  Static effects count ``effect × exec``;
    the common-case dynamic counters (L1 hits, slice writes of successful
    ``bs_*`` ops, stall cycles) are derived from ``exec − events``.

    This is the one per-pc derivation.  :func:`fold_result` tallies every
    pc into a run's :class:`SimResult`, :mod:`repro.obs.attribution`
    tallies each group's pcs, so the groups of any partition sum to the
    run's aggregates bit for bit.  The result must stay bit-identical to
    the legacy interpreter's counts.
    """
    code, effects = predecode(linked, sample.narrow_rf)
    exec_counts = sample.exec_counts
    ic_l2_pc, ic_mem_pc = sample.icache_l2, sample.icache_mem
    d_l2_pc, d_mem_pc = sample.dcache_l2, sample.dcache_mem
    hazard_pc, misspec_pc = sample.hazards, sample.misspecs
    taken_pc, movcond_pc = sample.taken, sample.movconds

    totals = [0] * N_STATIC
    instructions = 0
    stall_cycles = 0
    misspecs = 0
    taken_dyn = 0
    ic_l2 = ic_mem = 0
    d_l2 = d_mem = 0
    rf_w_dyn = {1: 0, 2: 0, 4: 0}
    rf_r_dyn = {1: 0, 2: 0, 4: 0}
    for pc_i in pcs:
        n = exec_counts[pc_i]
        if not n:
            continue
        instructions += n
        for cid, amount in effects[pc_i]:
            totals[cid] += amount * n
        fl2 = ic_l2_pc[pc_i]
        fmem = ic_mem_pc[pc_i]
        ic_l2 += fl2
        ic_mem += fmem
        stall = 10 * fl2 + 70 * fmem + hazard_pc[pc_i]
        t = code[pc_i]
        op = t[0]
        miss = misspec_pc[pc_i]
        if miss:
            misspecs += miss
            stall += 3 * miss
        if op == OP_LOAD or op == OP_STORE or op == OP_BS_LDR:
            al2 = d_l2_pc[pc_i]
            amem = d_mem_pc[pc_i]
            d_l2 += al2
            d_mem += amem
            if op != OP_STORE:
                # loads stall 1/10/70 by level; stores charge no stall
                stall += (n - al2 - amem) + 10 * al2 + 70 * amem
            if op == OP_BS_LDR:
                rf_w_dyn[t[5]] += n - miss
        elif op == OP_BCOND:
            tk = taken_pc[pc_i]
            taken_dyn += tk
            stall += 2 * tk
        elif op == OP_BS_BIN:
            rf_w_dyn[t[6]] += n - miss
        elif op == OP_BS_TRUNC:
            rf_w_dyn[t[4]] += n - miss
        elif op == OP_MOVCOND:
            mv = movcond_pc[pc_i]
            rf_w_dyn[t[6]] += mv
            if t[4]:
                rf_r_dyn[t[4]] += mv
        stall_cycles += stall

    cycles = instructions + stall_cycles + totals[C_XCYCLES]
    fields = {
        "instructions": instructions,
        "cycles": cycles,
        "misspeculations": misspecs,
        "branches": totals[C_BRANCHES],
        "taken_branches": totals[C_TAKEN] + taken_dyn,
        "loads": totals[C_LOADS],
        "stores": totals[C_STORES],
        "spill_loads": totals[C_SPILL_L],
        "spill_stores": totals[C_SPILL_S],
        "copies": totals[C_COPIES],
    }
    counters = EnergyCounters(
        icache_l1=instructions - ic_l2 - ic_mem,
        icache_l2=ic_l2,
        icache_mem=ic_mem,
        dcache_l1=totals[C_LOADS] + totals[C_STORES] - d_l2 - d_mem,
        dcache_l2=d_l2,
        dcache_mem=d_mem,
        rf_reads_by_width={
            1: totals[C_RF_R1] + rf_r_dyn[1],
            2: totals[C_RF_R2] + rf_r_dyn[2],
            4: totals[C_RF_R4] + rf_r_dyn[4],
        },
        rf_writes_by_width={
            1: totals[C_RF_W1] + rf_w_dyn[1],
            2: totals[C_RF_W2] + rf_w_dyn[2],
            4: totals[C_RF_W4] + rf_w_dyn[4],
        },
        alu32_ops=totals[C_ALU32],
        alu8_ops=totals[C_ALU8],
        mul_ops=totals[C_MUL],
        div_ops=totals[C_DIV],
        move_ops=totals[C_MOVE],
        cycles=cycles,
    )
    class_counts = {
        "alu32": totals[K_ALU32],
        "alu8": totals[K_ALU8],
        "mul": totals[K_MUL],
        "div": totals[K_DIV],
        "move": totals[K_MOVE],
        "mem": totals[K_MEM],
        "branch": totals[K_BRANCH],
    }
    return fields, counters, class_counts
