"""R10K-style out-of-order engine: the third machine engine.

The paper measures BITSPEC on an in-order 6-stage core; this module asks
whether per-variable bitwidth speculation survives the machinery every
high-traffic core actually ships: register renaming onto a physical
register file, a reorder buffer, an issue queue, and branch prediction
with checkpoint-based rollback (docs/ooo.md).

Execution model — *fetch-driven, dependency-timed*.  The engine walks the
architecturally correct path in program order and computes every value
through the opcode table of :mod:`repro.arch.semantics` (the rows the
verifier's lane executor runs too), which is what makes the committed
contract (:data:`repro.arch.machine.COMMITTED_FIELDS` — traps, the out
stream, memory/globals, instruction and misspeculation counts) bit-identical
to the legacy/fast engines on every program.  Around that committed
spine it keeps the real OoO structures and lets *them* produce the timing:

* every architectural register (r0–r15 plus the renamed flags: the
  ``cmp`` state and the carry bit) maps through a rename table onto a
  value-holding physical register file; each physical register carries
  the cycle its value becomes available, so issue timing emerges from
  true dataflow (partial-slice writes are read-modify-write and depend
  on the previous mapping);
* a reorder buffer and an issue queue of configurable size
  (``REPRO_OOO_ROB`` / ``REPRO_OOO_IQ``) bound the in-flight window —
  dispatch stalls when the uop ``ROB``/``IQ`` slots ago has not yet
  retired/issued;
* a W-wide fetch/rename/commit front and back end (``REPRO_OOO_WIDTH``),
  a 2-bit bimodal branch predictor (``REPRO_OOO_BP_BITS``) and a return
  address stack (``REPRO_OOO_RAS``) drive control speculation;
* functional units: 2 ALUs (branches share them), 1 memory port, 1
  multiply/divide unit (the divider is unpipelined).

**Composed recovery** is the point of the model.  Every speculation point
(conditional branch, indirect return, ``bs_*`` op) allocates a rename-map
checkpoint.  When a prediction is wrong — a mispredicted branch, a return
that misses the RAS, or a ``bs_*`` op whose result leaves the slice — the
engine genuinely fetches, renames and (guardedly) executes the wrong path
until the speculation resolves at execute, then recovers through the ROB:
younger uops are squashed, their physical registers returned to the free
list, the rename map is restored from the checkpoint, and fetch redirects.
The *only* difference between the two mechanisms is the redirect rule —
a branch redirects to the correct target, a bitwidth misspeculation
redirects to ``pc + Δ``, the skeleton slot of the SIR recovery contract.
Wrong-path work never touches architectural state: its loads may pollute
the data cache and every fetched wrong-path uop burns fetch/rename/issue
energy, but stores are held in the store buffer and discarded, and its
renames die with the flush.

Cycles and energy are therefore *new outputs*: committed state matches
the in-order engines bit for bit while ``cycles``, the cache-level
counters and the OoO structure events (rename/ROB/IQ/wakeup/checkpoint,
see :mod:`repro.arch.energy`) describe the out-of-order machine.
``SimResult.ooo`` carries an :class:`OooStats` with the speculation
bookkeeping (checkpoints, recoveries by mechanism, wrong-path uops).

Fault hooks: the engine consults a fault session only at recovery time
(:meth:`repro.faults.session.FaultSession.recovery_action`) for the two
OoO-native kinds — rename-checkpoint corruption and flush suppression.
:meth:`repro.arch.machine.Machine.resolve_engine` sends any other fault
kind (and an ``obs=True`` run without one) to the predecoded stepper, so
the generic campaign classification stays engine-invariant.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass

from repro.arch.cache import MemoryHierarchy
from repro.arch.machine import HALT, FaultTrap, MachineError, SimResult
from repro.arch.semantics import (
    ALU,
    CARRY,
    DIV,
    DIV_OPS,
    EXT,
    LOAD_SIZES,
    MULL,
    READS_CARRY,
    SCALAR_ROWS as _ROWS,
    SHIFTED,
    SPEC,
    STORE_SIZES,
    holds,
    join64,
    out_of_slice,
)
from repro.arch.widths import BYTE_MASKS as _MASKS
from repro.backend.mir import Imm, Slice
from repro.interp.memory import FlatMemory, STACK_TOP, initialize_globals

#: renamed architectural state: r0–r15, the cmp state (16), the carry (17)
_ARCH_REGS = 18
_CMP = 16
_CARRY = 17

#: fetch-to-dispatch depth in cycles (fetch, decode, rename)
_FRONT_LAT = 3
#: cycles between a speculation resolving at execute and the first
#: correct-path fetch slot
_REDIRECT_PENALTY = 2
#: hard cap on wrong-path uops modeled per recovery window
_WP_CAP = 48

#: load-to-use latency by the data-cache level that served the access
_LOAD_LAT = {"l1": 2, "l2": 12, "mem": 72}

#: issue of a non-speculative value row: functional unit (0 ALU, 1
#: memory, 2 multiply/divide), latency, occupancy, energy class, and
#: whether a width-1 op on a narrow register file counts as ``alu8``
_SHAPE_ISSUE = {
    ALU: (0, 1, 1, "alu32", True),
    DIV: (2, 12, 12, "div", False),
    SHIFTED: (0, 1, 1, "alu32", False),
    CARRY: (0, 1, 1, "alu32", False),
    EXT: (0, 1, 1, "move", True),
    MULL: (2, 4, 1, "mul", False),
}
_ISSUE = {
    op: _SHAPE_ISSUE[shape]
    for op, (shape, _fn) in _ROWS.items()
    if shape in _SHAPE_ISSUE
}
_ISSUE["mul"] = (2, 3, 1, "mul", False)

#: the compare rows' scalar forms: this engine sees no lane arrays
_holds = holds.scalar
_join64 = join64.scalar


@dataclass(frozen=True)
class OooParams:
    """Structure sizes, overridable via ``REPRO_OOO_*`` (docs/configuration.md)."""

    rob: int = 48
    iq: int = 24
    width: int = 2
    bp_bits: int = 9
    ras: int = 8


def _env_int(name: str, default: int, lo: int, hi: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected an integer") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value}: expected a value in [{lo}, {hi}]")
    return value


def ooo_params() -> OooParams:
    """Resolve the OoO structure sizes from the environment."""
    return OooParams(
        rob=_env_int("REPRO_OOO_ROB", 48, 4, 512),
        iq=_env_int("REPRO_OOO_IQ", 24, 2, 256),
        width=_env_int("REPRO_OOO_WIDTH", 2, 1, 8),
        bp_bits=_env_int("REPRO_OOO_BP_BITS", 9, 4, 16),
        ras=_env_int("REPRO_OOO_RAS", 8, 1, 64),
    )


@dataclass
class OooStats:
    """Speculation bookkeeping attached to ``SimResult.ooo``."""

    #: uops that entered rename (committed + wrong path)
    fetched_uops: int = 0
    #: uops fetched down a wrong path and squashed at recovery
    wrong_path_uops: int = 0
    #: rename-map checkpoints allocated (one per speculation point)
    checkpoints: int = 0
    #: ROB recovery events of any mechanism
    recoveries: int = 0
    #: conditional-branch direction mispredictions
    branch_mispredicts: int = 0
    #: ``bx`` returns the RAS predicted wrong (or had nothing for)
    return_mispredicts: int = 0
    #: bitwidth misspeculations recovered through the ROB (Δ-redirect)
    misspec_recoveries: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def run_ooo(machine) -> SimResult:
    """Execute ``machine``'s program on the out-of-order model.

    :meth:`Machine.resolve_engine` hands ``obs=True`` runs and fault
    sessions the OoO model does not natively implement to the predecoded
    stepper; a session reaching this loop is ``ooo_native``.
    """
    fx = machine.faults
    params = ooo_params()
    ROB = params.rob
    IQ = params.iq
    W = params.width

    linked = machine.linked
    insts = linked.insts
    delta = linked.delta
    inst_bytes = linked.inst_bytes
    result = SimResult(slice_width=machine.slice_width)
    counters = result.counters
    rf_reads = counters.rf_reads_by_width
    rf_writes = counters.rf_writes_by_width
    class_counts = result.class_counts
    hierarchy = MemoryHierarchy(machine.geometry)
    fetch = hierarchy.fetch
    data_access = hierarchy.data_access
    spec_mask = machine.spec_mask
    stats = OooStats()

    memory = FlatMemory()
    initialize_globals(memory, machine.module, linked.global_addresses)
    mem_load = memory.load
    mem_store = memory.store

    # rename state: arch reg -> physical reg; PRF sized so the free list
    # never runs dry (<= 1 fresh preg per in-flight uop plus slack for a
    # leaked wrong-path window under flush suppression)
    PRF = ROB + _ARCH_REGS + 2 * _WP_CAP
    rmap = list(range(_ARCH_REGS))
    prf: list = [0] * PRF
    ready = [0] * PRF
    prf[13] = STACK_TOP
    prf[14] = HALT
    prf[_CMP] = (0, 0, 4)
    free = deque(range(_ARCH_REGS, PRF))

    # timing state
    fq_time = 0          # cycle of the current fetch group
    fq_used = 0          # fetch slots consumed in that cycle
    prev_disp = 0        # in-order rename: dispatch cycles are monotonic
    last_ct = 0          # cycle of the youngest commit
    commits_ic = 0       # commits in that cycle
    nseq = 0             # global uop sequence number (both paths)
    rob_ring = [0] * ROB  # cycle the slot of uop (n - ROB) frees
    iq_ring = [0] * IQ
    alu_pool = [0, 0]    # next-free cycle per functional unit
    mem_pool = [0]
    mdiv_pool = [0]
    pools = (alu_pool, mem_pool, mdiv_pool)

    # branch predictor: 2-bit bimodal counters + return address stack
    bp = bytearray([1]) * (1 << params.bp_bits)
    bp_mask = len(bp) - 1
    ras = [0] * params.ras
    ras_top = 0
    ras_count = 0

    narrow = machine.narrow_rf
    base_narrow = narrow
    fallback = getattr(linked, "fallback_functions", None) or None
    owner = linked.owner if fallback else None

    pc = linked.entry_index
    steps = 0
    instructions = 0
    misspecs = 0
    ic_l1 = ic_l2 = ic_mem = 0
    d_l1 = d_l2 = d_mem = 0
    limit = machine.step_limit

    # -- rename/PRF helpers ---------------------------------------------------

    def read_op(op, srcs):
        """Legacy ``read()`` through the rename map; collects the source's
        ready cycle.  Event accounting matches the legacy arm exactly."""
        if type(op) is Slice:
            size = op.size if op.size <= 4 else 4
            width = size if narrow else 4
            rf_reads[width] = rf_reads.get(width, 0) + 1
            counters.rename_reads += 1
            p = rmap[op.reg]
            srcs.append(ready[p])
            v = prf[p]
            if fx is not None and type(v) is not int:
                v = 0  # fault-aliased physical register read as raw bits
            return (v >> (op.offset * 8)) & _MASKS[size]
        if type(op) is Imm:
            return op.value & 0xFFFFFFFF
        if op == "sp":
            rf_reads[4] += 1
            counters.rename_reads += 1
            p = rmap[13]
            srcs.append(ready[p])
            v = prf[p]
            if fx is not None and type(v) is not int:
                v = 0
            return v
        raise MachineError(f"cannot read operand {op!r}")

    def merge_dep(op, srcs):
        """A partial-slice write is a read-modify-write of the previous
        physical register: add that dependency."""
        if type(op) is Slice and not (op.offset == 0 and op.size >= 4):
            srcs.append(ready[rmap[op.reg]])

    def write_op(op, value, comp):
        """Legacy ``write()`` through rename: allocate a fresh physical
        register, merge the slice, retire the old mapping to the free
        list (safe here: all older readers have captured their value and
        no checkpoint outlives its own recovery)."""
        if type(op) is not Slice:
            raise MachineError(f"cannot write operand {op!r}")
        size = op.size if op.size <= 4 else 4
        width = size if narrow else 4
        rf_writes[width] = rf_writes.get(width, 0) + 1
        counters.rename_writes += 1
        counters.iq_wakeups += 1
        old = rmap[op.reg]
        ov = prf[old]
        if fx is not None and type(ov) is not int:
            ov = 0
        p = free.popleft()
        shift = op.offset * 8
        mask = _MASKS[size] << shift
        prf[p] = (ov & ~mask & 0xFFFFFFFF) | ((value & _MASKS[size]) << shift)
        ready[p] = comp
        rmap[op.reg] = p
        free.append(old)

    def write_reg(reg, value, comp):
        """Full-width architectural write with no RF event (the legacy
        arms that poke ``regs[13]``/``regs[14]`` directly)."""
        counters.rename_writes += 1
        counters.iq_wakeups += 1
        old = rmap[reg]
        p = free.popleft()
        prf[p] = value
        ready[p] = comp
        rmap[reg] = p
        free.append(old)

    def read_cmp(srcs):
        p = rmap[_CMP]
        srcs.append(ready[p])
        v = prf[p]
        if fx is not None and type(v) is not tuple:
            v = (0, 0, 4)  # fault-aliased flags register
        return v

    def read_carry(srcs):
        p = rmap[_CARRY]
        srcs.append(ready[p])
        v = prf[p]
        if fx is not None and type(v) is not int:
            v = 0
        return v

    # -- timing helpers -------------------------------------------------------

    def finish(disp, srcs, pool, lat, occ=1):
        """Issue when operands are ready and a unit frees; returns the
        completion (writeback/resolve) cycle and frees this uop's IQ slot."""
        t = disp + 1
        for r in srcs:
            if r > t:
                t = r
        bi = 0
        bt = pool[0]
        for k in range(1, len(pool)):
            if pool[k] < bt:
                bt = pool[k]
                bi = k
        if bt > t:
            t = bt
        pool[bi] = t + occ
        iq_ring[nseq % IQ] = t + 1
        return t + lat

    def retire(comp):
        """In-order, W-wide commit; frees this uop's ROB slot."""
        nonlocal last_ct, commits_ic
        t = comp + 1
        if t > last_ct:
            last_ct = t
            commits_ic = 1
        else:
            t = last_ct
            if commits_ic >= W:
                t += 1
                last_ct = t
                commits_ic = 1
            else:
                commits_ic += 1
        counters.rob_reads += 1
        rob_ring[nseq % ROB] = t + 1
        return t

    # -- wrong-path modeling --------------------------------------------------

    def wp_read(op):
        if type(op) is Slice:
            size = op.size if op.size <= 4 else 4
            width = size if narrow else 4
            rf_reads[width] = rf_reads.get(width, 0) + 1
            counters.rename_reads += 1
            v = prf[rmap[op.reg]]
            if type(v) is not int:
                v = 0
            return (v >> (op.offset * 8)) & _MASKS[size]
        if type(op) is Imm:
            return op.value & 0xFFFFFFFF
        if op == "sp":
            rf_reads[4] += 1
            counters.rename_reads += 1
            v = prf[rmap[13]]
            return v if type(v) is int else 0
        return 0

    def wp_write(op, value, alloc_wp):
        if type(op) is not Slice:
            return
        size = op.size if op.size <= 4 else 4
        width = size if narrow else 4
        rf_writes[width] = rf_writes.get(width, 0) + 1
        counters.rename_writes += 1
        counters.iq_wakeups += 1
        old = rmap[op.reg]
        ov = prf[old]
        if type(ov) is not int:
            ov = 0
        p = free.popleft()
        alloc_wp.append(p)
        shift = op.offset * 8
        mask = _MASKS[size] << shift
        prf[p] = (ov & ~mask & 0xFFFFFFFF) | ((value & _MASKS[size]) << shift)
        ready[p] = 0
        rmap[op.reg] = p

    def wp_write_reg(reg, value, alloc_wp):
        counters.rename_writes += 1
        p = free.popleft()
        alloc_wp.append(p)
        prf[p] = value
        ready[p] = 0
        rmap[reg] = p

    def wp_exec(inst, wpc, alloc_wp):
        """One wrong-path uop: burn the energy a real machine would,
        follow predicted control flow, never touch architectural state.
        Returns the next wrong-path pc, or None to stop fetching.
        Wrong-path values are best-effort (faulting loads and divides
        poison to 0) — they steer only cache pollution, never results."""
        nonlocal d_l1, d_l2, d_mem
        op = inst.opcode
        nxt = wpc + 1
        try:
            if op == "b" or op == "bl":
                if op == "bl":
                    wp_write_reg(14, wpc + 1, alloc_wp)
                nxt = inst.target
            elif op == "bcond":
                nxt = inst.target if bp[wpc & bp_mask] >= 2 else wpc + 1
            elif op == "bx":
                return None  # the RAS is checkpointed; stop fetching
            elif op in ("ldr", "ldrb", "ldrh"):
                base = wp_read(inst.uses[0])
                disp_v = inst.uses[1].value if len(inst.uses) > 1 else 0
                addr = (base + disp_v) & 0xFFFFFFFF
                size = {"ldr": 4, "ldrb": 1, "ldrh": 2}[op]
                level = data_access(addr)  # wrong-path loads pollute the D$
                if level == "l1":
                    d_l1 += 1
                elif level == "l2":
                    d_l2 += 1
                else:
                    d_mem += 1
                try:
                    value = mem_load(addr, size)
                except (MachineError, MemoryError):
                    value = 0
                wp_write(inst.defs[0], value, alloc_wp)
            elif op in ("str", "strb", "strh"):
                # stores wait in the store buffer until commit; a squashed
                # store never reaches the D$
                wp_read(inst.uses[0])
                wp_read(inst.uses[1])
            elif op == "bs_ldr":
                addr = wp_read(inst.uses[0])
                counters.alu8_ops += 1
                level = data_access(addr)
                if level == "l1":
                    d_l1 += 1
                elif level == "l2":
                    d_l2 += 1
                else:
                    d_mem += 1
                try:
                    value = mem_load(addr, inst.uses[1].value)
                except (MachineError, MemoryError):
                    value = 0
                if value <= spec_mask:
                    wp_write(inst.defs[0], value, alloc_wp)
            elif op == "bs_cmp":
                counters.alu8_ops += 1
                wp_read(inst.uses[0])
                wp_read(inst.uses[1])
            elif op.startswith("bs_"):
                counters.alu8_ops += 1
                a = wp_read(inst.uses[0])
                b = wp_read(inst.uses[1]) if len(inst.uses) > 1 else 0
                if inst.defs:
                    wp_write(inst.defs[0], (a + b) & 0xFFFFFFFF, alloc_wp)
            elif op in ("mov", "movi", "uxt", "sxt", "trunc", "movcond"):
                counters.move_ops += 1
                value = wp_read(inst.uses[0]) if inst.uses else 0
                if inst.defs:
                    wp_write(inst.defs[0], value, alloc_wp)
            elif op == "out":
                counters.move_ops += 1
                wp_read(inst.uses[0])
            elif op in ("mul", "umull"):
                counters.mul_ops += 1
                a = wp_read(inst.uses[0])
                b = wp_read(inst.uses[1])
                if inst.defs:
                    wp_write(inst.defs[0], (a * b) & 0xFFFFFFFF, alloc_wp)
            elif op in DIV_OPS:
                counters.div_ops += 1
                a = wp_read(inst.uses[0])
                b = wp_read(inst.uses[1])
                if inst.defs:
                    wp_write(inst.defs[0], a // b if b else 0, alloc_wp)
            elif op in ("subspi", "addspi"):
                counters.alu32_ops += 1
                sp = wp_read("sp")
                imm = inst.uses[0].value
                value = (sp - imm if op == "subspi" else sp + imm) & 0xFFFFFFFF
                wp_write_reg(13, value, alloc_wp)
            elif op in ("nop", "mode"):
                pass
            elif op in ("cmp", "cmp64hi", "cmp64lo"):
                counters.alu32_ops += 1
                wp_read(inst.uses[0])
                wp_read(inst.uses[1])
            else:
                # the remaining ALU forms: add..asr, adds/adc/subs/sbc,
                # addsl/orrsl — energy plus an approximate result
                counters.alu32_ops += 1
                a = wp_read(inst.uses[0]) if inst.uses else 0
                b = wp_read(inst.uses[1]) if len(inst.uses) > 1 else 0
                if inst.defs:
                    wp_write(inst.defs[0], (a + b) & 0xFFFFFFFF, alloc_wp)
        except (MachineError, MemoryError):
            pass  # poisoned wrong-path value; keep fetching
        return nxt

    def wrong_path(start_pc, start_time, start_used, resolve, alloc_wp):
        """Fetch/rename/execute the predicted (wrong) path from the slot
        after the speculation point until it resolves at ``resolve``."""
        nonlocal nseq, ic_l1, ic_l2, ic_mem
        wp_pc = start_pc
        wp_time = start_time
        wp_used = start_used
        cap = min(ROB - 1, _WP_CAP)
        count = 0
        while count < cap:
            if wp_used >= W:
                wp_time += 1
                wp_used = 0
            if wp_time >= resolve:
                break
            if wp_pc == HALT or not 0 <= wp_pc < len(insts):
                break
            level = fetch(wp_pc * inst_bytes)
            if level == "l1":
                ic_l1 += 1
            elif level == "l2":
                ic_l2 += 1
                wp_time += 10
                wp_used = 0
            else:
                ic_mem += 1
                wp_time += 70
                wp_used = 0
            if wp_time >= resolve:
                break
            wp_used += 1
            nseq += 1
            rob_ring[nseq % ROB] = resolve + 1
            iq_ring[nseq % IQ] = resolve + 1
            counters.rob_writes += 1
            counters.iq_writes += 1
            stats.fetched_uops += 1
            stats.wrong_path_uops += 1
            count += 1
            nxt = wp_exec(insts[wp_pc], wp_pc, alloc_wp)
            if nxt is None:
                break
            wp_pc = nxt
        return count

    def recover(predicted_pc, spec_fc, resolve, mechanism):
        """ROB recovery: model the wrong-path window, squash it, restore
        the rename-map checkpoint and redirect fetch.  ``mechanism`` is
        "branch", "return" or "misspec" — the redirect target rule is the
        caller's, everything else is shared."""
        nonlocal fq_time, fq_used
        stats.recoveries += 1
        if mechanism == "branch":
            stats.branch_mispredicts += 1
        elif mechanism == "return":
            stats.return_mispredicts += 1
        else:
            stats.misspec_recoveries += 1
        counters.ckpt_ops += 1  # checkpoint restore broadcast
        ckpt = list(rmap)
        alloc_wp: list = []
        wp_count = 0
        if predicted_pc is not None:
            wp_count = wrong_path(
                predicted_pc, spec_fc, fq_used, resolve, alloc_wp
            )
        act = fx.recovery_action(wp_count) if fx is not None else None
        if act == "flush_drop":
            # the flush never happens: stale wrong-path renames survive
            # and the squashed uops sit at the ROB head.  The commit-time
            # epoch check refuses to retire them.
            raise FaultTrap(
                f"ROB epoch check: wrong-path uop reached commit "
                f"(flush suppressed at recovery {stats.recoveries})"
            )
        rmap[:] = ckpt
        free.extend(alloc_wp)
        if act == "ckpt_bit":
            plan = fx.plan
            i = plan.reg % _ARCH_REGS
            p = (rmap[i] ^ (1 << (plan.bit % 7))) % PRF
            if type(prf[p]) is not int:
                prf[p] = 0  # stale bits reinterpreted as an integer
            rmap[i] = p
        fq_time = resolve + _REDIRECT_PENALTY
        fq_used = 0

    # -- the committed path ---------------------------------------------------

    while pc != HALT:
        if not 0 <= pc < len(insts):
            raise MachineError(f"pc out of range: {pc}")
        inst = insts[pc]
        steps += 1
        if steps > limit:
            raise MachineError("machine step limit exceeded")
        if owner is not None:
            narrow = base_narrow and owner[pc] not in fallback
        # fetch (W-wide; L2/DRAM instruction misses stall the front end)
        level = fetch(pc * inst_bytes)
        if level == "l1":
            ic_l1 += 1
        elif level == "l2":
            ic_l2 += 1
            fq_time += 10
            fq_used = 0
        else:
            ic_mem += 1
            fq_time += 70
            fq_used = 0
        if fq_used >= W:
            fq_time += 1
            fq_used = 0
        fc = fq_time
        fq_used += 1
        instructions += 1
        nseq += 1
        stats.fetched_uops += 1
        counters.rob_writes += 1
        counters.iq_writes += 1
        disp = fc + _FRONT_LAT
        t = rob_ring[nseq % ROB]
        if t > disp:
            disp = t
        t = iq_ring[nseq % IQ]
        if t > disp:
            disp = t
        if disp < prev_disp:
            disp = prev_disp
        prev_disp = disp

        kind = inst.kind
        if kind:
            if kind == "copy":
                result.copies += 1
            elif kind == "reload":
                result.spill_loads += 1
            elif kind == "spill":
                result.spill_stores += 1
        next_pc = pc + 1
        opcode = inst.opcode
        srcs: list = []

        row = _ROWS.get(opcode)
        if row is not None:
            shape, fn = row
            uses = inst.uses
            a = read_op(uses[0], srcs)
            if shape >= SPEC:
                stats.checkpoints += 1
                counters.ckpt_ops += 1
                counters.alu8_ops += 1
                class_counts["alu8"] += 1
                if shape == SPEC:
                    a = fn(a, read_op(uses[1], srcs))
                    miss = out_of_slice(a, spec_mask)
                else:
                    miss = fn(a, spec_mask)
                if inst.defs and not miss:
                    merge_dep(inst.defs[0], srcs)
                comp = finish(disp, srcs, alu_pool, 1)
                if miss:
                    misspecs += 1
                    recover(pc + 1, fc, comp, "misspec")
                    next_pc = pc + delta
                elif inst.defs:
                    write_op(inst.defs[0], a, comp)
            else:
                if shape == EXT:
                    src = uses[0]
                    value = fn(a, (src.size if type(src) is Slice else 4) * 8)
                else:
                    b = read_op(uses[1], srcs)
                    if shape == ALU:
                        value = fn(a, b, inst.width)
                    elif shape == CARRY:
                        carry = read_carry(srcs) if opcode in READS_CARRY else 0
                        value, carry = fn(a, b, carry)
                    elif shape == DIV:
                        if b == 0:
                            raise MachineError("division by zero")
                        value = fn(a, b, inst.width)
                    elif shape == SHIFTED:
                        value = fn(a, b, uses[2].value)
                    else:  # MULL
                        value, high = fn(a, b)
                        merge_dep(inst.defs[1], srcs)
                dest = inst.defs[0]
                merge_dep(dest, srcs)
                unit, lat, occ, cls, narrows = _ISSUE[opcode]
                comp = finish(disp, srcs, pools[unit], lat, occ)
                if shape == CARRY:
                    write_reg(_CARRY, carry, comp)
                write_op(dest, value, comp)
                if shape == MULL:
                    write_op(inst.defs[1], high, comp)
                if narrows and narrow and inst.width == 1:
                    cls = "alu8"
                class_counts[cls] += 1
                field = cls + "_ops"
                setattr(counters, field, getattr(counters, field) + 1)
        elif opcode == "mov" or opcode == "movi":
            value = read_op(inst.uses[0], srcs)
            dest = inst.defs[0]
            merge_dep(dest, srcs)
            comp = finish(disp, srcs, alu_pool, 1)
            write_op(dest, value, comp)
            counters.move_ops += 1
            class_counts["move"] += 1
        elif opcode in LOAD_SIZES:
            base = read_op(inst.uses[0], srcs)
            disp_v = inst.uses[1].value if len(inst.uses) > 1 else 0
            addr = (base + disp_v) & 0xFFFFFFFF
            value = mem_load(addr, LOAD_SIZES[opcode])
            level = data_access(addr)
            if level == "l1":
                d_l1 += 1
            elif level == "l2":
                d_l2 += 1
            else:
                d_mem += 1
            dest = inst.defs[0]
            merge_dep(dest, srcs)
            comp = finish(disp, srcs, mem_pool, _LOAD_LAT[level])
            write_op(dest, value, comp)
            result.loads += 1
            class_counts["mem"] += 1
        elif opcode in STORE_SIZES:
            value = read_op(inst.uses[0], srcs)
            base = read_op(inst.uses[1], srcs)
            disp_v = inst.uses[2].value if len(inst.uses) > 2 else 0
            addr = (base + disp_v) & 0xFFFFFFFF
            mem_store(addr, value, STORE_SIZES[opcode])
            level = data_access(addr)
            if level == "l1":
                d_l1 += 1
            elif level == "l2":
                d_l2 += 1
            else:
                d_mem += 1
            comp = finish(disp, srcs, mem_pool, 1)
            result.stores += 1
            class_counts["mem"] += 1
        elif opcode == "bs_ldr":
            stats.checkpoints += 1
            counters.ckpt_ops += 1
            addr = read_op(inst.uses[0], srcs)
            size = inst.uses[1].value
            value = mem_load(addr, size)
            level = data_access(addr)
            if level == "l1":
                d_l1 += 1
            elif level == "l2":
                d_l2 += 1
            else:
                d_mem += 1
            result.loads += 1
            counters.alu8_ops += 1
            class_counts["alu8"] += 1
            miss = out_of_slice(value, spec_mask)
            dest = inst.defs[0]
            merge_dep(dest, srcs)
            comp = finish(disp, srcs, mem_pool, _LOAD_LAT[level])
            if miss:
                misspecs += 1
                recover(pc + 1, fc, comp, "misspec")
                next_pc = pc + delta
            else:
                write_op(dest, value, comp)
        elif opcode == "cmp" or opcode == "bs_cmp":
            a = read_op(inst.uses[0], srcs)
            b = read_op(inst.uses[1], srcs)
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(_CMP, (a, b, inst.width), comp)
            if opcode == "cmp":
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            else:
                counters.alu8_ops += 1
                class_counts["alu8"] += 1
        elif opcode == "cmp64hi":
            a = read_op(inst.uses[0], srcs)
            b = read_op(inst.uses[1], srcs)
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(_CMP, (a, b, "hi"), comp)
            counters.alu32_ops += 1
            class_counts["alu32"] += 1
        elif opcode == "cmp64lo":
            a_hi, b_hi, tag = read_cmp(srcs)
            a = _join64(a_hi, read_op(inst.uses[0], srcs))
            b = _join64(b_hi, read_op(inst.uses[1], srcs))
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(_CMP, (a, b, 8), comp)
            counters.alu32_ops += 1
            class_counts["alu32"] += 1
        elif opcode == "b":
            comp = finish(disp, srcs, alu_pool, 1)
            next_pc = inst.target
            result.branches += 1
            result.taken_branches += 1
            class_counts["branch"] += 1
            fq_time += 1  # taken-branch fetch redirect bubble
            fq_used = 0
        elif opcode == "bcond":
            stats.checkpoints += 1
            counters.ckpt_ops += 1
            a, b, width = read_cmp(srcs)
            result.branches += 1
            class_counts["branch"] += 1
            taken = _holds(a, b, width, inst.cond)
            bi = pc & bp_mask
            pred_taken = bp[bi] >= 2
            if taken:
                if bp[bi] < 3:
                    bp[bi] += 1
            elif bp[bi] > 0:
                bp[bi] -= 1
            comp = finish(disp, srcs, alu_pool, 1)
            if taken:
                next_pc = inst.target
                result.taken_branches += 1
            if pred_taken != taken:
                recover(
                    inst.target if pred_taken else pc + 1, fc, comp, "branch"
                )
            elif taken:
                fq_time += 1
                fq_used = 0
        elif opcode == "movcond":
            a, b, width = read_cmp(srcs)
            if _holds(a, b, width, inst.cond):
                value = read_op(inst.uses[0], srcs)
                dest = inst.defs[0]
                merge_dep(dest, srcs)
                comp = finish(disp, srcs, alu_pool, 1)
                write_op(dest, value, comp)
            else:
                comp = finish(disp, srcs, alu_pool, 1)
            counters.move_ops += 1
            class_counts["move"] += 1
        elif opcode == "bl":
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(14, pc + 1, disp)  # link value known at rename
            ras_top = (ras_top + 1) % params.ras
            ras[ras_top] = pc + 1
            if ras_count < params.ras:
                ras_count += 1
            next_pc = inst.target
            result.branches += 1
            result.taken_branches += 1
            class_counts["branch"] += 1
            fq_time += 1
            fq_used = 0
        elif opcode == "bx":
            stats.checkpoints += 1
            counters.ckpt_ops += 1
            p = rmap[14]
            srcs.append(ready[p])
            target = prf[p]
            if fx is not None and type(target) is not int:
                target = 0
            if ras_count > 0:
                predicted = ras[ras_top]
                ras_top = (ras_top - 1) % params.ras
                ras_count -= 1
            else:
                predicted = None
            comp = finish(disp, srcs, alu_pool, 1)
            next_pc = target
            result.branches += 1
            result.taken_branches += 1
            class_counts["branch"] += 1
            if predicted == target:
                fq_time += 1
                fq_used = 0
            else:
                recover(predicted, fc, comp, "return")
        elif opcode == "subspi":
            p = rmap[13]
            srcs.append(ready[p])
            sp = prf[p]
            if fx is not None and type(sp) is not int:
                sp = 0
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(13, (sp - inst.uses[0].value) & 0xFFFFFFFF, comp)
            counters.alu32_ops += 1
            class_counts["alu32"] += 1
        elif opcode == "addspi":
            p = rmap[13]
            srcs.append(ready[p])
            sp = prf[p]
            if fx is not None and type(sp) is not int:
                sp = 0
            comp = finish(disp, srcs, alu_pool, 1)
            write_reg(13, (sp + inst.uses[0].value) & 0xFFFFFFFF, comp)
            counters.alu32_ops += 1
            class_counts["alu32"] += 1
        elif opcode == "out":
            value = read_op(inst.uses[0], srcs)
            comp = finish(disp, srcs, alu_pool, 1)
            result.output.append(value)
            counters.move_ops += 1
            class_counts["move"] += 1
        elif opcode == "nop" or opcode == "mode":
            comp = finish(disp, srcs, alu_pool, 1)
            class_counts["move"] += 1
        else:
            raise MachineError(f"unknown opcode {opcode!r} at {pc}")
        retire(comp)
        pc = next_pc

    result.instructions = instructions
    result.cycles = last_ct
    result.misspeculations = misspecs
    counters.cycles = last_ct
    counters.icache_l1 = ic_l1
    counters.icache_l2 = ic_l2
    counters.icache_mem = ic_mem
    counters.dcache_l1 = d_l1
    counters.dcache_l2 = d_l2
    counters.dcache_mem = d_mem
    result.memory = memory
    rv = prf[rmap[0]]
    result.return_value = rv if type(rv) is int else 0
    result.ooo = stats
    return result
