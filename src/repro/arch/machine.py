"""Behavioral machine model: executes a linked program while accounting
events for the energy/timing model (the Gem5 + gate-level sampling flow of
§4.1, collapsed into one behavioral simulator — see DESIGN.md).

Models the paper's pipeline at event granularity:

* 6-stage in-order single-issue timing: 1 cycle/instruction plus hazard,
  branch-flush and memory-miss stalls;
* a register file with byte-slice access on the BITSPEC ISA (reads/writes
  counted at their width — the 1/4-energy slice accesses of RQ1) and
  32-bit-only access on baseline ARM/Thumb;
* the segmented ALU's misspeculation detection: a speculative op whose
  result leaves its 8-bit slice does not write back; instead the PC is
  advanced by the Δ special register, landing in the skeleton area which
  branches to the region's handler (§3.3.4, §3.5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.cache import CacheGeometry, MemoryHierarchy
from repro.arch.energy import EnergyBreakdown, EnergyCounters, compute_energy
from repro.arch.semantics import DIV_OPS as _DIV_OPS
from repro.arch.widths import BYTE_MASKS as _MASKS, slice_mask
from repro.backend.layout import LinkedProgram
from repro.backend.mir import Imm, MachineInst, Slice
from repro.interp.interpreter import evaluate_icmp
from repro.interp.memory import FlatMemory, STACK_TOP, initialize_globals
from repro.ir.function import Module
from repro.ir.types import int_type

# Return-address sentinel: survives the 32-bit masking of stack save/restore.
HALT = 0xFFFFFFFF


#: instruction classes for the DTS timing-slack model (RQ8)
DTS_CLASSES = ("alu32", "alu8", "mul", "div", "move", "mem", "branch")


class MachineError(Exception):
    """The machine executed an illegal instruction or address."""


class FaultTrap(MachineError):
    """An injected fault was caught by a hardware check (e.g. parity).

    Raised by a :class:`repro.faults.session.FaultSession` hook, never by
    the machine itself; defined here so the machine layer stays free of
    any dependency on :mod:`repro.faults`.
    """


@dataclass
class SimResult:
    """Everything a simulation run produces."""

    output: list = field(default_factory=list)
    instructions: int = 0
    cycles: int = 0
    misspeculations: int = 0
    branches: int = 0
    taken_branches: int = 0
    #: dynamic register-allocator artifacts (Fig 10)
    spill_stores: int = 0
    spill_loads: int = 0
    copies: int = 0
    loads: int = 0
    stores: int = 0
    counters: EnergyCounters = field(default_factory=EnergyCounters)
    #: dynamic instruction mix for the DTS model
    class_counts: dict = field(default_factory=lambda: {c: 0 for c in DTS_CLASSES})
    memory: Optional[FlatMemory] = None
    return_value: int = 0
    #: speculative slice width (bits) the binary was compiled for — scales
    #: the slice-ALU energy cost; 8 for every legacy/default configuration
    slice_width: int = 8
    #: per-pc observability sample (:class:`repro.obs.events.PcSample`);
    #: populated only when the Machine ran with ``obs=True``
    obs: Optional[object] = None
    #: out-of-order execution statistics
    #: (:class:`repro.arch.ooo.OooStats`); populated only by the ``ooo``
    #: engine — like ``cycles`` and ``counters`` it is timing-model
    #: state, outside the committed architectural contract
    ooo: Optional[object] = None

    def energy(self, scale: Optional[dict] = None) -> EnergyBreakdown:
        return compute_energy(
            self.counters, scale=scale, slice_bits=self.slice_width
        )

    @property
    def epi(self) -> float:
        """Energy per instruction (pJ)."""
        if not self.instructions:
            return 0.0
        return self.energy().total / self.instructions


#: recognized values for ``Machine(engine=...)`` / ``REPRO_MACHINE_ENGINE``
ENGINES = ("legacy", "fast", "ooo")

#: SimResult fields in the engine-independent architectural contract
#: (docs/engines.md): identical across all three engines, bit-for-bit.
#: ``cycles``, the energy ``counters`` and the ``obs``/``ooo`` samples
#: are timing-model state and deliberately excluded.
COMMITTED_FIELDS = (
    "output",
    "instructions",
    "misspeculations",
    "branches",
    "taken_branches",
    "spill_stores",
    "spill_loads",
    "copies",
    "loads",
    "stores",
    "class_counts",
    "return_value",
    "slice_width",
)


def committed_view(sim: SimResult) -> dict:
    """The engine-independent slice of a :class:`SimResult`.

    Two engines agree architecturally iff their committed views compare
    equal — the comparator shared by ``tests/test_engine_equivalence.py``,
    the ``engines`` fuzz oracle lane and the serve cross-check.
    """
    view = {f: getattr(sim, f) for f in COMMITTED_FIELDS}
    view["memory"] = None if sim.memory is None else sim.memory.data
    return view


def _env_engine() -> str:
    """``REPRO_MACHINE_ENGINE``, validated; ``""`` when unset."""
    env = os.environ.get("REPRO_MACHINE_ENGINE", "").strip().lower()
    if env and env not in ENGINES:
        raise ValueError(f"REPRO_MACHINE_ENGINE={env!r}: expected one of {ENGINES}")
    return env


def default_engine() -> str:
    """The engine a ``Machine(engine=None)`` run resolves to from the
    environment alone, ignoring per-run overrides (``obs``, trace
    hooks).  Used by cache layers to partition on timing model."""
    return _env_engine() or "fast"


def timing_model(engine: Optional[str]) -> str:
    """``"inorder"``, or ``"ooo:..."`` with the resolved structure sizes
    when the (resolved) engine carries its own cycle/energy model.  The
    bench disk cache partitions its keys on this — in-order records stay
    interchangeable across the two bit-identical engines, while OoO
    records never alias them *or* each other across different
    ``REPRO_OOO_*`` geometries (an 8-entry-ROB run must not serve a
    48-entry lookup).  DSE documents stamp the same string as their
    ``timing_model``, so an OoO sweep records exactly which machine it
    measured."""
    if (engine or default_engine()) != "ooo":
        return "inorder"
    from repro.arch.ooo import ooo_params

    p = ooo_params()
    return f"ooo:rob{p.rob}-iq{p.iq}-w{p.width}-bp{p.bp_bits}-ras{p.ras}"


def parse_engine_list(spec: str) -> tuple:
    """Parse a comma-separated engine selection (``"legacy,fast"``).

    The shared validator behind every engine-list surface (the pytest
    ``--engines`` option, CLI flags): unknown names and empty selections
    fail loudly with the valid set spelled out, instead of silently
    selecting nothing.
    """
    engines = tuple(e.strip() for e in spec.split(",") if e.strip())
    if not engines:
        raise ValueError(
            f"empty engine selection {spec!r}: expected a comma-separated "
            f"subset of {ENGINES}"
        )
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        raise ValueError(
            f"unknown engines {unknown}: expected a comma-separated "
            f"subset of {ENGINES}"
        )
    return engines


class Machine:
    """Executes a :class:`LinkedProgram`.

    Three execution engines share one architectural contract (documented
    in docs/engines.md and enforced differentially by
    ``tests/test_engine_equivalence.py``):

    * the *fast path* (default): a two-tier engine.  The program is
      predecoded once into dense tuples that an integer-dispatch loop
      steps with batched energy counters (:mod:`repro.arch.predecode`);
      a region the program's runs keep entering is translated into
      straight-line Python and runs translated from then on
      (:mod:`repro.arch.compiled`);
    * the *legacy path*: the original instruction-at-a-time interpreter,
      kept as the differential-testing reference and the only engine
      that calls a ``trace_hook`` before every step;
    * the *ooo engine*: an R10K-style out-of-order core model
      (:mod:`repro.arch.ooo`) — bit-identical in the committed
      architectural contract (:data:`COMMITTED_FIELDS`) but with its own
      cycle count and energy events.

    The two in-order engines are bit-identical in every field.  Which
    one runs is decided here and nowhere else: :meth:`resolve_engine`
    and :meth:`run` apply the ladder docs/engines.md tabulates.

    ``obs=True`` attaches a per-pc event sample to ``SimResult.obs`` for
    :mod:`repro.obs`: the fast path's own per-pc counters.
    """

    def __init__(
        self,
        linked: LinkedProgram,
        module: Module,
        *,
        step_limit: int = 400_000_000,
        trace_hook=None,
        obs: bool = False,
        geometry: Optional[CacheGeometry] = None,
        faults=None,
        engine: Optional[str] = None,
    ) -> None:
        self.linked = linked
        self.module = module
        self.step_limit = step_limit
        #: optional :class:`repro.faults.session.FaultSession`; the
        #: stepping engines (legacy, fast) consult it behind one
        #: ``is not None`` guard per step, ``ooo`` only when it is
        #: ``ooo_native`` (:meth:`resolve_engine`)
        self.faults = faults
        self.narrow_rf = linked.isa == "ARM_BS"
        #: speculative slice width in bits, stamped on the linked image
        self.slice_width = getattr(linked, "slice_width", 8)
        #: values above this mask misspeculate in ``bs_*`` ops (§3.5)
        self.spec_mask = slice_mask(self.slice_width)
        #: cache hierarchy configuration (None = the paper's §4.1 geometry)
        self.geometry = geometry
        #: optional debug callback: trace_hook(pc, regs) before each step
        self.trace_hook = trace_hook
        #: collect a per-pc PcSample on SimResult.obs (fast only)
        self.obs = obs
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}: expected one of {ENGINES}")
        #: explicit engine selection ("legacy" / "fast" / "ooo"); None
        #: resolves at run() time (env var, obs, trace_hook)
        self.engine = engine
        #: the last whole fast run before cache replay
        #: (:class:`repro.arch.predecode.ArchRun`): ``arch_run.fold(g)``
        #: re-scores it under cache geometry ``g`` without re-executing
        self.arch_run = None

    def resolve_engine(self, *, inorder: bool = False) -> str:
        """The engine :meth:`run` will use, by the ladder in
        docs/engines.md; :meth:`run` adds the checkpoint rung and
        rejects a ``trace_hook`` or ``obs`` the chosen engine lacks.

        1. an explicit ``engine=``, then ``REPRO_MACHINE_ENGINE``, then
           ``fast`` (``legacy`` when a trace hook is installed); with
           ``obs=True`` an env ``legacy``/``ooo`` reads as ``fast``,
           since neither loop produces a per-pc sample;
        2. a fault session must observe every step: ``ooo`` runs
           ``fast`` unless the session is one of its native recovery
           kinds (``ooo_native``);
        3. ``ooo`` with ``obs=True`` and no fault session runs ``fast``;
        4. ``inorder=True`` asks for an engine of the in-order timing
           model that serves the request, for a caller whose result must
           not depend on the spelling (the serve report): ``ooo`` reads
           as ``fast``, and so does ``legacy`` with ``obs=True``.
        """
        engine = self.engine
        if engine is None:
            env = _env_engine()
            if self.obs:
                engine = "fast" if env in ("", "legacy", "ooo") else env
            elif self.trace_hook is not None and not env:
                engine = "legacy"
            else:
                engine = env or "fast"
        fx = self.faults
        if engine == "ooo" and (
            self.obs if fx is None else not getattr(fx, "ooo_native", False)
        ):
            return "fast"
        if inorder and (engine == "ooo" or (engine == "legacy" and self.obs)):
            return "fast"
        return engine

    def run(self, *, checkpoint_at=None, resume_from=None) -> SimResult:
        """Execute the program; returns a :class:`SimResult`.

        ``checkpoint_at=N`` stops at the first instruction-count
        boundary ``>= N`` and returns a
        :class:`repro.arch.checkpoint.Snapshot` instead (or a normal
        SimResult when the program halts first); ``resume_from``
        continues a snapshot.  ``run(checkpoint_at=N)`` +
        ``run(resume_from=snap)`` is bit-identical to one uninterrupted
        run (docs/resilience.md).  The ``ooo`` engine has no mid-run
        boundary and degrades to the predecoded stepper whole-run,
        exactly as fault injection does; ``fast`` then steps every
        instruction.
        """
        engine = self.resolve_engine()
        if checkpoint_at is not None or resume_from is not None:
            if self.faults is not None:
                raise ValueError(
                    "checkpoint/resume does not compose with fault "
                    "injection: a FaultSession is positional in the "
                    "dynamic stream and cannot be split across runs"
                )
            if checkpoint_at is not None and checkpoint_at < 0:
                raise ValueError("checkpoint_at must be >= 0")
            if engine == "ooo":
                engine = "fast"
        if self.trace_hook is not None and engine != "legacy":
            raise ValueError("trace_hook requires the legacy path")
        if self.obs and engine in ("legacy", "ooo"):
            raise ValueError("obs=True requires the predecoded fast path")
        if engine == "ooo":
            from repro.arch.ooo import run_ooo

            return run_ooo(self)
        if engine == "fast":
            from repro.arch.predecode import run_fast

            return run_fast(
                self, checkpoint_at=checkpoint_at, resume_from=resume_from
            )
        return self._run_legacy(
            checkpoint_at=checkpoint_at, resume_from=resume_from
        )

    def _run_legacy(self, checkpoint_at=None, resume_from=None) -> SimResult:
        linked = self.linked
        insts = linked.insts
        delta = linked.delta
        inst_bytes = linked.inst_bytes
        result = SimResult(slice_width=self.slice_width)
        counters = result.counters
        rf_reads = counters.rf_reads_by_width
        rf_writes = counters.rf_writes_by_width
        class_counts = result.class_counts
        hierarchy = MemoryHierarchy(self.geometry)
        fetch = hierarchy.fetch
        data_access = hierarchy.data_access

        memory = FlatMemory()
        initialize_globals(memory, self.module, linked.global_addresses)
        mem_load = memory.load
        mem_store = memory.store

        regs = [0] * 16
        regs[13] = STACK_TOP
        regs[14] = HALT
        cmp_state = (0, 0, 4)  # (lhs, rhs, width-or-64)
        carry = 0
        narrow_rf = self.narrow_rf
        base_narrow = narrow_rf
        #: mixed-world binaries: functions that fell back to BASELINE
        #: codegen access the register file at full width even on ARM_BS
        fallback = getattr(linked, "fallback_functions", None) or None
        owner = linked.owner if fallback else None
        fx = self.faults

        pc = linked.entry_index
        steps = 0
        cycles = 0
        instructions = 0
        misspecs = 0
        last_load_reg = -1
        out_l1 = out_l2 = out_mem = 0  # dcache level counters
        ic_l1 = ic_l2 = ic_mem = 0

        if resume_from is not None:
            from repro.arch.checkpoint import restore_hierarchy

            snap = resume_from
            snap.check_resume(self, "legacy")
            hierarchy = restore_hierarchy(snap.hierarchy, self.geometry)
            fetch = hierarchy.fetch
            data_access = hierarchy.data_access
            memory.data[:] = snap.memory_data
            regs[:] = snap.regs
            cmp_state = tuple(snap.cmp_state)
            carry = snap.carry
            last_load_reg = snap.last_load_reg
            pc = snap.pc
            steps = instructions = snap.instructions
            state = snap.state
            cycles = state["cycles"]
            misspecs = state["misspeculations"]
            ic_l1, ic_l2, ic_mem = state["ic_l1"], state["ic_l2"], state["ic_mem"]
            out_l1, out_l2, out_mem = (
                state["out_l1"], state["out_l2"], state["out_mem"]
            )
            result.output[:] = snap.output
            result.branches = state["branches"]
            result.taken_branches = state["taken_branches"]
            result.spill_stores = state["spill_stores"]
            result.spill_loads = state["spill_loads"]
            result.copies = state["copies"]
            result.stores = state["stores"]
            result.loads = state["loads"]
            class_counts.update(state["class_counts"])
            rf_reads.update({int(k): v for k, v in state["rf_reads"].items()})
            rf_writes.update({int(k): v for k, v in state["rf_writes"].items()})
            counters.alu32_ops = state["alu32_ops"]
            counters.alu8_ops = state["alu8_ops"]
            counters.mul_ops = state["mul_ops"]
            counters.div_ops = state["div_ops"]
            counters.move_ops = state["move_ops"]

        def read(op):
            if type(op) is Slice:
                size = op.size if op.size <= 4 else 4
                width = size if narrow_rf else 4
                rf_reads[width] = rf_reads.get(width, 0) + 1
                return (regs[op.reg] >> (op.offset * 8)) & _MASKS[size]
            if type(op) is Imm:
                return op.value & 0xFFFFFFFF
            if op == "sp":
                rf_reads[4] += 1
                return regs[13]
            raise MachineError(f"cannot read operand {op!r}")

        def write(op, value):
            if type(op) is Slice:
                size = op.size if op.size <= 4 else 4
                width = size if narrow_rf else 4
                rf_writes[width] = rf_writes.get(width, 0) + 1
                shift = op.offset * 8
                mask = _MASKS[size] << shift
                regs[op.reg] = (regs[op.reg] & ~mask & 0xFFFFFFFF) | (
                    (value & _MASKS[size]) << shift
                )
            else:
                raise MachineError(f"cannot write operand {op!r}")

        def dmem(addr, level_counts=True):
            """Record a data access; returns extra stall cycles."""
            nonlocal out_l1, out_l2, out_mem
            level = data_access(addr)
            if level == "l1":
                out_l1 += 1
                return 1
            if level == "l2":
                out_l2 += 1
                return 10
            out_mem += 1
            return 70

        limit = self.step_limit
        trace_hook = self.trace_hook
        while pc != HALT:
            if checkpoint_at is not None and instructions >= checkpoint_at:
                from repro.arch.checkpoint import make_snapshot

                return make_snapshot(
                    self, "legacy",
                    instructions=instructions, pc=pc, regs=regs,
                    cmp_state=cmp_state, carry=carry,
                    last_load_reg=last_load_reg, output=result.output,
                    memory=memory, hierarchy=hierarchy,
                    state={
                        "cycles": cycles,
                        "misspeculations": misspecs,
                        "ic_l1": ic_l1, "ic_l2": ic_l2, "ic_mem": ic_mem,
                        "out_l1": out_l1, "out_l2": out_l2,
                        "out_mem": out_mem,
                        "branches": result.branches,
                        "taken_branches": result.taken_branches,
                        "spill_stores": result.spill_stores,
                        "spill_loads": result.spill_loads,
                        "copies": result.copies,
                        "loads": result.loads,
                        "stores": result.stores,
                        "class_counts": dict(class_counts),
                        "rf_reads": dict(rf_reads),
                        "rf_writes": dict(rf_writes),
                        "alu32_ops": counters.alu32_ops,
                        "alu8_ops": counters.alu8_ops,
                        "mul_ops": counters.mul_ops,
                        "div_ops": counters.div_ops,
                        "move_ops": counters.move_ops,
                    },
                )
            if not 0 <= pc < len(insts):
                raise MachineError(f"pc out of range: {pc}")
            if trace_hook is not None:
                trace_hook(pc, regs)
            inst = insts[pc]
            steps += 1
            if steps > limit:
                raise MachineError("machine step limit exceeded")
            if fx is not None:
                if fx.on_step(steps, pc, regs, memory) is not None:
                    # corrupted fetch: the slot executes as a bubble
                    instructions += 1
                    cycles += 1
                    last_load_reg = -1
                    pc = pc + 1
                    continue
            if owner is not None:
                narrow_rf = base_narrow and owner[pc] not in fallback
            # instruction fetch
            level = fetch(pc * inst_bytes)
            if level == "l1":
                ic_l1 += 1
            elif level == "l2":
                ic_l2 += 1
                cycles += 10
            else:
                ic_mem += 1
                cycles += 70
            instructions += 1
            cycles += 1
            opcode = inst.opcode
            # load-use hazard: one bubble when a load's result is consumed
            # by the immediately following instruction
            if last_load_reg >= 0:
                for op in inst.uses:
                    if type(op) is Slice and op.reg == last_load_reg:
                        cycles += 1
                        break
                last_load_reg = -1
            kind = inst.kind
            if kind:
                if kind == "copy":
                    result.copies += 1
                elif kind == "reload":
                    result.spill_loads += 1
                elif kind == "spill":
                    result.spill_stores += 1
            next_pc = pc + 1

            if opcode == "mov" or opcode == "movi":
                write(inst.defs[0], read(inst.uses[0]))
                counters.move_ops += 1
                class_counts["move"] += 1
            elif opcode in ("ldr", "ldrb", "ldrh"):
                base = read(inst.uses[0])
                disp = inst.uses[1].value if len(inst.uses) > 1 else 0
                addr = (base + disp) & 0xFFFFFFFF
                size = {"ldr": 4, "ldrb": 1, "ldrh": 2}[opcode]
                value = mem_load(addr, size)
                dest = inst.defs[0]
                write(dest, value)
                cycles += dmem(addr)
                result.loads += 1
                class_counts["mem"] += 1
                last_load_reg = dest.reg
            elif opcode in ("str", "strb", "strh"):
                value = read(inst.uses[0])
                base = read(inst.uses[1])
                disp = inst.uses[2].value if len(inst.uses) > 2 else 0
                addr = (base + disp) & 0xFFFFFFFF
                size = {"str": 4, "strb": 1, "strh": 2}[opcode]
                mem_store(addr, value, size)
                dmem(addr)
                result.stores += 1
                class_counts["mem"] += 1
            elif opcode in ("add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr"):
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                width = inst.width
                mask = _MASKS.get(width, 0xFFFFFFFF)
                if opcode == "add":
                    value = (a + b) & mask
                elif opcode == "sub":
                    value = (a - b) & mask
                elif opcode == "and":
                    value = a & b
                elif opcode == "orr":
                    value = a | b
                elif opcode == "eor":
                    value = a ^ b
                elif opcode == "lsl":
                    value = (a << b) & mask if b < 32 else 0
                elif opcode == "lsr":
                    value = (a >> b) if b < 32 else 0
                else:  # asr
                    bits = width * 8
                    ty = int_type(bits)
                    shift = min(b, bits - 1)
                    value = ty.wrap(ty.to_signed(a) >> shift)
                write(inst.defs[0], value)
                if narrow_rf and width == 1:
                    counters.alu8_ops += 1
                    class_counts["alu8"] += 1
                else:
                    counters.alu32_ops += 1
                    class_counts["alu32"] += 1
            elif opcode == "bs_ldr":
                # Speculative load (Table 1): full-width read, narrow result,
                # misspeculate when the value does not fit the slice.
                addr = read(inst.uses[0])
                size = inst.uses[1].value
                value = mem_load(addr, size)
                cycles += dmem(addr)
                result.loads += 1
                counters.alu8_ops += 1
                class_counts["alu8"] += 1
                miss = value > self.spec_mask
                if fx is not None:
                    miss = fx.spec_outcome(miss)
                if miss:
                    misspecs += 1
                    cycles += 3
                    next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                else:
                    write(inst.defs[0], value)
                    last_load_reg = inst.defs[0].reg
            elif opcode.startswith("bs_"):
                taken = self._exec_bitspec(
                    inst, read, write, counters, class_counts, fx
                )
                if taken == "misspec":
                    misspecs += 1
                    cycles += 3
                    next_pc = pc + delta if fx is None else fx.redirect(pc, delta)
                elif isinstance(taken, tuple):
                    cmp_state = taken
            elif opcode == "cmp":
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                cmp_state = (a, b, inst.width)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "cmp64hi":
                cmp_state = (read(inst.uses[0]), read(inst.uses[1]), "hi")
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "cmp64lo":
                a_hi, b_hi, tag = cmp_state
                a = (a_hi << 32) | read(inst.uses[0])
                b = (b_hi << 32) | read(inst.uses[1])
                cmp_state = (a, b, 8)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "b":
                next_pc = inst.target
                result.branches += 1
                result.taken_branches += 1
                cycles += 2
                class_counts["branch"] += 1
            elif opcode == "bcond":
                a, b, width = cmp_state
                ty = int_type(64 if width == 8 else width * 8)
                result.branches += 1
                class_counts["branch"] += 1
                if evaluate_icmp(inst.cond, a, b, ty):
                    next_pc = inst.target
                    result.taken_branches += 1
                    cycles += 2
            elif opcode == "movcond":
                a, b, width = cmp_state
                ty = int_type(64 if width == 8 else width * 8)
                if evaluate_icmp(inst.cond, a, b, ty):
                    write(inst.defs[0], read(inst.uses[0]))
                counters.move_ops += 1
                class_counts["move"] += 1
            elif opcode in ("uxt", "sxt", "trunc"):
                src = inst.uses[0]
                value = read(src)
                if opcode == "sxt":
                    src_bits = (src.size if type(src) is Slice else 4) * 8
                    value = int_type(src_bits).to_signed(value) & 0xFFFFFFFF
                write(inst.defs[0], value)
                if narrow_rf and inst.width == 1:
                    counters.alu8_ops += 1
                    class_counts["alu8"] += 1
                else:
                    counters.move_ops += 1
                    class_counts["move"] += 1
            elif opcode == "mul":
                value = (read(inst.uses[0]) * read(inst.uses[1])) & _MASKS.get(
                    inst.width, 0xFFFFFFFF
                )
                write(inst.defs[0], value)
                counters.mul_ops += 1
                class_counts["mul"] += 1
                cycles += 2
            elif opcode == "umull":
                product = read(inst.uses[0]) * read(inst.uses[1])
                write(inst.defs[0], product & 0xFFFFFFFF)
                write(inst.defs[1], (product >> 32) & 0xFFFFFFFF)
                counters.mul_ops += 1
                class_counts["mul"] += 1
                cycles += 3
            elif opcode in _DIV_OPS:
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                bits = inst.width * 8
                ty = int_type(bits)
                if b == 0:
                    raise MachineError("division by zero")
                if opcode == "udiv":
                    value = a // b
                elif opcode == "urem":
                    value = a % b
                else:
                    sa, sb = ty.to_signed(a), ty.to_signed(b)
                    q = abs(sa) // abs(sb)
                    r = abs(sa) % abs(sb)
                    if opcode == "sdiv":
                        value = ty.wrap(-q if (sa < 0) != (sb < 0) else q)
                    else:
                        value = ty.wrap(-r if sa < 0 else r)
                write(inst.defs[0], ty.wrap(value))
                counters.div_ops += 1
                class_counts["div"] += 1
                cycles += 11
            elif opcode == "adds":
                full = read(inst.uses[0]) + read(inst.uses[1])
                carry = full >> 32
                write(inst.defs[0], full & 0xFFFFFFFF)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "adc":
                full = read(inst.uses[0]) + read(inst.uses[1]) + carry
                carry = full >> 32
                write(inst.defs[0], full & 0xFFFFFFFF)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "subs":
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                carry = 1 if a >= b else 0
                write(inst.defs[0], (a - b) & 0xFFFFFFFF)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "sbc":
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                full = a - b - (1 - carry)
                carry = 1 if full >= 0 else 0
                write(inst.defs[0], full & 0xFFFFFFFF)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "addsl":
                base = read(inst.uses[0])
                index = read(inst.uses[1])
                shift = inst.uses[2].value
                write(inst.defs[0], (base + (index << shift)) & 0xFFFFFFFF)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "orrsl":
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                shift = inst.uses[2].value
                shifted = (b << shift) & 0xFFFFFFFF if shift >= 0 else b >> (-shift)
                write(inst.defs[0], a | shifted)
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "bl":
                lr_stack_value = pc + 1
                regs[14] = lr_stack_value
                next_pc = inst.target
                result.branches += 1
                result.taken_branches += 1
                cycles += 2
                class_counts["branch"] += 1
            elif opcode == "bx":
                next_pc = regs[14]
                result.branches += 1
                result.taken_branches += 1
                cycles += 2
                class_counts["branch"] += 1
            elif opcode == "subspi":
                regs[13] = (regs[13] - inst.uses[0].value) & 0xFFFFFFFF
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "addspi":
                regs[13] = (regs[13] + inst.uses[0].value) & 0xFFFFFFFF
                counters.alu32_ops += 1
                class_counts["alu32"] += 1
            elif opcode == "out":
                result.output.append(read(inst.uses[0]))
                counters.move_ops += 1
                class_counts["move"] += 1
            elif opcode == "nop" or opcode == "mode":
                class_counts["move"] += 1
            else:
                raise MachineError(f"unknown opcode {opcode!r} at {pc}")
            pc = next_pc

        if fx is not None:
            cycles += fx.extra_cycles
        result.instructions = instructions
        result.cycles = cycles
        result.misspeculations = misspecs
        counters.cycles = cycles
        counters.icache_l1 = ic_l1
        counters.icache_l2 = ic_l2
        counters.icache_mem = ic_mem
        counters.dcache_l1 = out_l1
        counters.dcache_l2 = out_l2
        counters.dcache_mem = out_mem
        result.memory = memory
        result.return_value = regs[0]
        return result

    def _exec_bitspec(self, inst, read, write, counters, class_counts, fx=None):
        """Execute one non-memory ``bs_*`` op.

        Returns "misspec", a new cmp_state tuple (for ``bs_cmp``), or None.
        Misspeculation is detected exactly as the segmented ALU does it:
        any carry/borrow/bit leaving the configured slice (§3.5).  ``fx``
        (a fault session) may override the natural verdict; a suppressed
        misspeculation writes back its out-of-slice value, which the
        destination slice mask truncates — exactly the architectural
        effect of a carry-out the hardware failed to flag.
        """
        opcode = inst.opcode
        spec_mask = self.spec_mask
        counters.alu8_ops += 1
        class_counts["alu8"] += 1
        if opcode == "bs_cmp":
            return (read(inst.uses[0]), read(inst.uses[1]), inst.width)
        if opcode == "bs_trunc":
            value = read(inst.uses[0])
            miss = value > spec_mask
            if fx is not None:
                miss = fx.spec_outcome(miss)
            if miss:
                return "misspec"
            write(inst.defs[0], value)
            return None
        if opcode == "bs_trunc_hi":
            miss = read(inst.uses[0]) != 0
            if fx is not None:
                miss = fx.spec_outcome(miss)
            if miss:
                return "misspec"
            return None
        a = read(inst.uses[0])
        b = read(inst.uses[1])
        if opcode == "bs_add":
            wide = a + b
        elif opcode == "bs_sub":
            wide = a - b
        elif opcode == "bs_and":
            wide = a & b
        elif opcode == "bs_orr":
            wide = a | b
        elif opcode == "bs_eor":
            wide = a ^ b
        elif opcode == "bs_lsl":
            wide = (a << b) if b < 32 else 0
        elif opcode == "bs_lsr":
            wide = a >> b if b < 32 else 0
        else:
            raise MachineError(f"unknown speculative opcode {opcode!r}")
        miss = wide < 0 or wide > spec_mask
        if fx is not None:
            miss = fx.spec_outcome(miss)
        if miss:
            return "misspec"
        write(inst.defs[0], wide)
        return None
