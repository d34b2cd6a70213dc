"""Translated tier of the in-order engine: a block-specialized template JIT.

The predecoded stepper (:func:`repro.arch.predecode.run_fast`) pays a
Python-level dispatch per dynamic instruction: fetch the pc's tuple,
branch on the integer opcode, decode operand descriptors, bump per-pc
arrays.  This module removes that per-step tax for hot code by
*translating* regions of the predecoded program into straight-line
Python source, one specialized function per basic-block region:

* every handler is specialized to its pc — operand registers become
  function locals, immediates/masks/shifts become literals, and the
  opcode dispatch disappears entirely;
* registers touched by a region are loaded into locals once at entry
  and spilled back once per exit;
* statically-determined event counts (execution counts, intra-region
  load-use hazards) are not counted at run time at all: the region bumps
  one entry counter, early exits bump one site counter, and
  :meth:`Tier.fold_counts` adds ``entries − Σ earlier-exit counts`` per
  offset to the stepper's per-pc arrays after the run;
* the cache hierarchy is not in the regions at all: they append to the
  stepper's L1 access log — ``~pc`` per I-line transition (a same-line
  successor is known statically, so only a region entry compares
  against the line shadow) and ``addr << pc_bits | pc`` per load, store
  and ``bs_ldr`` — and :func:`repro.arch.predecode.replay` scores it in
  the fold;
* genuinely dynamic events (taken conditional branches, committed
  ``movcond``, misspeculations, cross-region load-use hazards) go to
  the stepper's own per-pc arrays, so a run is one
  :class:`repro.arch.predecode.ArchRun` whichever tier executed each
  instruction, folded by :meth:`repro.arch.predecode.ArchRun.fold`.

The stepper decides what runs translated: a region the program's runs
have entered more than :data:`repro.arch.predecode.TRANSLATE_AFTER`
times is translated (if no earlier run has) and instantiated for the
run, and from then on control transfers into it run the region function.
Statically known transfers between hot regions return the next region
function directly; anything else (a ``bx`` through a dynamic ``r14``,
an exit to a cold region or to a pc no region starts at, HALT) returns
an integer pc to :meth:`Tier.run`, which either continues at a hot
region or hands the pc back to the stepper.  So correctness never
depends on the translated cover being complete, and a missing region
costs steps, not a replay.

Each region is one straight-line body, emitted in one pass.  Small
loops are unrolled by tracing through their back edges up to
:data:`MAX_REGION`; a trace that returns to its own leader ends the
region there and leaves through the dispatcher, which checks the step
limit after every region.

Only code and entry counts are kept between runs.  :func:`get_image`
caches a :class:`CompiledImage` on the :class:`LinkedProgram` instance
(keyed by register-file narrowing and slice width): the region entries
and their counts, and one code object per translated region, so repeated
runs of one binary recompile nothing.  Every run binds those code objects
to its own registers, memory and counters in a :class:`Tier` that dies
with it.
"""

from __future__ import annotations

import builtins
from struct import Struct
from types import CodeType, FunctionType

from repro.arch.machine import MachineError
from repro.arch.predecode import (
    OP_ADC,
    OP_ADDS,
    OP_ADDSL,
    OP_ADDSPI,
    OP_ALU,
    OP_B,
    OP_BCOND,
    OP_BL,
    OP_BS_BIN,
    OP_BS_LDR,
    OP_BS_TRUNC,
    OP_BS_TRUNC_HI,
    OP_BX,
    OP_CMP,
    OP_CMP64LO,
    OP_DIV,
    OP_ERROR,
    OP_EXT,
    OP_LOAD,
    OP_MOV,
    OP_MOVCOND,
    OP_MUL,
    OP_NOP,
    OP_ORRSL,
    OP_OUT,
    OP_SBC,
    OP_STORE,
    OP_SUBS,
    OP_SUBSPI,
    OP_UMULL,
    SPEC_OPS,
    _iline_shift,
    _pc_bits,
    fold_result,  # noqa: F401 - perf/tracing.py spans it under this name
    predecode,
)
from repro.arch.widths import BYTE_MASKS as _MASKS
from repro.interp.interpreter import evaluate_icmp
from repro.interp.memory import MEMORY_SIZE
from repro.ir.types import int_type

#: a region stops extending past this many instructions (codegen bound;
#: the fallthrough pc becomes a region entry of its own)
MAX_REGION = 256

#: backward branches spanning at most this many instructions keep tracing
#: (loop unrolling up to MAX_REGION); larger loop bodies already amortize
#: their entry cost, so they end the region instead
UNROLL_SPAN = 64

_U16 = Struct("<H").unpack_from
_U32 = Struct("<I").unpack_from
_P16 = Struct("<H").pack_into
_P32 = Struct("<I").pack_into

_UNSIGNED = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
             "ugt": ">", "uge": ">="}
_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}

#: names the generated factory binds from its argument dict
_BIND_NAMES = (
    "regs", "S", "data", "out_append", "LA",
    "HZ", "MS", "TK", "MC", "BE", "BX",
    "ICD", "MERR", "U16", "U32", "P16", "P32",
)


def _icmp_dyn(cond, a, b, width):
    """Dynamic-width comparison helper for entry-inherited cmp state."""
    return evaluate_icmp(cond, a, b, int_type(64 if width == 8 else width * 8))


class CompiledImage:
    """One program's translated code, grown a region at a time.

    :func:`_build_image` predecodes the program and finds its static
    region entries (:attr:`leaders`); :meth:`translate` emits and
    compiles the region entered at one of them.  The image is code and
    entry counts only: it is cached on the :class:`LinkedProgram`, so it
    must not keep a run alive, and every run binds the code objects to
    state of its own (:class:`Tier`).  Region and exit-site indices are
    global to the image, so a run's entry and exit counters cover every
    region translated so far, whichever run translated it.
    """

    __slots__ = ("code", "n_insts", "inst_bytes", "delta", "spec_mask",
                 "leaders", "regions", "fold_regions", "n_sites", "budgets")

    def __init__(self, code, leaders, inst_bytes, delta, spec_mask):
        self.code = code
        self.n_insts = len(code)
        self.inst_bytes = inst_bytes
        self.delta = delta
        self.spec_mask = spec_mask
        #: region-entry pcs: the static ones, then every fallthrough pc a
        #: MAX_REGION cap has made an entry
        self.leaders = set(leaders)
        #: leader -> (code object of that region's ``_factory(B)``, the
        #: ``(name, pc)`` of every region entry its exits load)
        self.regions = {}
        #: (region index, pcs, hazard offsets, exit sites) per translated
        #: region, in translation order — region and site indices too
        self.fold_regions = []
        self.n_sites = 0
        #: threshold -> per pc, the entries the runs at that threshold still
        #: step before translating the region there (``0``: run it
        #: translated; negative: no region starts there)
        self.budgets = {}

    @property
    def n_regions(self):
        return len(self.fold_regions)

    def translate(self, leader):
        """Emit and compile the region entered at ``leader``.

        Returns ``regions[leader]``: the code object of a
        ``_factory(B)`` that binds a run's arrays from ``B`` and returns
        the region function, and the region entries its exits load as
        ``_b<pc>`` from the run's namespace.
        """
        em = _RegionEmitter(self.code, leader, self.n_insts, self.inst_bytes,
                            self.delta, self.spec_mask,
                            region_idx=self.n_regions,
                            site_base=self.n_sites, leaders=self.leaders)
        em.emit()
        ft = em.fallthrough_target
        if ft is not None:
            self.leaders.add(ft)
            for after, budget in self.budgets.items():
                if budget[ft] < 0:
                    budget[ft] = after
        src = ["def _factory(B):"]
        src.extend(f"    {name} = B['{name}']" for name in _BIND_NAMES)
        # the function is named apart from its ``_b<leader>`` global: a
        # region that loops to itself then loads itself from the run's
        # namespace, which :meth:`Tier.close` clears, instead of from a
        # closure cell, a cycle that would keep the run's memory alive
        # until the garbage collector ran
        src.extend(em.render())
        src.append("    return _region")
        module = compile("\n".join(src) + "\n", "<repro.arch.compiled>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        region = (code, tuple((f"_b{pc}", pc) for pc in sorted(em.targets)))
        self.regions[leader] = region
        self.fold_regions.append((em.region_idx, tuple(em.pcs),
                                  tuple(em.hz_offsets), tuple(em.sites)))
        self.n_sites += len(em.sites)
        return region


class Tier:
    """One run's translated tier: the image's regions bound to the run.

    The stepper (:func:`repro.arch.predecode.run_fast`) owns the run's
    registers, memory, output, access log and per-pc event arrays; the
    tier binds the same objects into every region it instantiates, adds
    the ``S`` slots the regions share with the stepper and the per-region
    entry and per-site exit counters, and counts entries in ``budget``,
    the image's list for the run's threshold
    (:attr:`CompiledImage.budgets`), so the count goes on where the
    program's last run at that threshold left it.

    Each region function is created from the image's code object the
    first time the run enters it hot.  Its exits load ``_b<pc>`` from
    the run's namespace, which holds the region function of a hot entry
    and the integer pc of a cold one, so an exit to a cold entry returns
    to the dispatcher in :meth:`run`.  :meth:`close` breaks the
    namespace's reference cycle, so the run's state dies with the run.
    """

    __slots__ = ("image", "budget", "S", "binds", "ns", "table",
                 "entries", "exits")

    def __init__(self, image, after, regs, data, output, log,
                 hz, ms, tk, mc):
        self.image = image
        budget = image.budgets.get(after)
        if budget is None:  # the program's first run at this threshold
            budget = image.budgets[after] = [-1] * image.n_insts
            for leader in image.leaders:
                budget[leader] = after
        self.budget = budget
        # shared mutable slots: cmp state, carry, pending load-use reg,
        # steps, icache shadow last-line
        self.S = [(0, 0, 4), 0, -1, 0, -1]
        # the region closures bind these two by identity, so they only
        # ever grow in place
        self.entries = [0] * image.n_regions
        self.exits = [0] * image.n_sites
        self.binds = {
            "regs": regs, "S": self.S, "data": data,
            "out_append": output.append, "LA": log.append,
            "HZ": hz, "MS": ms, "TK": tk, "MC": mc,
            "BE": self.entries, "BX": self.exits,
            "ICD": _icmp_dyn, "MERR": MachineError,
            "U16": _U16, "U32": _U32, "P16": _P16, "P32": _P32,
        }
        self.ns = {"__builtins__": builtins}
        self.table = [None] * image.n_insts

    def enter(self, leader):
        """The run's region function for ``leader``, translating the
        region first if no run has."""
        image = self.image
        region = image.regions.get(leader)
        if region is None:
            region = image.translate(leader)
            self.entries.extend([0] * (image.n_regions - len(self.entries)))
            self.exits.extend([0] * (image.n_sites - len(self.exits)))
        code, targets = region
        ns = self.ns
        fn = FunctionType(code, ns)(self.binds)
        for name, pc in targets:
            ns.setdefault(name, pc)
        ns[f"_b{leader}"] = self.table[leader] = fn
        return fn

    def run(self, pc, limit):
        """Run translated code from hot leader ``pc``; return the pc the
        stepper continues at: a cold entry (already counted), a pc no
        region starts at, or one out of range (HALT among them)."""
        S = self.S
        table = self.table
        budget = self.budget
        n = len(table)
        fn = table[pc] or self.enter(pc)
        while True:
            nxt = fn()
            if S[3] > limit:
                raise MachineError("machine step limit exceeded")
            # spin on direct function references (statically known
            # transfers to hot entries) without touching the table;
            # integers are the rare case — bx through a dynamic r14, a
            # cold entry, out-of-range targets, or HALT
            while nxt.__class__ is not int:
                nxt = nxt()
                if S[3] > limit:
                    raise MachineError("machine step limit exceeded")
            if not 0 <= nxt < n:
                return nxt
            fn = table[nxt]
            if fn is None:
                left = budget[nxt]
                if left:
                    budget[nxt] = left - 1
                    return nxt
                fn = self.enter(nxt)

    def fold_counts(self, exec_counts, hazard_pc):
        """Add the translated executions to the stepper's per-pc arrays.

        An instruction at offset ``off`` of a region executed once per
        region entry minus once per exit at an earlier offset.  Exit
        sites with a zero count don't split segments, so the common case
        is one bulk ``+= running`` sweep over the region's pcs.
        """
        entries, exits = self.entries, self.exits
        for ridx, pcs, hz_offsets, sites in self.image.fold_regions:
            running = entries[ridx]
            if not running:
                continue
            start = 0
            for site, soff in sites:
                x = exits[site]
                if not x:
                    continue
                end = soff + 1
                for p in pcs[start:end]:
                    exec_counts[p] += running
                running -= x
                start = end
                if running <= 0:
                    break
            if running > 0:
                for p in pcs[start:]:
                    exec_counts[p] += running
            for hoff in hz_offsets:
                # count at offset hoff = entries − Σ exits at earlier offsets
                r = entries[ridx]
                for site, soff in sites:
                    if soff >= hoff:
                        break
                    r -= exits[site]
                if r > 0:
                    hazard_pc[pcs[hoff]] += r

    def close(self):
        """Drop the region functions: each holds the namespace that holds
        it, a cycle that would keep the run's memory alive until the
        garbage collector ran."""
        self.ns.clear()


class _RegionEmitter:
    """Generates the specialized function for one region.

    A region is a superblock: it starts at a region entry (*leader*) and
    runs straight-line through subsequent leaders until a control-flow
    terminator (``b``/``bcond``/``bl``/``bx``/undecodable) or the
    :data:`MAX_REGION` cap.  Regions may therefore overlap; the fold
    adds each region's contribution to the shared per-pc arrays.
    """

    def __init__(self, code, start, n, inst_bytes, delta, spec_mask,
                 region_idx, site_base, leaders):
        self.code = code
        self.start = start
        self.n = n
        self.ishift = _iline_shift(inst_bytes)
        self.delta = delta
        self.spec_mask = spec_mask
        self.region_idx = region_idx
        self.site_base = site_base
        self.leaders = leaders
        self.pc_bits = _pc_bits(n)
        self.body: list = []          # (indent, text)
        self.pending_loads: list = []  # regs first read by the current inst
        self.bound: set = set()       # regs bound as locals
        self.dirty: list = []         # regs written (spill order)
        self.dirty_set: set = set()
        self.pcs: list = []           # covered pcs, in offset order
        self.hz_offsets: list = []    # offsets with a static load-use hazard
        self.sites: list = []         # (absolute site index, offset)
        self.cmp = ("inherit",)       # | ("loaded",) | ("set", cw, amax, bmax)
        self.carry = "inherit"        # | "loaded" | "set"
        self.llr = None               # dest reg of an immediately-preceding load
        self.r14_const = None         # r14's value when statically known
        self.fallthrough_target = None
        self.targets: set = set()     # region entries the exits return

    # -- low-level helpers ----------------------------------------------

    def line(self, indent, text):
        self.body.append((indent, text))

    def reg(self, r, read=True):
        if r not in self.bound:
            self.bound.add(r)
            if read:
                # lazily loaded just before the instruction that first
                # reads it, so a path that exits the region early never
                # pays for registers only later instructions touch
                self.pending_loads.append(r)
        return f"r{r}"

    def wrote(self, r):
        if r == 14:
            self.r14_const = None
        if r not in self.dirty_set:
            self.dirty_set.add(r)
            self.dirty.append(r)

    def rd(self, d):
        """Read descriptor -> (expression, max possible value)."""
        r, shift, mask, const = d
        if not mask:
            return repr(const), const
        name = self.reg(r)
        if mask == 0xFFFFFFFF and shift == 0:
            return name, 0xFFFFFFFF
        if shift:
            return f"(({name} >> {shift}) & {mask:#x})", mask
        return f"({name} & {mask:#x})", mask

    def wr(self, indent, w, expr, vmax, force_load=False):
        """Emit a register write for descriptor ``w`` from ``expr``.

        ``vmax`` is a proven upper bound on the expression's value, used
        to drop redundant masking.  ``force_load`` binds the old value
        even for full-width writes (needed when the write is emitted
        under a condition, so exits can spill an initialized local).
        """
        r, shift, vmask, keep = w
        full = vmask == 0xFFFFFFFF and shift == 0
        name = self.reg(r, read=(force_load or not full))
        self.wrote(r)
        if full:
            if vmax <= vmask:
                self.line(indent, f"{name} = {expr}")
            else:
                self.line(indent, f"{name} = ({expr}) & 0xFFFFFFFF")
            return
        sub = expr if vmax <= vmask else f"({expr}) & {vmask:#x}"
        if shift:
            self.line(indent,
                      f"{name} = ({name} & {keep:#x}) | (({sub}) << {shift})")
        else:
            self.line(indent, f"{name} = ({name} & {keep:#x}) | ({sub})")

    # -- cmp / carry lazy state -----------------------------------------

    def ensure_cmp(self, indent):
        if self.cmp[0] == "inherit":
            self.line(indent, "ca, cb, cw = S[0]")
            self.cmp = ("loaded",)

    def set_cmp(self, indent, a_expr, b_expr, cw, amax, bmax):
        self.line(indent, f"ca = {a_expr}")
        self.line(indent, f"cb = {b_expr}")
        self.cmp = ("set", cw, amax, bmax)

    def cond_expr(self, indent, cond):
        """Emit prep lines for comparison ``cond``; return a bool expr."""
        if self.cmp[0] == "inherit":
            self.ensure_cmp(indent)
        if self.cmp[0] == "loaded":
            return f"ICD({cond!r}, ca, cb, cw)"
        cw, amax, bmax = self.cmp[1], self.cmp[2], self.cmp[3]
        if cw == "hi":
            # a dangling cmp64hi read: evaluate_icmp would be handed the
            # "hi" tag as a width — reproduce the fast path's behavior
            return f"ICD({cond!r}, ca, cb, 'hi')"
        op = _UNSIGNED.get(cond)
        if op is not None:
            return f"ca {op} cb"
        op = _SIGNED.get(cond)
        if op is None:
            return f"ICD({cond!r}, ca, cb, {cw!r})"
        bits = 64 if cw == 8 else cw * 8
        mask = (1 << bits) - 1
        sb = 1 << (bits - 1)
        m = 1 << bits
        ae = "ca" if (amax is not None and amax <= mask) else f"(ca & {mask:#x})"
        be = "cb" if (bmax is not None and bmax <= mask) else f"(cb & {mask:#x})"
        self.line(indent, f"sa_ = {ae}")
        self.line(indent, f"sa_ = sa_ - {m} if sa_ >= {sb} else sa_")
        self.line(indent, f"sb_ = {be}")
        self.line(indent, f"sb_ = sb_ - {m} if sb_ >= {sb} else sb_")
        return f"sa_ {op} sb_"

    def ensure_carry(self, indent):
        if self.carry == "inherit":
            self.line(indent, "cy = S[1]")
            self.carry = "loaded"

    # -- exits -----------------------------------------------------------

    def ret_target(self, pc_target):
        """Exit-value expression for a static transfer to ``pc_target``.

        Region entries return the *next region function* directly, so the
        dispatch loop never touches the pc-indexed table for statically
        known control transfers; anything else returns the integer pc
        (which the dispatcher bounds-checks, or recognizes as HALT).
        """
        if pc_target in self.leaders:
            self.targets.add(pc_target)
            return f"_b{pc_target}"
        return repr(pc_target)

    def new_site(self, off):
        site = self.site_base + len(self.sites)
        self.sites.append((site, off))
        return site

    def emit_exit(self, indent, steps, ret, llr_store=None):
        if self.cmp[0] == "set":
            self.line(indent, f"S[0] = (ca, cb, {self.cmp[1]!r})")
        if self.carry == "set":
            self.line(indent, "S[1] = cy")
        for r in self.dirty:
            self.line(indent, f"regs[{r}] = r{r}")
        if llr_store is not None:
            self.line(indent, f"S[2] = {llr_store}")
        self.line(indent, f"S[3] += {steps}")
        self.line(indent, f"return {ret}")

    def misspec_exit(self, pc, off):
        site = self.new_site(off)
        self.line(1, f"MS[{pc}] += 1")
        self.line(1, f"BX[{site}] += 1")
        self.emit_exit(1, off + 1, self.ret_target(pc + self.delta))

    # -- main loop --------------------------------------------------------

    def emit(self):
        code = self.code
        pc = self.start
        off = 0
        prev_line_no = None
        while True:
            if off >= MAX_REGION or not 0 <= pc < self.n:
                if 0 <= pc < self.n:
                    # the cap makes pc a region entry, which the image
                    # registers once this region is emitted.  Regions
                    # translated earlier return the integer pc for a
                    # transfer there, which the stepper takes over
                    self.fallthrough_target = pc
                    self.targets.add(pc)
                    ret = f"_b{pc}"
                else:
                    self.fallthrough_target = None
                    ret = repr(pc)
                self.emit_exit(0, off, ret, llr_store=self.llr)
                return
            t = code[pc]
            self.pcs.append(pc)
            if off and self.llr is not None:
                # intra-region load-use hazard: fully static
                if self.llr in t[1]:
                    self.hz_offsets.append(off)
                self.llr = None
            line_no = pc >> self.ishift
            if line_no != prev_line_no:
                if prev_line_no is None:
                    # region entry: the line may equal the icache's last
                    # line, which S[4] shadows exactly as run_fast's
                    # ``iline`` does — a same-line fetch logs nothing
                    self.line(0, f"if S[4] != {line_no}:")
                    self.line(1, f"S[4] = {line_no}")
                    self.line(1, f"LA({~pc})")
                else:
                    # intra-region transition: execution follows emission
                    # order exactly, so at run time the shadow always holds
                    # the previous instruction's line — a differing static
                    # line never matches it, and a matching one logs nothing
                    self.line(0, f"S[4] = {line_no}")
                    self.line(0, f"LA({~pc})")
            prev_line_no = line_no
            mark = len(self.body)
            nxt = self.emit_inst(pc, off, t)
            for i, r in enumerate(self.pending_loads):
                self.body.insert(mark + i, (0, f"r{r} = regs[{r}]"))
            self.pending_loads = []
            if nxt == "end":
                return
            nxt_pc = nxt[1] if nxt is not None else pc + 1
            off += 1
            if nxt_pc == self.start:
                # the trace arrived back at this region's own leader: end
                # the region and re-enter through the dispatcher
                self.emit_exit(0, off, self.ret_target(self.start),
                               llr_store=self.llr)
                return
            pc = nxt_pc

    def _log_data(self, pc):
        # one data-access event, unfiltered as in run_fast: the replay
        # counts every data event as a dcache access
        self.line(0, f"LA(a_ << {self.pc_bits} | {pc})")

    def _addr(self, base_expr, disp):
        if disp:
            self.line(0, f"a_ = ({base_expr} + {disp}) & 0xFFFFFFFF")
        else:
            self.line(0, f"a_ = {base_expr}")

    def emit_inst(self, pc, off, t):
        """Emit one instruction's body; True if it terminates the region."""
        op = t[0]
        spec = self.spec_mask

        if op == OP_ALU:
            sub = t[2]
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            mask = t[6]
            if sub == 0:
                self.wr(0, t[5], f"({a} + {b}) & {mask:#x}", mask)
            elif sub == 1:
                self.wr(0, t[5], f"({a} - {b}) & {mask:#x}", mask)
            elif sub == 2:
                self.wr(0, t[5], f"{a} & {b}", min(amax, bmax))
            elif sub == 3:
                self.wr(0, t[5], f"{a} | {b}", amax | bmax)
            elif sub == 4:
                self.wr(0, t[5], f"{a} ^ {b}", amax | bmax)
            elif sub == 5:
                if not t[4][2]:
                    c = t[4][3]
                    if c < 32:
                        self.wr(0, t[5], f"({a} << {c}) & {mask:#x}", mask)
                    else:
                        self.wr(0, t[5], "0", 0)
                else:
                    self.line(0, f"b_ = {b}")
                    self.wr(0, t[5],
                            f"(({a} << b_) & {mask:#x}) if b_ < 32 else 0",
                            mask)
            elif sub == 6:
                if not t[4][2]:
                    c = t[4][3]
                    if c < 32:
                        self.wr(0, t[5], f"{a} >> {c}", amax >> c)
                    else:
                        self.wr(0, t[5], "0", 0)
                else:
                    self.line(0, f"b_ = {b}")
                    self.wr(0, t[5], f"({a} >> b_) if b_ < 32 else 0", amax)
            else:  # asr: arithmetic shift at the operation's signed width
                ty = t[7]
                bits = ty.bits
                tmask = ty.mask
                sb = 1 << (bits - 1)
                m = 1 << bits
                ae = a if amax <= tmask else f"({a} & {tmask:#x})"
                self.line(0, f"a_ = {ae}")
                self.line(0, f"a_ = a_ - {m} if a_ >= {sb} else a_")
                if not t[4][2]:
                    sh = min(t[4][3], bits - 1)
                    self.wr(0, t[5], f"(a_ >> {sh}) & {tmask:#x}", tmask)
                else:
                    self.line(0, f"b_ = {b}")
                    self.line(0, f"s_ = b_ if b_ < {bits - 1} else {bits - 1}")
                    self.wr(0, t[5], f"(a_ >> s_) & {tmask:#x}", tmask)
            return None

        if op == OP_MOV:
            e, vmax = self.rd(t[2])
            self.wr(0, t[3], e, vmax)
            return None

        if op == OP_LOAD:
            base, _ = self.rd(t[2])
            size = t[4]
            self._addr(base, t[3])
            self.line(0, f"if a_ > {MEMORY_SIZE - size}:")
            self.line(1, "raise MemoryError("
                         f"\"load out of bounds: 0x%x+{size}\" % a_)")
            if size == 1:
                self.line(0, "v_ = data[a_]")
            elif size == 2:
                self.line(0, "v_ = U16(data, a_)[0]")
            else:
                self.line(0, "v_ = U32(data, a_)[0]")
            self.wr(0, t[5], "v_", _MASKS[size])
            self._log_data(pc)
            self.llr = t[6]
            return None

        if op == OP_STORE:
            v, vmax = self.rd(t[2])
            base, _ = self.rd(t[3])
            size = t[5]
            self._addr(base, t[4])
            self.line(0, f"if a_ > {MEMORY_SIZE - size}:")
            self.line(1, "raise MemoryError("
                         f"\"store out of bounds: 0x%x+{size}\" % a_)")
            if size == 1:
                sv = v if vmax <= 0xFF else f"{v} & 0xFF"
                self.line(0, f"data[a_] = {sv}")
            elif size == 2:
                sv = v if vmax <= 0xFFFF else f"{v} & 0xFFFF"
                self.line(0, f"P16(data, a_, {sv})")
            else:
                self.line(0, f"P32(data, a_, {v})")
            self._log_data(pc)
            return None

        if op == OP_BCOND:
            target = t[3]
            if target > pc:
                # forward conditional (if/else): superblock-continue on the
                # fallthrough path — the taken path is an early exit with
                # its own fold site so later offsets lose its entries
                cond = self.cond_expr(0, t[2])
                self.line(0, f"if {cond}:")
                self.line(1, f"TK[{pc}] += 1")
                site = self.new_site(off)
                self.line(1, f"BX[{site}] += 1")
                self.emit_exit(1, off + 1, self.ret_target(target))
                return None
            if 0 <= target and pc - target <= UNROLL_SPAN:
                # small backward conditional (tight-loop latch, usually
                # taken): invert it — the not-taken side becomes the early
                # exit and tracing continues at the loop header, unrolling
                # the loop until MAX_REGION
                cond = self.cond_expr(0, t[2])
                site = self.new_site(off)
                self.line(0, f"if not ({cond}):")
                self.line(1, f"BX[{site}] += 1")
                self.emit_exit(1, off + 1, self.ret_target(pc + 1))
                self.line(0, f"TK[{pc}] += 1")
                return ("jump", target)
            # far backward conditional: end the region
            cond = self.cond_expr(0, t[2])
            self.line(0, f"if {cond}:")
            self.line(1, f"TK[{pc}] += 1")
            self.emit_exit(1, off + 1, self.ret_target(target))
            self.emit_exit(0, off + 1, self.ret_target(pc + 1))
            return "end"

        if op == OP_B:
            if 0 <= t[2] < self.n and (t[2] > pc or pc - t[2] <= UNROLL_SPAN):
                # unconditional jump with a nearby target: keep tracing
                # (forward = block merge, backward = while-loop unroll)
                return ("jump", t[2])
            self.emit_exit(0, off + 1, self.ret_target(t[2]))
            return "end"

        if op == OP_CMP:
            a, amax = self.rd(t[2])
            b, bmax = self.rd(t[3])
            self.set_cmp(0, a, b, t[4], amax, bmax)
            return None

        if op == OP_BS_BIN:
            sub = t[2]
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            neg = False
            wmax = None
            if sub == 0:
                self.line(0, f"w_ = {a} + {b}")
                wmax = amax + bmax
            elif sub == 1:
                self.line(0, f"w_ = {a} - {b}")
                neg = True
            elif sub == 2:
                self.line(0, f"w_ = {a} & {b}")
                wmax = min(amax, bmax)
            elif sub == 3:
                self.line(0, f"w_ = {a} | {b}")
                wmax = amax | bmax
            elif sub == 4:
                self.line(0, f"w_ = {a} ^ {b}")
                wmax = amax | bmax
            elif sub == 5:
                if not t[4][2]:
                    c = t[4][3]
                    if c < 32:
                        self.line(0, f"w_ = {a} << {c}")
                        wmax = amax << c
                    else:
                        self.line(0, "w_ = 0")
                        wmax = 0
                else:
                    self.line(0, f"b_ = {b}")
                    self.line(0, f"w_ = ({a} << b_) if b_ < 32 else 0")
            else:
                if not t[4][2]:
                    c = t[4][3]
                    if c < 32:
                        self.line(0, f"w_ = {a} >> {c}")
                        wmax = amax >> c
                    else:
                        self.line(0, "w_ = 0")
                        wmax = 0
                else:
                    self.line(0, f"b_ = {b}")
                    self.line(0, f"w_ = ({a} >> b_) if b_ < 32 else 0")
                    wmax = amax
            if wmax is not None and not neg and wmax <= spec:
                # statically proven in-slice: can never misspeculate
                self.wr(0, t[5], "w_", wmax)
            else:
                cond = (f"w_ < 0 or w_ > {spec}" if neg else f"w_ > {spec}")
                self.line(0, f"if {cond}:")
                self.misspec_exit(pc, off)
                self.wr(0, t[5], "w_", spec)
            return None

        if op == OP_BS_TRUNC:
            a, amax = self.rd(t[2])
            if amax <= spec:
                self.wr(0, t[3], a, amax)
            else:
                self.line(0, f"v_ = {a}")
                self.line(0, f"if v_ > {spec}:")
                self.misspec_exit(pc, off)
                self.wr(0, t[3], "v_", spec)
            return None

        if op == OP_BS_TRUNC_HI:
            a, amax = self.rd(t[2])
            if amax:
                self.line(0, f"if {a} != 0:")
                self.misspec_exit(pc, off)
            return None

        if op == OP_BS_LDR:
            addr, _ = self.rd(t[2])
            size = t[3]
            self.line(0, f"a_ = {addr}")
            self.line(0, f"if a_ > {MEMORY_SIZE - size}:")
            self.line(1, "raise MemoryError("
                         f"\"load out of bounds: 0x%x+{size}\" % a_)")
            if size == 1:
                self.line(0, "v_ = data[a_]")
            elif size == 2:
                self.line(0, "v_ = U16(data, a_)[0]")
            else:
                self.line(0, "v_ = U32(data, a_)[0]")
            self._log_data(pc)
            if _MASKS[size] > spec:
                self.line(0, f"if v_ > {spec}:")
                self.misspec_exit(pc, off)
            self.wr(0, t[4], "v_", min(_MASKS[size], spec))
            self.llr = t[6]
            return None

        if op == OP_EXT:  # sxt
            e, vmax = self.rd(t[2])
            bits = t[3].bits
            sb = 1 << (bits - 1)
            m = 1 << bits
            if vmax < sb:
                self.wr(0, t[4], e, vmax)
            else:
                self.line(0, f"v_ = {e}")
                self.line(0, f"v_ = (v_ - {m}) & 0xFFFFFFFF "
                             f"if v_ >= {sb} else v_")
                self.wr(0, t[4], "v_", 0xFFFFFFFF)
            return None

        if op == OP_MOVCOND:
            cond = self.cond_expr(0, t[2])
            self.line(0, f"if {cond}:")
            self.line(1, f"MC[{pc}] += 1")
            e, vmax = self.rd(t[3])
            self.wr(1, t[5], e, vmax, force_load=True)
            return None

        if op == OP_MUL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.wr(0, t[4], f"({a} * {b}) & {t[5]:#x}", t[5])
            return None

        if op == OP_UMULL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"p_ = {a} * {b}")
            self.wr(0, t[4], "p_ & 0xFFFFFFFF", 0xFFFFFFFF)
            self.wr(0, t[5], "(p_ >> 32) & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_DIV:
            sub = t[2]
            ty = t[6]
            tmask = ty.mask
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            self.line(0, f"b_ = {b}")
            self.line(0, "if b_ == 0:")
            self.line(1, 'raise MERR("division by zero")')
            if sub == 0:
                e = f"{a} // b_"
                self.line(0, f"v_ = ({e}) & {tmask:#x}" if amax > tmask
                          else f"v_ = {e}")
            elif sub == 2:
                e = f"{a} % b_"
                self.line(0, f"v_ = ({e}) & {tmask:#x}" if amax > tmask
                          else f"v_ = {e}")
            else:
                bits = ty.bits
                sbit = 1 << (bits - 1)
                m = 1 << bits
                ae = a if amax <= tmask else f"({a} & {tmask:#x})"
                be = "b_" if bmax <= tmask else f"(b_ & {tmask:#x})"
                self.line(0, f"sa_ = {ae}")
                self.line(0, f"sa_ = sa_ - {m} if sa_ >= {sbit} else sa_")
                self.line(0, f"sb_ = {be}")
                self.line(0, f"sb_ = sb_ - {m} if sb_ >= {sbit} else sb_")
                if sub == 1:  # sdiv
                    self.line(0, "q_ = abs(sa_) // abs(sb_)")
                    self.line(0, "v_ = (-q_ if (sa_ < 0) != (sb_ < 0) "
                                 f"else q_) & {tmask:#x}")
                else:  # srem
                    self.line(0, "q_ = abs(sa_) % abs(sb_)")
                    self.line(0, f"v_ = (-q_ if sa_ < 0 else q_) & {tmask:#x}")
            self.wr(0, t[5], "v_", tmask)
            return None

        if op == OP_ADDS or op == OP_ADC:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            if op == OP_ADC:
                self.ensure_carry(0)
                self.line(0, f"f_ = {a} + {b} + cy")
            else:
                self.line(0, f"f_ = {a} + {b}")
            self.line(0, "cy = f_ >> 32")
            self.carry = "set"
            self.wr(0, t[4], "f_ & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_SUBS:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"a_ = {a}")
            self.line(0, f"b_ = {b}")
            self.line(0, "cy = 1 if a_ >= b_ else 0")
            self.carry = "set"
            self.wr(0, t[4], "(a_ - b_) & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_SBC:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.ensure_carry(0)
            self.line(0, f"f_ = {a} - {b} - 1 + cy")
            self.line(0, "cy = 1 if f_ >= 0 else 0")
            self.carry = "set"
            self.wr(0, t[4], "f_ & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_ADDSL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.wr(0, t[5], f"({a} + ({b} << {t[4]})) & 0xFFFFFFFF",
                    0xFFFFFFFF)
            return None

        if op == OP_ORRSL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            sh = t[4]
            if sh >= 0:
                self.wr(0, t[5], f"{a} | (({b} << {sh}) & 0xFFFFFFFF)",
                        0xFFFFFFFF)
            else:
                self.wr(0, t[5], f"{a} | ({b} >> {-sh})", 0xFFFFFFFF)
            return None

        if op == OP_BL:
            name = self.reg(14, read=False)
            self.line(0, f"{name} = {pc + 1}")
            self.wrote(14)
            if 0 <= t[2] < self.n:
                # inline the call: keep tracing into the callee, and note
                # that r14 now provably holds pc+1 (wrote() clears the
                # note on any later r14 write, e.g. a restore-from-stack)
                self.r14_const = pc + 1
                return ("jump", t[2])
            self.emit_exit(0, off + 1, self.ret_target(t[2]))
            return "end"

        if op == OP_BX:
            if self.r14_const is not None and 0 <= self.r14_const < self.n:
                # return to a statically known address (the inlined call's
                # continuation): keep tracing there — no dispatch at all
                return ("jump", self.r14_const)
            self.emit_exit(0, off + 1, self.reg(14))
            return "end"

        if op == OP_SUBSPI or op == OP_ADDSPI:
            name = self.reg(13)
            self.wrote(13)
            sign = "-" if op == OP_SUBSPI else "+"
            self.line(0, f"{name} = ({name} {sign} {t[2]}) & 0xFFFFFFFF")
            return None

        if op == OP_CMP64LO:
            self.ensure_cmp(0)
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"ca = (ca << 32) | {a}")
            self.line(0, f"cb = (cb << 32) | {b}")
            self.cmp = ("set", 8, None, None)
            return None

        if op == OP_OUT:
            e, _ = self.rd(t[2])
            self.line(0, f"out_append({e})")
            return None

        if op == OP_NOP:
            return None

        # OP_ERROR: undecodable instruction — raises when (and only when)
        # it actually executes, exactly like both steppers
        self.line(0, f"raise MERR({(t[2] + ' at ' + str(pc))!r})")
        return "end"

    # -- assembly ---------------------------------------------------------

    def render(self):
        out = ["    def _region():",
               f"        BE[{self.region_idx}] += 1"]
        hz = self.code[self.start][1] if self.start < self.n else ()
        # dynamic load-use hazard carried in from the previous region
        if hz:
            out.append("        llr_ = S[2]")
            out.append("        if llr_ != -1:")
            out.append("            S[2] = -1")
            cond = " or ".join(f"llr_ == {r}" for r in hz)
            out.append(f"            if {cond}:")
            out.append(f"                HZ[{self.start}] += 1")
        else:
            out.append("        if S[2] != -1:")
            out.append("            S[2] = -1")
        for indent, text in self.body:
            out.append("        " + "    " * indent + text)
        return out


def _build_image(linked, narrow_rf, spec_mask):
    """Predecode ``linked`` and find its static region entries.

    Translates nothing: regions are emitted and compiled on first entry.
    """
    code, effects = predecode(linked, narrow_rf)
    n = len(code)
    delta = linked.delta
    entry = linked.entry_index

    leaders = set()
    if 0 <= entry < n:
        leaders.add(entry)
    for pc, t in enumerate(code):
        op = t[0]
        if op == OP_B or op == OP_BL:
            if 0 <= t[2] < n:
                leaders.add(t[2])
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif op == OP_BCOND:
            if 0 <= t[3] < n:
                leaders.add(t[3])
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif op == OP_BX:
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif delta and op in SPEC_OPS:
            if pc + delta < n:
                leaders.add(pc + delta)
    return CompiledImage(code, leaders, linked.inst_bytes, delta, spec_mask)


def get_image(linked, narrow_rf, spec_mask) -> CompiledImage:
    """Build (or fetch the cached) image of a linked program."""
    cache = getattr(linked, "_compiled_cache", None)
    if cache is None:
        cache = {}
        linked._compiled_cache = cache
    key = (narrow_rf, spec_mask)
    image = cache.get(key)
    if image is None:
        image = _build_image(linked, narrow_rf, spec_mask)
        cache[key] = image
    return image

