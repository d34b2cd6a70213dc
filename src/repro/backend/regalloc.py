"""Register allocation over SMIR (§3.3.3).

An interval-based allocator that maps virtual registers onto *byte slices*
of the 32-bit register file:

* on the BITSPEC ISA (``ARM_BS``), a 1-byte vreg occupies any free byte cell
  of any allocatable register — up to four packed variables per register;
* on the baseline ARM and Thumb ISAs, every value reserves a whole register
  (the paper's "registers can only be accessed at 32 bits");
* liveness uses the SMIR predecessor rule (Eq. 2): every block of a
  speculative region feeds its handler, so values the handler extends stay
  live (and unclobbered) across the entire region;
* the RQ5 handler-weight heuristic is modeled as allocation priority:
  by default CFG_spec intervals allocate first (handlers presumed cold),
  ``invert_handler_weights=True`` allocates CFG_orig first.

Spilled intervals use spill-everywhere rewriting through two reserved
scratch registers; because speculative-region blocks reload immediately
before each use, the spill-at-top-of-MBB constraint of §3.3.3 holds by
construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from repro.backend.mir import (
    ALLOCATABLE,
    ARG_REGS,
    CALLEE_SAVED,
    FrameSlot,
    Imm,
    LR,
    MachineBlock,
    MachineFunction,
    MachineInst,
    SCRATCH0,
    SCRATCH1,
    Slice,
    THUMB_ALLOCATABLE,
    VReg,
)


class RegAllocError(Exception):
    """Allocation could not proceed (e.g. too many spilled operands)."""


@dataclass(frozen=True)
class StackArg:
    """Incoming stack argument ``index`` (0-based beyond the 4 register args)."""

    index: int

    def __repr__(self) -> str:
        return f"stackarg{self.index}"


@dataclass
class Interval:
    """A live range as a sorted list of disjoint [start, end] segments.

    Segment precision matters for SMIR: the Eq. 8 merge values (one phi per
    live variable per handled block) are each live only around their own
    block — hull-based ranges would make them all pairwise-conflicting and
    spill CFG_orig wholesale.
    """

    vreg: VReg
    segments: list = field(default_factory=list)
    crosses_call: bool = False
    world: str = "spec"
    location: Optional[object] = None  # Slice or FrameSlot

    @property
    def start(self) -> int:
        return self.segments[0][0] if self.segments else 0

    @property
    def end(self) -> int:
        return self.segments[-1][1] if self.segments else 0

    def add_segment(self, start: int, end: int) -> None:
        """Append/extend; callers add segments in nondecreasing order."""
        if self.segments and start <= self.segments[-1][1] + 1:
            last_start, last_end = self.segments[-1]
            self.segments[-1] = (last_start, max(last_end, end))
        else:
            self.segments.append((start, end))

    def overlaps(self, other: "Interval") -> bool:
        a, b = self.segments, other.segments
        i = j = 0
        while i < len(a) and j < len(b):
            s1, e1 = a[i]
            s2, e2 = b[j]
            if s1 <= e2 and s2 <= e1:
                return True
            if e1 < e2:
                i += 1
            else:
                j += 1
        return False

    def covers(self, position: int) -> bool:
        return any(s <= position <= e for s, e in self.segments)

    @property
    def weight(self) -> int:
        return sum(e - s + 1 for s, e in self.segments)


@dataclass
class AllocationStats:
    """Static allocation outcome (dynamic counts come from simulation)."""

    spilled_vregs: int = 0
    assigned_vregs: int = 0
    spill_stores: int = 0
    spill_loads: int = 0
    copies: int = 0
    frame_bytes: int = 0
    #: "%vN:hint" -> repr of its assigned Slice/FrameSlot (repro.obs)
    assignments: dict = field(default_factory=dict)


def _succs_with_handlers(block: MachineBlock) -> list[MachineBlock]:
    succs = list(block.succs)
    if block.handler is not None:
        succs.append(block.handler)  # Eq. 2
    return succs


def _inst_uses(inst: MachineInst) -> list[VReg]:
    uses = [op for op in inst.uses if isinstance(op, VReg)]
    if inst.opcode == "movcond":
        # Read-modify-write: the previous value survives a false condition.
        uses.extend(op for op in inst.defs if isinstance(op, VReg))
    return uses


def _inst_defs(inst: MachineInst) -> list[VReg]:
    return [op for op in inst.defs if isinstance(op, VReg)]


#: the aligned byte slices of a register a placement can occupy, as
#: (offset, size), and per slice the slices sharing a byte with it
_SLICES = ((0, 4), (0, 2), (2, 2), (0, 1), (1, 1), (2, 1), (3, 1))
_OVERLAPPING = {
    (o, s): tuple(b for b in _SLICES if b[0] < o + s and o < b[0] + b[1])
    for o, s in _SLICES
}


class _SliceUnion:
    """The segments placed on one byte slice of one register.

    Intervals placed on one slice share a byte, so they never overlap in
    time, and their segments, kept sorted, are ordered by start and by end
    at once: a query segment bisects to the first placed segment ending at
    or after its start and walks forward while placed segments start at or
    before its end (the shape of LLVM's ``LiveIntervalUnion``).
    """

    __slots__ = ("ends", "starts", "entries")

    def __init__(self) -> None:
        # parallel lists: a tuple per placed segment would triple the memory
        self.ends: list[int] = []
        self.starts: list[int] = []
        self.entries: list[tuple] = []

    def insert(self, entry: tuple) -> None:
        for start, end in entry[1].segments:
            index = bisect_left(self.ends, end)
            self.ends.insert(index, end)
            self.starts.insert(index, start)
            self.entries.insert(index, entry)

    def remove(self, interval: Interval) -> None:
        for _, end in interval.segments:
            index = bisect_left(self.ends, end)
            del self.ends[index]
            del self.starts[index]
            del self.entries[index]

    def collect(self, segments: list, found: dict) -> None:
        """Add every entry with a segment overlapping ``segments`` to
        ``found``, keyed by placement sequence number."""
        ends, starts = self.ends, self.starts
        count = len(ends)
        index = 0
        for start, end in segments:
            index = bisect_left(ends, start, index)
            while index < count and starts[index] <= end:
                entry = self.entries[index]
                found[entry[0]] = entry
                index += 1
            if index == count:
                return

    def overlaps(self, segments: list) -> bool:
        """Whether any placed segment overlaps ``segments``: the
        :meth:`collect` walk, stopped at its first hit."""
        ends, starts = self.ends, self.starts
        count = len(ends)
        index = 0
        for start, end in segments:
            index = bisect_left(ends, start, index)
            if index == count:
                return False
            if starts[index] <= end:
                return True
        return False


class RegisterAllocator:
    """Allocates one machine function; see module docstring."""

    def __init__(
        self,
        mfunc: MachineFunction,
        *,
        isa: str = "ARM",
        invert_handler_weights: bool = False,
    ) -> None:
        self.mfunc = mfunc
        self.isa = isa
        self.packing = isa == "ARM_BS"
        self.pool = THUMB_ALLOCATABLE if isa == "THUMB" else ALLOCATABLE
        self.invert = invert_handler_weights
        self.stats = AllocationStats()
        #: per (register, offset, size) slice: the segments placed there
        self._unions: dict[tuple[int, int, int], _SliceUnion] = {}
        self._placements = 0
        self.location: dict[VReg, object] = {}
        self.used_callee_saved: set[int] = set()
        self._scratch_used = False

    # -- liveness ------------------------------------------------------------

    def _block_liveness(self):
        blocks = self.mfunc.blocks
        gen: dict[MachineBlock, set] = {}
        kill: dict[MachineBlock, set] = {}
        for block in blocks:
            g: set = set()
            k: set = set()
            for inst in block.insts:
                for v in _inst_uses(inst):
                    if v not in k:
                        g.add(v)
                for v in _inst_defs(inst):
                    k.add(v)
            gen[block] = g
            kill[block] = k
        live_in = {b: set() for b in blocks}
        live_out = {b: set() for b in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                out: set = set()
                for succ in _succs_with_handlers(block):
                    out |= live_in[succ]
                new_in = gen[block] | (out - kill[block])
                if out != live_out[block] or new_in != live_in[block]:
                    live_out[block] = out
                    live_in[block] = new_in
                    changed = True
        return live_in, live_out

    def _allocation_order(self) -> list[MachineBlock]:
        """Block order for interval construction.

        Each region's handler is placed immediately after the region's spec
        block: a value the handler needs is live from its spec-world
        definition *to that point only*, instead of stretching across every
        later region.  CFG_orig trails at the end, competing only through
        the values that genuinely flow into it (the Eq. 8 phi merges).
        """
        handler_after: dict[int, MachineBlock] = {}
        for block in self.mfunc.blocks:
            if block.handler is not None:
                handler_after[id(block)] = block.handler
        ordered: list[MachineBlock] = []
        placed: set[int] = set()
        for block in self.mfunc.blocks:
            if block.is_handler or block.world == "orig":
                continue
            ordered.append(block)
            placed.add(id(block))
            handler = handler_after.get(id(block))
            if handler is not None and id(handler) not in placed:
                ordered.append(handler)
                placed.add(id(handler))
        for block in self.mfunc.blocks:
            if block.is_handler and id(block) not in placed:
                ordered.append(block)
                placed.add(id(block))
        for block in self.mfunc.blocks:
            if id(block) not in placed:
                ordered.append(block)
        return ordered

    def _build_intervals(self):
        live_in, live_out = self._block_liveness()
        intervals: dict[VReg, Interval] = {}
        call_positions: list[int] = []
        position = 0

        def interval_of(vreg: VReg) -> Interval:
            interval = intervals.get(vreg)
            if interval is None:
                interval = Interval(vreg)
                intervals[vreg] = interval
            return interval

        for block in self._allocation_order():
            block_start = position
            block_end = block_start + max(len(block.insts), 1)
            # Per-block live segment per vreg: [entry-or-first-touch,
            # exit-or-last-touch].
            seg_start: dict[VReg, int] = {}
            seg_end: dict[VReg, int] = {}
            for v in live_in[block]:
                seg_start[v] = block_start
            pos = block_start
            for inst in block.insts:
                if inst.opcode == "call":
                    call_positions.append(pos)
                for v in _inst_uses(inst):
                    seg_start.setdefault(v, pos)
                    seg_end[v] = pos
                for v in _inst_defs(inst):
                    seg_start.setdefault(v, pos)
                    seg_end[v] = pos
                pos += 1
            for v in live_out[block]:
                seg_start.setdefault(v, block_start)
                seg_end[v] = block_end
            for v, start in seg_start.items():
                interval_of(v).add_segment(start, seg_end.get(v, start))
            position = block_end

        # World classification for RQ5 priority: values touched only by
        # recovery code (CFG_orig and handlers) are cold — they execute only
        # after a misspeculation.  The paper's artificially-low handler
        # branch weights deprioritize exactly these.
        world_by_vreg: dict[VReg, set] = {}
        for block in self.mfunc.blocks:
            world = "orig" if block.is_handler else block.world
            for inst in block.insts:
                for v in inst.vregs():
                    world_by_vreg.setdefault(v, set()).add(world)
        for vreg, interval in intervals.items():
            worlds = world_by_vreg.get(vreg, {"spec"})
            interval.world = "orig" if worlds <= {"orig"} else "spec"
        for interval in intervals.values():
            # Live across a call at position p: a segment covering p that
            # extends past it.  A segment *ending* at p is only the call's
            # argument use; one merely starting at p (the call's own result)
            # is flagged conservatively — it is defined after the clobber.
            interval.crosses_call = any(
                any(s <= pos < e for s, e in interval.segments)
                for pos in call_positions
            )
        return list(intervals.values())

    # -- assignment -----------------------------------------------------------

    def _conflicts(self, reg: int, offset: int, size: int, interval: Interval):
        """Placements overlapping bytes [offset, offset+size) of ``reg``
        during ``interval``, as (seq, interval, offset, size) entries in
        placement order."""
        found: dict[int, tuple] = {}
        for slice_offset, slice_size in _OVERLAPPING[offset, size]:
            union = self._unions.get((reg, slice_offset, slice_size))
            if union is not None:
                union.collect(interval.segments, found)
        return [found[seq] for seq in sorted(found)]

    def _overlaps(self, reg: int, offset: int, size: int, interval: Interval) -> bool:
        """Whether :meth:`_conflicts` would return anything."""
        for slice_offset, slice_size in _OVERLAPPING[offset, size]:
            union = self._unions.get((reg, slice_offset, slice_size))
            if union is not None and union.overlaps(interval.segments):
                return True
        return False

    def _candidate_regs(self, interval: Interval) -> list[int]:
        candidates = list(self.pool)
        if interval.crosses_call:
            candidates = [r for r in candidates if r in CALLEE_SAVED]
        else:
            # Prefer caller-saved so callee-saved stay free for call-crossers.
            candidates.sort(key=lambda r: (r in CALLEE_SAVED, r))
        return candidates

    def _place(self, interval: Interval, reg: int, offset: int, size: int) -> None:
        entry = (self._placements, interval, offset, size)
        self._placements += 1
        union = self._unions.get((reg, offset, size))
        if union is None:
            union = self._unions[reg, offset, size] = _SliceUnion()
        union.insert(entry)
        interval.location = Slice(reg, offset, interval.vreg.size)
        if reg in CALLEE_SAVED:
            self.used_callee_saved.add(reg)
        self.location[interval.vreg] = interval.location
        self.stats.assigned_vregs += 1

    def _evict(self, reg: int, entry: tuple) -> None:
        """Take a ``_conflicts`` entry off ``reg`` and spill its interval."""
        _, interval, offset, size = entry
        self._unions[reg, offset, size].remove(interval)
        self._spill(interval)

    def _spill(self, interval: Interval) -> None:
        interval.location = self.mfunc.new_slot(max(interval.vreg.size, 4))
        self.location[interval.vreg] = interval.location
        self.stats.spilled_vregs += 1

    def _try_assign(self, interval: Interval) -> bool:
        size = interval.vreg.size if self.packing else 4
        for reg in self._candidate_regs(interval):
            offsets = range(0, 5 - size, size) if size < 4 else (0,)
            for offset in offsets:
                if not self._overlaps(reg, offset, size, interval):
                    self._place(interval, reg, offset, size)
                    return True
        return False

    def _try_evict(self, interval: Interval) -> bool:
        """Furthest-end heuristic: displace strictly longer-lived intervals.

        Cold (CFG_orig) intervals never evict hot ones.
        """
        size = interval.vreg.size if self.packing else 4
        best = None
        for reg in self._candidate_regs(interval):
            offsets = range(0, 5 - size, size) if size < 4 else (0,)
            for offset in offsets:
                conflicts = self._conflicts(reg, offset, size, interval)
                if not conflicts:
                    continue  # handled by _try_assign
                cold_world = "spec" if self.invert else "orig"
                evictable = all(
                    other.end > interval.end
                    and not (
                        interval.world == cold_world
                        and other.world != cold_world
                    )
                    and not (other.crosses_call and not interval.crosses_call)
                    for _, other, _, _ in conflicts
                )
                if not evictable:
                    continue
                cost = sum(other.weight for _, other, _, _ in conflicts)
                if best is None or cost < best[0]:
                    best = (cost, reg, offset, conflicts)
        if best is None:
            return False
        _, reg, offset, conflicts = best
        for entry in conflicts:
            self._evict(reg, entry)
        self._place(interval, reg, offset, size)
        return True

    def allocate(self) -> None:
        intervals = self._build_intervals()
        if self.invert:
            intervals.sort(key=lambda i: (i.world != "orig", i.start, i.vreg.id))
        else:
            intervals.sort(key=lambda i: (i.world == "orig", i.start, i.vreg.id))
        for interval in intervals:
            if self._try_assign(interval):
                continue
            if self._try_evict(interval):
                continue
            self._spill(interval)

    # -- rewriting --------------------------------------------------------------

    def _loc(self, vreg: VReg):
        loc = self.location.get(vreg)
        if loc is None:
            # Dead vreg (defined, never used, not live anywhere): park it in
            # the first scratch register.
            loc = Slice(SCRATCH0, 0, vreg.size)
            self.location[vreg] = loc
        return loc

    def rewrite(self) -> None:
        self._expand_params()
        self._expand_calls_and_rets()
        self._rewrite_spills()

    def _expand_params(self) -> None:
        entry = self.mfunc.blocks[0]
        new_insts: list[MachineInst] = []
        moves: list[tuple[object, object]] = []
        stack_loads: list[MachineInst] = []
        max_slot = -1
        for inst in entry.insts:
            if inst.opcode != "param":
                continue
            slot_index = inst.uses[0].value
            max_slot = max(max_slot, slot_index)
            dest = self._loc(inst.defs[0])
            if slot_index < len(ARG_REGS):
                moves.append((dest, Slice(ARG_REGS[slot_index], 0, 4)))
            elif isinstance(dest, FrameSlot):
                scratch = Slice(SCRATCH0, 0, 4)
                stack_loads.append(
                    MachineInst(
                        "ldr",
                        [scratch],
                        [StackArg(slot_index - len(ARG_REGS)), Imm(0)],
                        width=4,
                    )
                )
                stack_loads.append(
                    MachineInst(
                        "str", uses=[scratch, dest, Imm(0)], width=4, kind="spill"
                    )
                )
            else:
                stack_loads.append(
                    MachineInst(
                        "ldr",
                        [dest],
                        [StackArg(slot_index - len(ARG_REGS)), Imm(0)],
                        width=4,
                    )
                )
        self.mfunc.incoming_stack_bytes = max(0, (max_slot + 1 - len(ARG_REGS)) * 4)
        new_insts.extend(_sequence_moves(moves))
        new_insts.extend(stack_loads)
        entry.insts = new_insts + [i for i in entry.insts if i.opcode != "param"]

    def _expand_calls_and_rets(self) -> None:
        for block in self.mfunc.blocks:
            out: list[MachineInst] = []
            for inst in block.insts:
                if inst.opcode == "call":
                    out.extend(self._expand_call(inst))
                elif inst.opcode == "ret":
                    moves = []
                    for i, v in enumerate(inst.uses):
                        if isinstance(v, VReg):
                            moves.append((Slice(i, 0, 4), self._loc(v)))
                    out.extend(_sequence_moves(moves))
                    out.append(MachineInst("epilogue"))
                    out.append(MachineInst("bx"))
                else:
                    out.append(inst)
            block.insts = out

    def _expand_call(self, inst: MachineInst) -> list[MachineInst]:
        out: list[MachineInst] = []
        moves = []
        stack_stores = []
        outgoing = 0
        for index, arg in enumerate(inst.uses):
            src = self._loc(arg) if isinstance(arg, VReg) else arg
            if index < len(ARG_REGS):
                moves.append((Slice(ARG_REGS[index], 0, 4), src))
            else:
                offset = (index - len(ARG_REGS)) * 4
                outgoing = max(outgoing, offset + 4)
                if isinstance(src, FrameSlot):
                    out_reg = Slice(SCRATCH0, 0, 4)
                    stack_stores.append(
                        MachineInst("ldr", [out_reg], [src, Imm(0)], width=4, kind="reload")
                    )
                    src = out_reg
                stack_stores.append(
                    MachineInst("str", uses=[src, FrameSlot(-1, 4), Imm(offset)], width=4)
                )
        self.mfunc.outgoing_bytes = max(
            getattr(self.mfunc, "outgoing_bytes", 0), outgoing
        )
        out.extend(stack_stores)
        out.extend(_sequence_moves(moves))
        call = MachineInst("bl", target=inst.target)
        out.append(call)
        for i, d in enumerate(inst.defs):
            if isinstance(d, VReg):
                dest = self._loc(d)
                out.extend(_sequence_moves([(dest, Slice(i, 0, 4))]))
        return out

    def _rewrite_spills(self) -> None:
        scratches = (SCRATCH0, SCRATCH1)
        for block in self.mfunc.blocks:
            out: list[MachineInst] = []
            for inst in block.insts:
                # Debug metadata: the vreg hint (IR value name) is about
                # to be erased by the Slice rewrite — pin it on the inst
                # so Δ-layout can emit per-pc variable provenance.
                if not inst.comment:
                    for d in inst.defs:
                        if isinstance(d, VReg) and d.hint:
                            inst.comment = d.hint
                            break
                reloads: list[MachineInst] = []
                stores: list[MachineInst] = []
                scratch_index = 0
                reload_map: dict[VReg, Slice] = {}

                def resolve_use(v):
                    nonlocal scratch_index
                    if not isinstance(v, VReg):
                        return v
                    loc = self._loc(v)
                    if isinstance(loc, Slice):
                        return loc
                    if v in reload_map:
                        return reload_map[v]
                    if scratch_index >= len(scratches):
                        raise RegAllocError(
                            f"{self.mfunc.name}: >2 spilled uses in {inst!r}"
                        )
                    scratch = Slice(scratches[scratch_index], 0, v.size)
                    scratch_index += 1
                    self._scratch_used = True
                    reloads.append(
                        MachineInst(
                            "ldr", [scratch], [loc, Imm(0)], width=4, kind="reload"
                        )
                    )
                    reload_map[v] = scratch
                    return scratch

                inst.uses = [resolve_use(u) for u in inst.uses]
                new_defs = []
                def_scratches = [SCRATCH0, SCRATCH1]
                for d in inst.defs:
                    if not isinstance(d, VReg):
                        new_defs.append(d)
                        continue
                    loc = self._loc(d)
                    if isinstance(loc, Slice):
                        new_defs.append(loc)
                        continue
                    if inst.opcode == "movcond":
                        # RMW: reload current value into the scratch first.
                        current = reload_map.get(d)
                        if current is None:
                            scratch = Slice(SCRATCH0, 0, d.size)
                            reloads.append(
                                MachineInst(
                                    "ldr", [scratch], [loc, Imm(0)], width=4,
                                    kind="reload",
                                )
                            )
                            current = scratch
                        new_defs.append(current)
                        stores.append(
                            MachineInst(
                                "str", uses=[current, loc, Imm(0)], width=4,
                                kind="spill",
                            )
                        )
                        self._scratch_used = True
                        continue
                    scratch = Slice(def_scratches.pop(0), 0, d.size)
                    self._scratch_used = True
                    new_defs.append(scratch)
                    stores.append(
                        MachineInst(
                            "str", uses=[scratch, loc, Imm(0)], width=4, kind="spill"
                        )
                    )
                inst.defs = new_defs
                out.extend(reloads)
                out.append(inst)
                out.extend(stores)
                self.stats.spill_loads += len(reloads)
                self.stats.spill_stores += len(stores)
            block.insts = out

    # -- coalescing-lite: drop moves that ended up location-identical -----------

    def cleanup_moves(self) -> None:
        for block in self.mfunc.blocks:
            kept = []
            for inst in block.insts:
                if (
                    inst.opcode == "mov"
                    and inst.kind == "copy"
                    and inst.defs
                    and inst.uses
                    and inst.defs[0] == inst.uses[0]
                ):
                    continue
                if inst.opcode == "mov" and inst.kind == "copy":
                    self.stats.copies += 1
                kept.append(inst)
            block.insts = kept

    def run(self) -> AllocationStats:
        self.allocate()
        self.rewrite()
        self.cleanup_moves()
        finalize_frame(self.mfunc, self.used_callee_saved, self._scratch_used)
        self.stats.frame_bytes = self.mfunc.frame_bytes
        self.stats.assignments = {
            (f"%v{v.id}:{v.hint}" if v.hint else f"%v{v.id}"): repr(loc)
            for v, loc in sorted(
                self.location.items(), key=lambda kv: kv[0].id
            )
        }
        from repro.passes import stats as pass_stats

        pass_stats.bump("regalloc", "vregs_assigned", self.stats.assigned_vregs)
        pass_stats.bump("regalloc", "vregs_spilled", self.stats.spilled_vregs)
        pass_stats.bump("regalloc", "spill_stores", self.stats.spill_stores)
        pass_stats.bump("regalloc", "spill_loads", self.stats.spill_loads)
        pass_stats.bump("regalloc", "copies", self.stats.copies)
        return self.stats


def _sequence_moves(moves: list[tuple[object, object]]) -> list[MachineInst]:
    """Sequentialize parallel moves (dest, src), breaking cycles via scratch.

    Locations are Slices (or FrameSlots for spilled sources/dests).
    """
    pending = [
        (d, s)
        for d, s in moves
        if not (isinstance(d, Slice) and isinstance(s, Slice) and d == s)
    ]
    out: list[MachineInst] = []

    def emit_move(dest, src):
        if isinstance(src, FrameSlot) and isinstance(dest, FrameSlot):
            scratch = Slice(SCRATCH0, 0, 4)
            out.append(MachineInst("ldr", [scratch], [src, Imm(0)], width=4, kind="reload"))
            out.append(MachineInst("str", uses=[scratch, dest, Imm(0)], width=4, kind="spill"))
        elif isinstance(src, FrameSlot):
            out.append(MachineInst("ldr", [dest], [src, Imm(0)], width=4, kind="reload"))
        elif isinstance(dest, FrameSlot):
            out.append(MachineInst("str", uses=[src, dest, Imm(0)], width=4, kind="spill"))
        else:
            width = min(getattr(dest, "size", 4), 4)
            out.append(MachineInst("mov", [dest], [src], width=width, kind="copy"))

    def reg_of(loc):
        return loc.reg if isinstance(loc, Slice) else None

    while pending:
        progressed = False
        for i, (dest, src) in enumerate(pending):
            dest_reg = reg_of(dest)
            blocked = any(
                reg_of(other_src) == dest_reg and dest_reg is not None
                for j, (_, other_src) in enumerate(pending)
                if j != i
            )
            if not blocked:
                emit_move(dest, src)
                pending.pop(i)
                progressed = True
                break
        if not progressed:
            # Cycle: rotate through the scratch register.
            dest, src = pending.pop(0)
            scratch = Slice(SCRATCH0, 0, getattr(src, "size", 4))
            emit_move(scratch, src)
            pending.append((dest, scratch))
    return out


def finalize_frame(
    mfunc: MachineFunction, used_callee_saved: set, scratch_used: bool
) -> None:
    """Lay out the frame and expand prologue/epilogue + slot operands.

    Frame (low to high): [outgoing args][slots][saved regs + lr].
    """
    outgoing = getattr(mfunc, "outgoing_bytes", 0)
    offset = outgoing
    slot_offsets: dict[int, int] = {}
    for slot in mfunc.frame_slots:
        size = max(slot.size, 4)
        offset = (offset + 3) & ~3
        slot_offsets[slot.index] = offset
        offset += size
    saved = sorted(used_callee_saved)
    if scratch_used and SCRATCH1 in CALLEE_SAVED:
        pass  # r11 is outside CALLEE_SAVED in our model; nothing to save
    save_lr = mfunc.uses_calls
    saved_area = (len(saved) + (1 if save_lr else 0)) * 4
    offset = (offset + 3) & ~3
    saved_base = offset
    frame = offset + saved_area
    frame = (frame + 7) & ~7
    mfunc.frame_bytes = frame

    def resolve_uses(inst: MachineInst) -> None:
        """Rewrite FrameSlot/StackArg operands into ["sp", Imm(offset)],
        folding a following displacement Imm into the offset."""
        out_ops: list = []
        i = 0
        uses = inst.uses
        while i < len(uses):
            op = uses[i]
            if isinstance(op, (FrameSlot, StackArg)):
                if isinstance(op, StackArg):
                    base_off = frame + op.index * 4
                else:
                    base_off = 0 if op.index == -1 else slot_offsets[op.index]
                disp = 0
                if i + 1 < len(uses) and isinstance(uses[i + 1], Imm):
                    disp = uses[i + 1].value
                    i += 1
                out_ops.append("sp")
                out_ops.append(Imm(base_off + disp))
            else:
                out_ops.append(op)
            i += 1
        inst.uses = out_ops

    for block in mfunc.blocks:
        out: list[MachineInst] = []
        for inst in block.insts:
            if inst.opcode == "epilogue":
                base = saved_base
                for reg in saved:
                    out.append(
                        MachineInst(
                            "ldr", [Slice(reg, 0, 4)], ["sp", Imm(base)], width=4
                        )
                    )
                    base += 4
                if save_lr:
                    out.append(
                        MachineInst("ldr", [Slice(LR, 0, 4)], ["sp", Imm(base)], width=4)
                    )
                if frame:
                    out.append(MachineInst("addspi", uses=[Imm(frame)]))
                continue
            resolve_uses(inst)
            if inst.opcode == "addsp":
                # Alloca address: vd = sp + offset.
                inst.opcode = "add"
            out.append(inst)
        block.insts = out

    # Prologue at entry.
    prologue: list[MachineInst] = []
    if frame:
        prologue.append(MachineInst("subspi", uses=[Imm(frame)]))
    base = saved_base
    for reg in saved:
        prologue.append(
            MachineInst("str", uses=[Slice(reg, 0, 4), "sp", Imm(base)], width=4)
        )
        base += 4
    if save_lr:
        prologue.append(MachineInst("str", uses=[Slice(LR, 0, 4), "sp", Imm(base)], width=4))
    entry = mfunc.blocks[0]
    entry.insts = prologue + entry.insts
