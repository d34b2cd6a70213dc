"""The compile path's indexes against the scans they replace.

``RegisterAllocator._conflicts`` (and its early-exit twin ``_overlaps``)
answers from per-(register, byte slice) segment lists; ``predecessor_map`` builds every block's predecessors in one
pass.  Each is checked here against a brute-force scan that lives only in
this file.
"""

import random

import pytest

from repro.backend.mir import MachineFunction, VReg
from repro.backend.regalloc import Interval, RegisterAllocator
from repro.core.pipeline import PRESETS, compile_binary
from repro.ir import I32, Function, IRBuilder
from repro.ir.cfg import predecessor_map
from repro.sir import sir_predecessor_map, sir_predecessors
from repro.workloads import get_workload

ROSTER = ("crc32", "fft", "dijkstra", "sha", "susan-edges")


# -- regalloc conflicts --------------------------------------------------------


def _random_interval(rng: random.Random, vreg_id: int, size: int) -> Interval:
    interval = Interval(VReg(vreg_id, size))
    position = rng.randrange(300)
    for _ in range(rng.randint(1, 5)):
        start = position + rng.randint(0, 25)
        end = start + rng.randint(0, 15)
        interval.add_segment(start, end)
        position = end + 1
    return interval


def _scan_conflicts(placed, reg, offset, size, interval):
    """Every placement on ``reg`` sharing a byte and a position, in
    placement order."""
    return [
        entry
        for entry_reg, entry in placed
        if entry_reg == reg
        and entry[2] < offset + size
        and offset < entry[2] + entry[3]
        and any(
            s1 <= e2 and s2 <= e1
            for s1, e1 in entry[1].segments
            for s2, e2 in interval.segments
        )
    ]


def _key(entries):
    return [(seq, id(interval), offset, size) for seq, interval, offset, size in entries]


@pytest.mark.parametrize("isa", ["ARM_BS", "ARM", "THUMB"])
@pytest.mark.parametrize("seed", range(4))
def test_conflicts_match_a_brute_force_scan(isa, seed):
    rng = random.Random(seed)
    alloc = RegisterAllocator(MachineFunction("f"), isa=isa)
    placed = []  # (reg, entry) in placement order, evictions removed
    placements = evictions = 0
    for vreg_id in range(400):
        interval = _random_interval(rng, vreg_id, rng.choice((1, 2, 4)))
        size = interval.vreg.size if alloc.packing else 4
        offsets = range(0, 5 - size, size) if size < 4 else (0,)
        reg, offset = rng.choice(alloc.pool), rng.choice(offsets)
        got = alloc._conflicts(reg, offset, size, interval)
        assert _key(got) == _key(_scan_conflicts(placed, reg, offset, size, interval))
        assert alloc._overlaps(reg, offset, size, interval) == bool(got)
        if got and rng.random() < 0.5:
            for entry in got:
                alloc._evict(reg, entry)
                placed.remove((reg, entry))
                evictions += 1
            got = alloc._conflicts(reg, offset, size, interval)
            assert _key(got) == _key(_scan_conflicts(placed, reg, offset, size, interval))
            assert not alloc._overlaps(reg, offset, size, interval)
        if not got:
            alloc._place(interval, reg, offset, size)
            placed.append((reg, (placements, interval, offset, size)))
            placements += 1
    assert placements > 100 and evictions > 20


# -- predecessor map -----------------------------------------------------------


def _assert_map_matches_scan(func):
    preds = predecessor_map(func)
    assert list(preds) == func.blocks
    for block in func.blocks:
        assert preds[block] == [b for b in func.blocks if block in b.successors()]
    sir = sir_predecessor_map(preds)
    for block in func.blocks:
        assert sir[block] == sir_predecessors(block)


@pytest.mark.parametrize("workload", ROSTER)
def test_predecessor_map_matches_scan_on_roster(workload):
    checked = []

    def hook(stage, module):
        if stage in ("cfg-prep", "squeeze"):
            for func in module.functions.values():
                _assert_map_matches_scan(func)
            handlers = sum(
                block.is_handler
                for func in module.functions.values()
                for block in func.blocks
            )
            checked.append((stage, handlers > 0))

    program = get_workload(workload)
    compile_binary(
        program.source,
        PRESETS["bitspec-max"](),
        profile_inputs=program.inputs("test", 0),
        name=workload,
        stage_hook=hook,
    )
    assert checked == [("cfg-prep", False), ("squeeze", True)]


def test_condbr_with_one_target_gives_one_entry():
    func = Function("f", I32, [("x", I32)])
    entry = func.add_block("entry")
    join = func.add_block("join")
    builder = IRBuilder(entry)
    cond = builder.icmp("ult", func.args[0], builder.const(10))
    builder.condbr(cond, join, join)
    builder.set_block(join)
    builder.ret(func.args[0])
    assert predecessor_map(func) == {entry: [], join: [entry]}
    assert join.predecessors() == [entry]
