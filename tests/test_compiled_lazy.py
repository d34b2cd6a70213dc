"""The translated tier: lazy, per-region, and holding no run state.

:func:`repro.arch.compiled._build_image` only predecodes the program and
finds its static region entries; the stepper translates a region once
the program's runs have entered it often enough (here mostly on first
entry, at threshold 0).  The image on the :class:`LinkedProgram` keeps
code and entry counts only: every run binds it to state of its own in a
:class:`repro.arch.compiled.Tier`.  These tests pin the properties that
design rests on: a run translates exactly the regions it enters hot and
a warm run translates nothing; entry counts go on across runs, per
threshold;
runs under any geometry share the one image, whose region indices every
later run's counters cover; a transfer that finds no region entry falls
back to the stepper for that stretch only, bit-identically; a small
threshold hands control between the tiers both ways; nothing a run
allocated outlives it; and the generated source stays byte for byte what
it was.
"""

import gc
import hashlib
import re
import sys
from array import array
from types import CodeType, ModuleType

import pytest

from repro.arch import compiled, predecode
from repro.arch.cache import CacheGeometry
from repro.arch.machine import HALT, Machine
from repro.arch.widths import slice_mask
from repro.core.pipeline import CompilerConfig, set_global_inputs
from repro.eval.harness import get_binary
from repro.workloads import get_workload

from test_machine_predecode import assert_sims_identical

WORKLOAD = "susan-edges"

#: a second cache geometry; its runs share the one image
SMALL_L1 = CacheGeometry(l1_kb=4, l1_ways=2)

_EXIT_NAME = re.compile(r"_b\d+$")


@pytest.fixture
def binary(monkeypatch):
    """The shared susan-edges binary with its compiled image dropped,
    run at threshold 0 unless a test patches another.

    ``get_binary`` hands every test the same linked program, which caches
    its compiled image; monkeypatch restores that cache afterwards.
    """
    binary = get_binary(WORKLOAD, CompilerConfig.bitspec("max"))
    monkeypatch.delattr(binary.linked, "_compiled_cache", raising=False)
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
    return binary


@pytest.fixture
def tiers(monkeypatch):
    """Every :class:`Tier` a run builds, kept past its run."""
    built = []

    class Recording(compiled.Tier):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(compiled, "Tier", Recording)
    return built


def _machine(binary, seed, engine="fast", geometry=None, obs=False):
    set_global_inputs(binary.module, get_workload(WORKLOAD).inputs("test", seed))
    return Machine(binary.linked, binary.module, engine=engine,
                   geometry=geometry, obs=obs)


def _stepped(binary, seed, monkeypatch, geometry=None, obs=False):
    with monkeypatch.context() as patch:
        patch.setattr(predecode, "TRANSLATE_AFTER", None)
        return _machine(binary, seed, "fast", geometry, obs).run()


def _image(machine):
    return compiled.get_image(machine.linked, machine.narrow_rf,
                              slice_mask(machine.slice_width))


def _exit_names(code):
    """Every ``_b<pc>`` global a region's factory code object loads."""
    names = {n for n in code.co_names if _EXIT_NAME.match(n)}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _exit_names(const)
    return names


def _counting_compile(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile(*args, **kwargs)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    return calls


def test_translates_only_entered_regions(binary, monkeypatch, tiers):
    machine = _machine(binary, 0)
    first = machine.run()
    image = _image(machine)
    (tier,) = tiers

    entered = {pcs[0] for idx, pcs, _hz, _sites in image.fold_regions
               if tier.entries[idx]}
    assert set(image.regions) == entered
    static = compiled._build_image(machine.linked, machine.narrow_rf,
                                   slice_mask(machine.slice_width)).leaders
    assert 0 < len(image.regions) < len(static)

    # a run's namespace gets an entry for every exit target a region
    # records, so the recorded targets must cover what the code loads
    for leader, (code, targets) in image.regions.items():
        recorded = {name for name, _pc in targets} | {f"_b{leader}"}
        assert _exit_names(code) <= recorded, leader

    calls = _counting_compile(monkeypatch)
    second = _machine(binary, 0).run()
    assert calls == []
    assert_sims_identical(second, first, f"{WORKLOAD}/warm")
    assert_sims_identical(second, _stepped(binary, 0, monkeypatch),
                          f"{WORKLOAD}/warm-vs-stepped")


def test_geometries_share_one_runtime(binary, monkeypatch, tiers):
    # seed 2 enters a strict subset of seed 0's regions, so the small-L1
    # run translates regions the first run never entered.  The fold then
    # visits them before (seed 2 again) and after (seed 1) a run enters
    # them, with each run's counters sized to the image's indices
    plan = ((None, 2, False), (SMALL_L1, 0, False), (None, 2, False),
            (None, 1, True))
    calls = _counting_compile(monkeypatch)
    translated = []
    images = []
    for geometry, seed, obs in plan:
        machine = _machine(binary, seed, geometry=geometry, obs=obs)
        sim = machine.run()
        ref = _stepped(binary, seed, monkeypatch, geometry, obs)
        label = f"{WORKLOAD}/seed{seed}/{geometry}"
        assert_sims_identical(sim, ref, label)
        image = _image(machine)
        translated.append(len(image.regions))
        images.append(image)
        tier = tiers[-1]
        assert len(tier.entries) == image.n_regions, label
        assert len(tier.exits) == image.n_sites, label
        if obs:
            from repro.obs.attribution import attribute, check_conservation

            assert check_conservation(attribute(binary.linked, sim.obs), sim) == []

    assert translated[0] < translated[1]
    assert len(calls) == translated[-1] == translated[1]
    assert all(seen is image for seen in images)
    # every run bound the image to counters of its own
    assert len({id(t.entries) for t in tiers}) == len(plan)
    # the last run entered the regions the small-L1 run translated,
    # counting them in the slots sized for them
    assert all(tiers[-1].entries[translated[0]:translated[1]])


def test_missing_region_entry_falls_back_per_region(binary, monkeypatch,
                                                    tiers):
    machine = _machine(binary, 0)
    machine.run()
    reached = list(_image(machine).regions)  # translation = first-entry order
    dropped = reached[1]

    # a fresh image without that entry: transfers to it return the integer
    # pc, which no region starts at, so the stepper runs from there until
    # the next transfer into a hot region
    monkeypatch.delattr(binary.linked, "_compiled_cache")
    machine = _machine(binary, 0)
    full = _image(machine)
    binary.linked._compiled_cache[
        (machine.narrow_rf, slice_mask(machine.slice_width))
    ] = compiled.CompiledImage(full.code, full.leaders - {dropped},
                               full.inst_bytes, full.delta, full.spec_mask)
    runs = []
    run_fast = predecode.run_fast

    def counting_run_fast(m, *args, **kwargs):
        runs.append(m)
        return run_fast(m, *args, **kwargs)

    handed_back = []
    tier_run = compiled.Tier.run

    def recording_run(self, pc, limit):
        nxt = tier_run(self, pc, limit)
        handed_back.append(nxt)
        return nxt

    monkeypatch.setattr(predecode, "run_fast", counting_run_fast)
    monkeypatch.setattr(compiled.Tier, "run", recording_run)
    sim = machine.run()
    # one run, no whole-run replay: the stepper took over at the dropped
    # entry and handed control back to translated code afterwards
    assert runs == [machine]
    assert dropped in handed_back
    assert len(handed_back) > handed_back.index(dropped) + 1
    assert dropped not in _image(machine).regions
    assert_sims_identical(sim, _stepped(binary, 0, monkeypatch),
                          f"{WORKLOAD}/fallback")


def test_small_threshold_hands_off_both_ways(binary, monkeypatch, tiers):
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 2)
    handed_back = []
    tier_run = compiled.Tier.run

    def recording_run(self, pc, limit):
        nxt = tier_run(self, pc, limit)
        handed_back.append(nxt)
        return nxt

    monkeypatch.setattr(compiled.Tier, "run", recording_run)
    sim = _machine(binary, 0, obs=True).run()
    # translated code ran, returned cold pcs to the stepper mid-run, and
    # the stepper entered translated code again after each
    cold = [pc for pc in handed_back[:-1] if pc != HALT]
    assert len(cold) > 2
    ref = _stepped(binary, 0, monkeypatch, obs=True)
    assert_sims_identical(sim, ref, f"{WORKLOAD}/T2")
    assert sim.obs == ref.obs


def test_entry_counts_go_on_across_runs(binary, monkeypatch):
    """A region entered too rarely in one run to be translated is
    translated by a repeat of the same run, from the count the first
    run left on the image; a run at another threshold counts apart."""
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 64)
    machine = _machine(binary, 0)
    first = machine.run()
    image = _image(machine)
    budget = image.budgets[64]
    # entered, but fewer than 64 times
    warm = {pc: budget[pc] for pc in image.leaders - set(image.regions)
            if 0 < budget[pc] < 64}
    assert warm
    for rerun in range(1, 9):
        sim = _machine(binary, 0).run()
        assert_sims_identical(sim, first, f"{WORKLOAD}/rerun{rerun}")
        if rerun == 1:
            assert any(budget[pc] < left for pc, left in warm.items())
        if set(warm) & set(image.regions):
            break
    assert set(warm) & set(image.regions)

    counts = {pc: budget[pc] for pc in image.leaders}
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 2)
    _machine(binary, 0).run()
    assert sorted(image.budgets) == [2, 64]
    assert {pc: budget[pc] for pc in counts} == counts


def _large_buffers(root, limit=1 << 20):
    """(type, size) of every buffer of ``limit`` bytes or more reachable
    from ``root``, not following modules, classes or functions' globals."""
    seen = set()
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (ModuleType, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray, array, list, memoryview)):
            size = sys.getsizeof(obj)
            if size >= limit:
                found.append((type(obj).__name__, size))
        stack.extend(r for r in gc.get_referents(obj)
                     if not (isinstance(r, dict) and "__name__" in r
                             and "__builtins__" in r))
    return found


@pytest.mark.parametrize("after", (2, 0))
def test_program_keeps_no_run_state(binary, monkeypatch, after):
    """Only code and entry counts persist on the program: after a run,
    nothing reachable from the LinkedProgram holds a buffer of 1 MiB or
    more (a run's flat memory is 4 MiB), and the run's state is freed as
    soon as its result is dropped, with no reference cycle left for the
    garbage collector."""
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", after)
    machine = _machine(binary, 0)
    gc.collect()
    gc.disable()
    try:
        sim = machine.run()
        assert len(sim.memory.data) >= 1 << 20
        del sim, machine
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert _image(_machine(binary, 0)).regions  # the run translated
    assert _large_buffers(binary.linked) == []


#: SHA-256 (first 16 hex digits) of every region source the image
#: compiles in one threshold-0 run from a fresh image, in translation
#: order, with the number of regions
REGION_SOURCE_DIGESTS = {
    ("crc32", "baseline"): (19, "c3e9988b7693fb0f"),
    ("crc32", "bitspec-max"): (19, "aac0c4955c6c48ef"),
    ("crc32", "thumb"): (19, "59623a217aff17db"),
    ("sha", "baseline"): (22, "4a3a508f25292d0d"),
    ("sha", "bitspec-max"): (22, "363f4cacb3e96a84"),
    ("sha", "thumb"): (24, "84a6a91a3306cb02"),
    ("dijkstra", "baseline"): (65, "ac25fc5497bbc434"),
    ("dijkstra", "bitspec-max"): (47, "83ccda3ec284d5c8"),
    ("dijkstra", "thumb"): (70, "9d8a33f530bedda5"),
    ("susan-edges", "baseline"): (14, "d2007c762b6d3397"),
    ("susan-edges", "bitspec-max"): (13, "69d070981869b045"),
    ("susan-edges", "thumb"): (14, "802ba6cae0c12875"),
}

_PRESETS = {"bitspec-max": CompilerConfig.bitspec("max"),
            "baseline": CompilerConfig.baseline(),
            "thumb": CompilerConfig.thumb()}


@pytest.mark.parametrize("preset", sorted(_PRESETS))
@pytest.mark.parametrize("workload", ("crc32", "sha", "dijkstra",
                                      "susan-edges"))
def test_translated_source_is_pinned(workload, preset, monkeypatch):
    """The translator's output, byte for byte.

    Every region :meth:`CompiledImage.translate` compiles in a
    threshold-0 run is hashed, so a change to the predecoded form or the
    emitter that is meant to be output-neutral shows here first.  A
    change that does alter generated code re-records the digests (the
    failure message prints them) and names the cause in CHANGES.md.
    """
    binary = get_binary(workload, _PRESETS[preset])
    monkeypatch.delattr(binary.linked, "_compiled_cache", raising=False)
    calls = _counting_compile(monkeypatch)
    set_global_inputs(binary.module, get_workload(workload).inputs("test", 0))
    predecode.run_fast(Machine(binary.linked, binary.module, engine="fast"),
                       translate_after=0)
    digest = hashlib.sha256()
    for args in calls:
        digest.update(args[0].encode())
    got = (len(calls), digest.hexdigest()[:16])
    assert got == REGION_SOURCE_DIGESTS.get((workload, preset)), (
        f"({workload!r}, {preset!r}): {got!r},")
