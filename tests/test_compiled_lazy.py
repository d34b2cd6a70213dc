"""The compiled engine translates a region the first time it is entered.

:func:`repro.arch.compiled._build_image` only predecodes the program and
finds its static region entries; each region is emitted and compiled
when the dispatcher first calls its stub.  The image holds the run
state, whatever the cache geometry: the regions only log the L1 access
stream, and each run replays it under its own geometry.  These tests
pin the three properties that design rests on: a run translates exactly
the regions it enters and a warm run translates nothing; runs under any
geometry share the one image, whose counter arrays grow in place as
later runs translate more regions; and a transfer that finds no region
entry deoptimizes to the per-step engine, bit-identically.
"""

import re
from types import CodeType

import pytest

from repro.arch import compiled
from repro.arch.cache import CacheGeometry
from repro.arch.machine import Machine
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
    """The shared susan-edges binary with its compiled image dropped.

    ``get_binary`` hands every test the same linked program, which caches
    its compiled image; monkeypatch restores that cache afterwards.
    """
    binary = get_binary(WORKLOAD, CompilerConfig.bitspec("max"))
    monkeypatch.delattr(binary.linked, "_compiled_cache", raising=False)
    return binary


def _machine(binary, seed, engine="compiled", geometry=None, obs=False):
    set_global_inputs(binary.module, get_workload(WORKLOAD).inputs("test", seed))
    return Machine(binary.linked, binary.module, engine=engine,
                   geometry=geometry, obs=obs)


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


def test_translates_only_entered_regions(binary, monkeypatch):
    machine = _machine(binary, 0)
    first = machine.run()
    image = _image(machine)
    rt = image

    entered = {pcs[0] for idx, pcs, _hz, _sites in image.fold_regions
               if rt.entries[idx]}
    assert set(image.regions) == entered
    static = compiled._build_image(machine.linked, machine.narrow_rf,
                                   slice_mask(machine.slice_width)).leaders
    assert 0 < len(image.regions) < len(static)

    # every exit target a translated region loads resolves in the namespace
    for code in image.regions.values():
        for name in _exit_names(code):
            assert name in rt.ns, name

    calls = _counting_compile(monkeypatch)
    second = _machine(binary, 0).run()
    assert calls == []
    assert_sims_identical(second, first, f"{WORKLOAD}/warm")
    assert_sims_identical(second, _machine(binary, 0, "fast").run(),
                          f"{WORKLOAD}/warm-vs-fast")


def test_geometries_share_one_runtime(binary, monkeypatch):
    # seed 2 enters a strict subset of seed 0's regions, so the small-L1
    # run translates regions the first run never entered.  The fold then
    # visits them before (seed 2 again) and after (seed 1) a run enters
    # them, with counter arrays grown in place
    plan = ((None, 2, False), (SMALL_L1, 0, False), (None, 2, False),
            (None, 1, True))
    calls = _counting_compile(monkeypatch)
    translated = []
    images = []
    for geometry, seed, obs in plan:
        machine = _machine(binary, seed, geometry=geometry, obs=obs)
        sim = machine.run()
        ref = _machine(binary, seed, "fast", geometry=geometry, obs=obs).run()
        label = f"{WORKLOAD}/seed{seed}/{geometry}"
        assert_sims_identical(sim, ref, label)
        image = _image(machine)
        translated.append(len(image.regions))
        images.append((image, image.entries, image.exits))
        if obs:
            from repro.obs.attribution import attribute, check_conservation

            assert check_conservation(attribute(binary.linked, sim.obs), sim) == []

    assert translated[0] < translated[1]
    assert len(calls) == translated[-1] == translated[1]
    # one image, whose counter arrays the region closures bind by
    # identity: they grew in place to the image's counts
    rt = image
    for seen, entries, exits in images:
        assert seen is rt and entries is rt.entries and exits is rt.exits
    assert len(rt.entries) == image.n_regions
    assert len(rt.exits) == image.n_sites
    # the last run entered the regions the small-L1 run translated,
    # counting them in the slots grown for them
    assert all(rt.entries[translated[0]:translated[1]])


def test_missing_region_entry_deoptimizes(binary, monkeypatch):
    machine = _machine(binary, 0)
    machine.run()
    reached = list(_image(machine).regions)  # translation = first-entry order
    dropped = reached[1]

    # a fresh image without that entry: transfers to it return the integer
    # pc, find no table entry, and the run replays on the per-step engine
    monkeypatch.delattr(binary.linked, "_compiled_cache")
    machine = _machine(binary, 0)
    full = _image(machine)
    binary.linked._compiled_cache[
        (machine.narrow_rf, slice_mask(machine.slice_width))
    ] = compiled.CompiledImage(full.code, full.leaders - {dropped},
                               full.inst_bytes, full.delta, full.spec_mask)
    deopts = []
    run_fast = compiled.run_fast

    def counting_run_fast(m):
        deopts.append(m)
        return run_fast(m)

    monkeypatch.setattr(compiled, "run_fast", counting_run_fast)
    sim = machine.run()
    assert deopts == [machine]
    assert dropped not in _image(machine).regions
    assert_sims_identical(sim, _machine(binary, 0, "fast").run(),
                          f"{WORKLOAD}/deopt")
