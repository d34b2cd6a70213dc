"""Cache replay: one batched run, re-scored under every cache geometry.

The fast engine's two tiers log the L1 access stream instead of
probing the cache model per step, and
:func:`repro.arch.predecode.replay` feeds that log through a
:class:`~repro.arch.cache.MemoryHierarchy` afterwards.  Cache geometry
never changes architectural state, so one execution's
:class:`~repro.arch.predecode.ArchRun` must fold, under *any* geometry,
to exactly what simulating under that geometry produces.  The stepped
and the translated runs must write the same log and per-pc arrays.  The
reference is
the legacy interpreter, which still probes the hierarchy on every
access.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.arch.cache import CacheGeometry
from repro.arch.checkpoint import Snapshot
from repro.arch import predecode
from repro.arch.machine import Machine
from repro.arch.predecode import run_fast
from repro.core.pipeline import CompilerConfig, set_global_inputs
from repro.eval import harness
from repro.eval.harness import BENCHMARKS, get_binary
from repro.workloads import get_workload

from test_machine_predecode import (
    CONFIGS,
    CORPUS_DIR,
    _corpus_binary,
    assert_sims_identical,
)

CORPUS = tuple(sorted(p.stem for p in CORPUS_DIR.glob("*.json")))

#: L1 {4, 8, 16} KiB x L2 {64, 256} KiB, plus a tiny hierarchy: the
#: test inputs mostly fit in 4 KiB, and only small caches evict
GEOMETRIES = tuple(
    CacheGeometry(l1_kb=l1, l2_kb=l2) for l1 in (4, 8, 16) for l2 in (64, 256)
) + (CacheGeometry(l1_kb=1, l1_ways=2, l2_kb=8, l2_ways=2),)

PCSAMPLE_ARRAYS = (
    "exec_counts", "icache_l2", "icache_mem", "dcache_l2", "dcache_mem",
    "hazards", "misspecs", "taken", "movconds",
)


def _label(geometry):
    return f"l1={geometry.l1_kb}x{geometry.l1_ways}/l2={geometry.l2_kb}"


def _machine(binary, inputs, engine, geometry=None, **kwargs):
    if inputs:
        set_global_inputs(binary.module, inputs)
    return Machine(
        binary.linked, binary.module, engine=engine, geometry=geometry, **kwargs
    )


def assert_replays_match(binary, inputs, geometries, label, *, pcsample=False):
    """Execute once at the default threshold and once translating every
    region on first entry: the translated run's log and per-pc arrays
    must equal the default run's, and every geometry's replay of either
    must equal a legacy run under that geometry (and, with ``pcsample``,
    a translated run's per-pc arrays under that geometry)."""
    arch_runs = {}
    for engine, after in (("fast", None), ("translated", 0)):
        machine = _machine(binary, inputs, "fast", obs=pcsample)
        first = run_fast(machine, translate_after=after)
        arch = machine.arch_run
        assert arch is not None, f"{label}/{engine}"
        assert_sims_identical(
            arch.fold(None), dataclasses.replace(first, memory=None),
            f"{label}/{engine}",
        )
        arch_runs[engine] = arch
    fast, translated = arch_runs["fast"], arch_runs["translated"]
    assert translated._events[-1] == fast._events[-1], f"{label}: logs differ"
    assert translated._events == fast._events, f"{label}: per-pc arrays differ"
    assert (translated.fetches, translated.output, translated.regs) == (
        fast.fetches, fast.output, fast.regs
    ), label
    packed = _machine(binary, inputs, "fast", obs=pcsample)
    packed.run()
    packed.arch_run.pack()
    for geometry in geometries:
        where = f"{label}@{_label(geometry)}"
        replayed = fast.fold(geometry)
        assert_sims_identical(packed.arch_run.fold(geometry), replayed, where)
        assert replayed.memory is None, where
        ref = dataclasses.replace(
            _machine(binary, inputs, "legacy", geometry).run(), memory=None
        )
        assert ref.output == fast.output, where
        for engine, arch in arch_runs.items():
            assert_sims_identical(arch.fold(geometry), ref, f"{where}/{engine}")
        if pcsample:
            direct = run_fast(_machine(binary, inputs, "fast", geometry, obs=True),
                              translate_after=0)
            for name in PCSAMPLE_ARRAYS:
                assert getattr(replayed.obs, name) == getattr(direct.obs, name), (
                    f"{where}: PcSample.{name} differs"
                )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_replays_match_legacy(name, config):
    binary, inputs = _corpus_binary(name, config)
    assert_replays_match(
        binary, inputs, GEOMETRIES, f"{name}/{config.name}", pcsample=True
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("workload_name", ("crc32", "sha"))
def test_workload_replays_match_legacy(workload_name, config):
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    assert_replays_match(
        binary, inputs, (GEOMETRIES[0], GEOMETRIES[-1]),
        f"{workload_name}/{config.name}", pcsample=True,
    )


@pytest.mark.slow
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("workload_name", BENCHMARKS)
def test_roster_replays_match_legacy(workload_name, config):
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    assert_replays_match(
        binary, inputs, GEOMETRIES, f"{workload_name}/{config.name}"
    )


@pytest.mark.parametrize("name", ("seed000", "seed009", "regression-shl-slice-carry"))
def test_snapshot_hierarchy_matches_per_access_model(name):
    """At a checkpoint the fast engine has replayed its pending log: its
    hierarchy (tag order, stats, last-line fast paths, DRAM count) is the
    one the legacy engine built by probing per access."""
    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    n = _machine(binary, inputs, "fast").run().instructions
    for geometry in (GEOMETRIES[0], GEOMETRIES[-1]):
        for cut in sorted({1, n // 3, n - 1}):
            fast = _machine(binary, inputs, "fast", geometry).run(checkpoint_at=cut)
            legacy = _machine(binary, inputs, "legacy", geometry).run(
                checkpoint_at=cut
            )
            assert isinstance(fast, Snapshot) and isinstance(legacy, Snapshot)
            assert fast.hierarchy == legacy.hierarchy, f"{name}@{cut}"


def test_fast_run_is_freed_without_the_garbage_collector():
    """The machine holds its ArchRun; nothing may point back, or every
    fast run's log would wait for a gc pass."""
    binary, inputs = _corpus_binary("seed000", CompilerConfig.bitspec("max"))
    machine = _machine(binary, inputs, "fast")
    gc.disable()
    try:
        machine.run()
        assert machine.arch_run is not None
        alive = weakref.ref(machine)
        del machine
        assert alive() is None
    finally:
        gc.enable()


def test_resumed_run_leaves_no_arch_run():
    """Only a whole run's log starts from a cold hierarchy."""
    binary, inputs = _corpus_binary("seed000", CompilerConfig.bitspec("max"))
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=5)
    machine = _machine(binary, inputs, "fast")
    machine.run(resume_from=snap)
    assert machine.arch_run is None


# -- the harness: geometry cells share one execution -------------------------


def test_geometry_sweep_executes_once_per_compile_slice(monkeypatch):
    simulations = []
    machine_run = Machine.run

    def counting_run(self, *args, **kwargs):
        simulations.append(self)
        return machine_run(self, *args, **kwargs)

    monkeypatch.delenv("REPRO_MACHINE_ENGINE", raising=False)
    slices = (CompilerConfig.bitspec("max"), CompilerConfig.baseline())
    # sha's test input misses in L1 below 4 KiB only
    configs = [
        dataclasses.replace(base, l1_kb=l1_kb)
        for base in slices
        for l1_kb in (1, 2, 4)
    ]
    harness.clear_caches()
    monkeypatch.setattr(Machine, "run", counting_run)
    records = [harness.run("sha", config) for config in configs]
    assert len(simulations) == len(slices)
    assert len({r.total_energy for r in records}) == len(configs)
    for config, record in zip(configs, records):
        harness.clear_caches()
        fresh = harness.run("sha", config)
        assert fresh.total_energy == record.total_energy, config.name
        assert_sims_identical(record.sim, fresh.sim, config.name)
    assert len(simulations) == len(slices) + len(configs)


def test_harness_keeps_one_arch_run_per_workload():
    harness.clear_caches()
    for l1_kb in (4, 8):
        for workload_name in ("crc32", "bitcount"):
            harness.run(workload_name, CompilerConfig.bitspec("max", l1_kb=l1_kb))
    assert sorted(harness._ARCH_RUNS) == ["bitcount", "crc32"]
    harness.run("crc32", CompilerConfig.baseline())
    key, _ = harness._ARCH_RUNS["crc32"]
    assert key[1] == CompilerConfig.baseline().compile_key()


def _count_runs(monkeypatch):
    simulations = []
    machine_run = Machine.run

    def counting_run(self, *args, **kwargs):
        simulations.append(self.geometry)
        return machine_run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    return simulations


def test_other_engines_simulate_every_geometry(monkeypatch):
    """``legacy`` and ``ooo`` keep their own cache models: no ArchRun."""
    simulations = _count_runs(monkeypatch)
    for engine in ("legacy", "ooo"):
        harness.clear_caches()
        del simulations[:]
        for l1_kb in (4, 8):
            harness.run("crc32", CompilerConfig.bitspec("max", l1_kb=l1_kb),
                        engine=engine)
        assert [g.l1_kb for g in simulations] == [4, 8], engine
        assert not harness._ARCH_RUNS, engine


def test_compiled_geometry_sweep_executes_once_per_workload():
    """The translated tier leaves an ArchRun too, so geometry variants
    of runs translated from the first entry replay the held run exactly
    as the default threshold's do."""
    # sha's test input misses in L1 below 4 KiB only.  The workloads
    # alternate, as in a DSE grid: each held run waits while the other
    # workload runs
    cells = [(name, CompilerConfig.bitspec("max", l1_kb=l1_kb))
             for l1_kb in (1, 4) for name in ("crc32", "sha")]
    harness.clear_caches()
    fast = [harness.run(name, config, engine="fast") for name, config in cells]
    harness.clear_caches()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
        simulations = _count_runs(monkeypatch)
        records = [harness.run(name, config, engine="fast")
                   for name, config in cells]
    assert len(simulations) == 2
    assert sorted(harness._ARCH_RUNS) == ["crc32", "sha"]
    # crc32's run was packed when sha's ran; sha's, the newest, was not
    assert harness._ARCH_RUNS["crc32"][1]._packed is not None
    assert harness._ARCH_RUNS["sha"][1]._packed is None
    sha = [r.total_energy for (name, _), r in zip(cells, records) if name == "sha"]
    assert sha[0] != sha[1]
    for (name, config), ref, record in zip(cells, fast, records):
        assert_sims_identical(record.sim, ref.sim, f"{name}/{config.name}")
