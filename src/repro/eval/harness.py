"""Experiment harness: compile-and-simulate with memoization.

The unit of work is a :class:`RunRecord` — one (workload, configuration,
profile input, run input) simulation with its energy breakdown and compiler
statistics.  Records are cached per-process so the per-figure drivers can
share runs (each figure touches the same baseline runs, for instance).

Below the record memo, each stage is memoized on only the slice of the
config it reads (:attr:`CompilerConfig.MACHINE_KNOBS`,
:attr:`CompilerConfig.ENERGY_KNOBS`, everything else compiles):

* the compiled artifact on the compile slice
  (:meth:`CompilerConfig.compile_key`) — configs that differ only in
  cache geometry or DTS knobs compile once;
* the :class:`SimResult` on the compile slice plus the cache geometry —
  configs that differ only in DTS knobs simulate once;
* on the ``fast`` engine, which leaves an
  :class:`repro.arch.predecode.ArchRun` on the machine, the
  architectural run on the compile slice alone — configs that differ
  only in cache geometry execute once and replay its L1 access log per
  geometry.  Only the latest such run per workload is kept, packed once
  another workload runs: DSE grids vary the cache knobs innermost, so
  each workload's geometry variants follow one another.  ``legacy`` and
  ``ooo`` keep their own cache models and simulate every geometry;
* energy per record, from the record's own config, as a pure function of
  the event counts.

Profiling defaults to the *run* input, mirroring the paper's main results
(§2 footnote: all values use the provided large input); the RQ6 sensitivity
experiments override ``profile_kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.arch.energy import EnergyBreakdown
from repro.arch.machine import SimResult
from repro.core.pipeline import CompiledBinary, CompilerConfig, compile_binary
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload


@dataclass
class RunRecord:
    """One simulated experiment."""

    workload: str
    config: CompilerConfig
    sim: SimResult
    binary: CompiledBinary
    correct: bool
    energy: EnergyBreakdown
    #: energy under time squeezing (populated when voltage_scaling says so)
    dts_energy: Optional[EnergyBreakdown] = None
    #: per-pass compiler counters (repro.passes.stats), cached with the run
    pass_stats: dict = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        if self.config.voltage_scaling == "timesqueezing":
            if self.dts_energy is None:
                # A record built outside run() (or deserialized) may not
                # carry the scaled breakdown; derive it from the sim rather
                # than dying on `None.total`.
                if self.sim is None:
                    raise ValueError(
                        "timesqueezing record has neither dts_energy nor a "
                        "sim result to derive it from"
                    )
                self.dts_energy = self.config.dts_model().apply(self.sim)
            return self.dts_energy.total
        return self.energy.total

    @property
    def instructions(self) -> int:
        return self.sim.instructions

    @property
    def epi(self) -> float:
        return self.total_energy / max(self.sim.instructions, 1)


def _config_key(config: CompilerConfig) -> str:
    """Memoization key covering every semantic knob (but not ``name``).

    Delegates to :meth:`CompilerConfig.stable_hash`, which hashes the full
    fingerprint — so a knob added to the config dataclass is covered here
    automatically instead of silently aliasing cache entries.
    """
    return config.stable_hash()


#: compiled artifacts, keyed on the compile slice
_ARTIFACT_CACHE: dict = {}
#: per-config views of those artifacts, keyed on the full config
_BINARY_CACHE: dict = {}
#: simulations, keyed on the compile slice, cache geometry and run inputs
_SIM_CACHE: dict = {}
#: workload -> (key without cache geometry, ArchRun): the latest
#: fast-engine execution of each workload, replayable per geometry
_ARCH_RUNS: dict = {}
#: finished records, keyed by :func:`_run_key`
_RUN_CACHE: dict = {}

#: optional persistent layer under the per-process memoizer — a
#: :class:`repro.bench.cache.RunDiskCache` (installed via
#: ``repro.bench.cache.install_disk_cache`` or the bench executor)
_DISK_CACHE = None


def set_disk_cache(cache) -> None:
    """Install (or remove, with None) the persistent result cache."""
    global _DISK_CACHE
    _DISK_CACHE = cache


def get_disk_cache():
    return _DISK_CACHE


def clear_caches() -> None:
    """Clear the in-process memoizers (the disk cache is untouched)."""
    _ARTIFACT_CACHE.clear()
    _BINARY_CACHE.clear()
    _SIM_CACHE.clear()
    _ARCH_RUNS.clear()
    _RUN_CACHE.clear()


def get_binary(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
) -> CompiledBinary:
    """Compile (memoized) a workload under a configuration.

    Configs with the same compile slice share one compiled artifact
    (module, linked image, profile, squeeze results, stats).  Each config
    still gets its own :class:`CompiledBinary` around it, memoized per
    full config, so ``run()`` simulates under that config's cache
    geometry and ``fingerprint()`` covers every knob.
    """
    key = (workload_name, _config_key(config), profile_kind, profile_seed)
    binary = _BINARY_CACHE.get(key)
    if binary is not None:
        return binary
    artifact_key = (workload_name, config.compile_key(), profile_kind, profile_seed)
    artifact = _ARTIFACT_CACHE.get(artifact_key)
    if artifact is None:
        workload = get_workload(workload_name)
        profile_inputs = workload.inputs(profile_kind, profile_seed)
        binary = compile_binary(
            workload.source, config, profile_inputs=profile_inputs, name=workload_name
        )
        _ARTIFACT_CACHE[artifact_key] = binary
    else:
        binary = replace(artifact, config=config)
    _BINARY_CACHE[key] = binary
    return binary


def _run_key(
    workload_name, config, profile_kind, profile_seed, run_kind, run_seed, engine
) -> tuple:
    return (
        workload_name,
        _config_key(config),
        profile_kind,
        profile_seed,
        run_kind,
        run_seed,
        engine,
    )


def is_memoized(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    engine: Optional[str] = None,
) -> bool:
    """Whether :func:`run` with these arguments returns a record from the
    in-process memo, without compiling, simulating or reading the disk."""
    key = _run_key(
        workload_name, config, profile_kind, profile_seed, run_kind, run_seed, engine
    )
    return key in _RUN_CACHE


def run(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    engine: Optional[str] = None,
) -> RunRecord:
    """Compile + simulate (memoized); checks output against the oracle.

    ``engine`` selects the simulation engine ("legacy" / "fast" /
    "ooo"; default lets :class:`~repro.arch.machine.Machine` resolve).
    The in-order engines are bit-identical (docs/engines.md,
    ``tests/test_engine_equivalence.py``), so the engine itself is
    excluded from the disk-cache key — in-order records are
    interchangeable across those engines.  What *does* partition the
    disk key is :func:`~repro.arch.machine.timing_model`: ooo-engine
    records carry different cycles/counters and must never serve an
    in-order lookup.  The engine enters the in-process memo key so that
    engine-comparison harness code measuring a specific engine is not
    short-circuited by a record produced under another one.

    A record whose config shares its compile slice and cache geometry
    with an earlier run reuses that run's simulation; only its energy is
    computed anew, from its own config.  On the fast engine, one that
    shares only the compile slice (and inputs) with the workload's
    latest run replays that run's cache traffic under its own geometry
    instead of executing again.
    """
    from repro.arch.machine import timing_model

    key = _run_key(
        workload_name, config, profile_kind, profile_seed, run_kind, run_seed, engine
    )
    cached = _RUN_CACHE.get(key)
    if cached is not None:
        return cached
    workload = get_workload(workload_name)
    timing = timing_model(engine)
    if _DISK_CACHE is not None:
        record = _DISK_CACHE.lookup_run(
            workload.source,
            config,
            profile_kind,
            profile_seed,
            run_kind,
            run_seed,
            timing,
        )
        if record is not None:
            _RUN_CACHE[key] = record
            return record
    binary = get_binary(
        workload_name, config, profile_kind=profile_kind, profile_seed=profile_seed
    )
    inputs = workload.inputs(run_kind, run_seed)
    # engine as in the run memo; timing so REPRO_OOO_* sizes partition it
    # the way they partition the disk cache
    arch_key = (
        workload_name,
        config.compile_key(),
        profile_kind,
        profile_seed,
        run_kind,
        run_seed,
        engine,
        timing,
    )
    sim_key = (arch_key, config.cache_geometry())
    sim = _SIM_CACHE.get(sim_key)
    if sim is None:
        sim = _simulate(binary, inputs, engine, arch_key)
        _SIM_CACHE[sim_key] = sim
    expected = workload.expected_output(inputs)
    record = RunRecord(
        workload=workload_name,
        config=config,
        sim=sim,
        binary=binary,
        correct=sim.output == expected,
        energy=sim.energy(),
        pass_stats=binary.pass_stats,
    )
    if config.voltage_scaling == "timesqueezing":
        record.dts_energy = config.dts_model().apply(sim)
    # Nothing reads a record's memory image, and a disk hit carries none:
    # drop the machine's 4 MiB image so the memo does not keep one per sim.
    sim.memory = None
    _RUN_CACHE[key] = record
    if not record.correct:
        raise AssertionError(
            f"{workload_name} [{config.name}]: output {sim.output} != "
            f"expected {expected}"
        )
    if _DISK_CACHE is not None:
        _DISK_CACHE.store_run(
            workload.source,
            config,
            profile_kind,
            profile_seed,
            run_kind,
            run_seed,
            record,
            timing,
        )
    return record


def _simulate(binary, inputs, engine, arch_key) -> SimResult:
    """Simulate ``binary``, or re-score the workload's latest batched run
    when it differs from this one only in cache geometry."""
    workload_name = arch_key[0]
    held = _ARCH_RUNS.get(workload_name)
    if held is not None and held[0] == arch_key:
        return held[1].fold(binary.config.cache_geometry())
    # a simulation drops the workload's held run; the other workloads'
    # wait packed.  The newest run stays unpacked until another workload
    # runs, so a run that no geometry variant follows is never packed
    _ARCH_RUNS.pop(workload_name, None)
    for _, arch in _ARCH_RUNS.values():
        arch.pack()
    machine = binary.machine(inputs, engine=engine)
    sim = machine.run()
    if machine.arch_run is not None:
        _ARCH_RUNS[workload_name] = (arch_key, machine.arch_run)
    return sim


# -- the benchmark roster, ordered as the paper's figures ---------------------

BENCHMARKS = (
    "crc32",
    "fft",
    "basicmath",
    "bitcount",
    "blowfish",
    "dijkstra",
    "patricia",
    "qsort",
    "rijndael",
    "sha",
    "stringsearch",
    "susan-edges",
    "susan-corners",
    "susan-smoothing",
)


def geomean(values) -> float:
    import math

    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
