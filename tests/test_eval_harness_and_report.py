"""Harness internals and the report generator."""

import dataclasses

import pytest

from repro.core import CompilerConfig
from repro.eval.harness import (
    BENCHMARKS,
    _config_key,
    clear_caches,
    get_binary,
    run,
)
from repro.passes.expander import ExpanderConfig

#: one non-default value per compile knob — a field missing here and from
#: both non-compile slices fails test_every_config_field_has_one_slice
COMPILE_VARIANTS = {
    "isa": "ARM_BS",
    "middle_end": "2cfg-max",
    "expander": ExpanderConfig(unroll_factor=2),
    "compare_elimination": False,
    "bitmask_elision": False,
    "invert_handler_weights": True,
    "slice_width": 16,
    "squeeze_ops": ("add",),
    "min_hotness": 0.1,
    "confidence_margin": 1,
    "max_spec_regions": 3,
}
MACHINE_VARIANTS = {"l1_kb": 16, "l1_ways": 2, "l2_kb": 512, "l2_ways": 4}
ENERGY_VARIANTS = {
    "voltage_scaling": "timesqueezing",
    "dts_alpha": 1.6,
    "dts_bitwidth_aware": True,
}


def test_benchmark_roster_matches_registry():
    from repro.workloads import workload_names

    assert sorted(BENCHMARKS) == workload_names()


def test_config_key_distinguishes_settings():
    a = _config_key(CompilerConfig.bitspec("max"))
    b = _config_key(CompilerConfig.bitspec("min"))
    c = _config_key(CompilerConfig.bitspec("max", bitmask_elision=False))
    assert a != b and a != c


def test_config_key_ignores_name():
    a = _config_key(CompilerConfig.baseline())
    b = _config_key(CompilerConfig.baseline(name="renamed"))
    assert a == b


def test_every_config_field_has_one_slice():
    fields = {f.name for f in dataclasses.fields(CompilerConfig)} - {"name"}
    machine = set(CompilerConfig.MACHINE_KNOBS)
    energy = set(CompilerConfig.ENERGY_KNOBS)
    assert machine == set(MACHINE_VARIANTS)
    assert energy == set(ENERGY_VARIANTS)
    assert not machine & energy
    assert fields - machine - energy == set(COMPILE_VARIANTS)


def test_compile_key_reads_only_compile_knobs():
    base = CompilerConfig.baseline()
    for knob, value in {**MACHINE_VARIANTS, **ENERGY_VARIANTS}.items():
        other = dataclasses.replace(base, **{knob: value})
        assert other.compile_key() == base.compile_key(), knob
        assert other.stable_hash() != base.stable_hash(), knob
    for knob, value in COMPILE_VARIANTS.items():
        other = dataclasses.replace(base, **{knob: value})
        assert other.compile_key() != base.compile_key(), knob


def test_machine_knobs_share_the_compiled_artifact():
    clear_caches()
    small = CompilerConfig.bitspec("max", l1_kb=4)
    large = CompilerConfig.bitspec("max", l1_kb=16)
    a = get_binary("crc32", small)
    b = get_binary("crc32", large)
    assert a is not b and get_binary("crc32", large) is b
    assert a.linked is b.linked and a.module is b.module
    assert a.config is small and b.config is large
    assert a.config.cache_geometry().l1_kb == 4
    assert b.config.cache_geometry().l1_kb == 16
    shared = b.fingerprint()
    assert a.fingerprint() != shared
    clear_caches()
    assert get_binary("crc32", large).fingerprint() == shared


def test_energy_knob_sweep_simulates_once(monkeypatch):
    from repro.arch.machine import Machine

    configs = [CompilerConfig.bitspec("max")] + [
        CompilerConfig.dts_bitspec("max", dts_alpha=alpha, dts_bitwidth_aware=aware)
        for alpha in (1.1, 1.3, 1.6)
        for aware in (False, True)
    ]
    simulations = []
    machine_run = Machine.run

    def counting_run(self, *args, **kwargs):
        simulations.append(self)
        return machine_run(self, *args, **kwargs)

    clear_caches()
    monkeypatch.setattr(Machine, "run", counting_run)
    records = [run("bitcount", config) for config in configs]
    assert len(simulations) == 1
    assert len({record.total_energy for record in records}) == len(configs)
    for config, record in zip(configs, records):
        clear_caches()
        assert record.total_energy == run("bitcount", config).total_energy
    assert len(simulations) == 1 + len(configs)


def test_binary_cache_shared_across_run_inputs():
    clear_caches()
    binary = get_binary("bitcount", CompilerConfig.baseline())
    first = run("bitcount", CompilerConfig.baseline(), run_kind="train")
    second = run("bitcount", CompilerConfig.baseline(), run_kind="alt")
    assert first.binary is binary and second.binary is binary
    assert first.sim.output != second.sim.output  # different inputs


def test_dts_records_carry_scaled_energy():
    record = run("bitcount", CompilerConfig.dts(), run_kind="train")
    assert record.dts_energy is not None
    assert record.total_energy == record.dts_energy.total
    assert record.total_energy < record.energy.total


def test_timesqueezing_total_energy_without_dts_breakdown():
    """Regression: a timesqueezing record whose ``dts_energy`` was never
    populated (built by hand, or deserialized from an old cache entry) must
    derive it from the sim instead of crashing on ``None.total``."""
    import dataclasses

    from repro.arch.dts import DTSModel
    from repro.eval.harness import RunRecord

    full = run("bitcount", CompilerConfig.dts(), run_kind="train")
    bare = RunRecord(
        workload=full.workload,
        config=full.config,
        sim=full.sim,
        binary=full.binary,
        correct=full.correct,
        energy=full.energy,
        dts_energy=None,
    )
    assert bare.total_energy == DTSModel().apply(full.sim).total
    assert bare.total_energy == full.total_energy
    assert bare.dts_energy is not None  # derived lazily, then kept

    # ... but with no sim to derive from, the failure must be explicit.
    simless = dataclasses.replace(bare, sim=None, dts_energy=None)
    with pytest.raises(ValueError, match="timesqueezing"):
        simless.total_energy


@pytest.mark.slow
def test_report_generator_smoke(monkeypatch):
    """The report pipeline produces markdown with the key sections.

    Figure functions are monkeypatched onto tiny subsets to keep this fast.
    """
    from repro.eval import figures, report

    small = ("bitcount",)
    for name in (
        "fig01_bitwidth_selection",
        "fig08_energy",
        "fig12_nospec",
        "fig14_table2_aggressiveness",
        "fig15_sensitivity",
        "fig17_dts",
        "fig18_thumb",
    ):
        fn = getattr(figures, name)
        monkeypatch.setattr(figures, name, (lambda f: lambda *a, **k: f(small))(fn))
    text = report.generate_report()
    for heading in ("Figure 1", "Figure 8", "Table 2", "Figure 17", "Figure 18"):
        assert heading in text
    assert "bitcount" in text
