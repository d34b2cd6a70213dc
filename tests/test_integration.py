"""Cross-configuration integration tests + pipeline-level checks."""

import pytest

from repro.core import (
    CompiledBinary,
    CompilerConfig,
    compile_binary,
    set_global_inputs,
)
from repro.core.pipeline import resolve_config
from repro.eval.harness import clear_caches, geomean, run
from repro.passes import ExpanderConfig
from repro.workloads import get_workload

INTEGRATION_WORKLOADS = ("crc32", "stringsearch", "bitcount")

CONFIGS = [
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.bitspec("avg"),
    CompilerConfig.bitspec("min"),
    CompilerConfig.nospec(),
    CompilerConfig.thumb(),
    CompilerConfig.baseline(expander=ExpanderConfig.disabled(), name="base-noexp"),
    CompilerConfig.bitspec("max", invert_handler_weights=True, name="bs-inv"),
    CompilerConfig.bitspec("max", compare_elimination=False, name="bs-nocmp"),
    CompilerConfig.bitspec("max", bitmask_elision=False, name="bs-nomask"),
]


@pytest.mark.parametrize("name", INTEGRATION_WORKLOADS)
def test_all_configs_agree_on_output(name):
    workload = get_workload(name)
    inputs = workload.inputs("train")
    expected = workload.expected_output(inputs)
    for config in CONFIGS:
        binary = compile_binary(
            workload.source, config, profile_inputs=inputs, name=name
        )
        result = binary.run(inputs)
        assert result.output == expected, (name, config.name)


def test_config_presets():
    assert CompilerConfig.bitspec("avg").heuristic == "avg"
    assert CompilerConfig.dts().voltage_scaling == "timesqueezing"
    assert CompilerConfig.dts_bitspec().isa == "ARM_BS"
    with pytest.raises(ValueError):
        CompilerConfig.baseline().heuristic

    with pytest.raises(ValueError):
        compile_binary("void main() { out(1); }", CompilerConfig(middle_end="magic"))


def test_config_spellings_are_closed():
    """One preset table, one resolver: an unknown name raises instead of
    compiling as something else."""
    assert resolve_config("BITSPEC") == CompilerConfig.bitspec("max")
    assert resolve_config(" Thumb ") == CompilerConfig.thumb()
    for name in ("bitspec-foo", "dts-bitspec-min", "arm", "arm_bs"):
        with pytest.raises(ValueError, match="unknown config"):
            resolve_config(name)
    with pytest.raises(ValueError, match="middle-end"):
        CompilerConfig.bitspec("foo")
    with pytest.raises(ValueError, match="isa"):
        CompilerConfig(isa="RISCV")


def test_binary_metadata_populated():
    workload = get_workload("crc32")
    inputs = workload.inputs("train")
    binary = compile_binary(
        workload.source, CompilerConfig.bitspec("max"), profile_inputs=inputs
    )
    assert isinstance(binary, CompiledBinary)
    assert binary.profile is not None
    assert binary.code_size > 0
    assert binary.alloc_stats
    assert any(r.narrowed for r in binary.squeeze_results.values())
    assert "compares_eliminated" in binary.opt_counts


def test_interpret_entry_matches_machine():
    workload = get_workload("bitcount")
    inputs = workload.inputs("train")
    binary = compile_binary(
        workload.source, CompilerConfig.bitspec("max"), profile_inputs=inputs
    )
    machine_out = binary.run(inputs).output
    interp_out = binary.interpret(inputs).output
    assert machine_out == interp_out


def test_harness_caches_and_checks():
    clear_caches()
    first = run("bitcount", CompilerConfig.baseline(), run_kind="train")
    second = run("bitcount", CompilerConfig.baseline(), run_kind="train")
    assert first is second  # memoized
    assert first.correct
    assert first.total_energy > 0
    assert first.epi > 0


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0


def test_headline_shape_on_subset():
    """The paper's core claims hold on a fast subset:

    * BITSPEC saves energy vs BASELINE on bitwidth-friendly workloads;
    * no-speculation saves less than BITSPEC;
    * Thumb executes more instructions than ARM.
    """
    clear_caches()
    names = ("stringsearch", "bitcount")
    bitspec_rel, nospec_rel, thumb_instr = [], [], []
    for name in names:
        base = run(name, CompilerConfig.baseline())
        spec = run(name, CompilerConfig.bitspec("max"))
        nosp = run(name, CompilerConfig.nospec())
        thumb = run(name, CompilerConfig.thumb())
        bitspec_rel.append(spec.total_energy / base.total_energy)
        nospec_rel.append(nosp.total_energy / base.total_energy)
        thumb_instr.append(thumb.instructions / base.instructions)
    assert geomean(bitspec_rel) < 0.95
    assert geomean(bitspec_rel) < geomean(nospec_rel)
    assert geomean(thumb_instr) > 1.1


def test_dts_composition_shape():
    """DTS+BITSPEC lands near the product of the individual savings."""
    base = run("bitcount", CompilerConfig.baseline())
    spec = run("bitcount", CompilerConfig.bitspec("max"))
    dts = run("bitcount", CompilerConfig.dts())
    combo = run("bitcount", CompilerConfig.dts_bitspec("max"))
    spec_rel = spec.total_energy / base.total_energy
    dts_rel = dts.total_energy / base.total_energy
    combo_rel = combo.total_energy / base.total_energy
    assert dts_rel < 0.9  # DTS alone reclaims slack
    assert combo_rel < dts_rel  # composition adds BITSPEC's savings
    assert combo_rel == pytest.approx(spec_rel * dts_rel, rel=0.15)
