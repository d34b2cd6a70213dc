"""The cross-engine differential matrix: three engines, one semantics.

This is the enforcement arm of the engine contract (docs/engines.md): the
legacy interpreter and the fast path, on its predecoded stepper and on its
translated tier (the template JIT, here at threshold 0 so every region
runs translated from its first entry), must be *bit-identical* on every
observable — ``SimResult`` aggregates
and energy counters, final memory images, per-pc observability samples,
and fault-injection classification matrices — while the out-of-order
engine (:mod:`repro.arch.ooo`), whose cycles and energy belong to its own
timing model, must match the *committed* architectural view: traps, out
stream, memory image, committed instruction/misspeculation counts.

Coverage axes:

* the full fuzz corpus under three configs (full matrix ``slow``; a
  three-program smoke slice always runs);
* the full 14-workload benchmark roster under T=MAX (``slow``; a
  three-workload slice always runs);
* a DSE smoke grid routed through :func:`repro.dse.runner.evaluate_points`
  — the emitted rows must not depend on the tier;
* the fault-injection kind×seed parity grid — the canonical FAULTS JSON
  must be byte-identical across tiers;
* per-pc observability: translated-tier samples re-sum through
  ``check_conservation`` integer-exactly, and equal the fast path's
  array-for-array on corpus programs;
* the tiered engine's threshold: ``fast`` translating on first entry,
  after two entries and never agree with every instruction stepped on
  the corpus and the roster, per pc.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.arch.machine import Machine
from repro.arch.predecode import run_fast
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.eval.harness import get_binary
from repro.fuzz.corpus import load_program
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload

from test_machine_predecode import (
    assert_engine_matches,
    assert_sims_identical,
    assert_tier_matches,
)

CORPUS_DIR = Path(__file__).parent / "corpus"

#: every saved corpus program, regressions included
FULL_CORPUS = tuple(sorted(p.stem for p in CORPUS_DIR.glob("*.json")))

SMOKE_CORPUS = ("seed000", "seed009", "regression-shl-slice-carry")

SMOKE_WORKLOADS = ("crc32", "sha", "bitcount")

CONFIGS = (
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.thumb(),
)

#: the ≥4 observability conservation cells (workload × config)
OBS_CELLS = (
    ("crc32", "max"),
    ("crc32", "avg"),
    ("sha", "max"),
    ("bitcount", "min"),
)


def _corpus_binary(name: str, config: CompilerConfig):
    program = load_program(CORPUS_DIR / f"{name}.json")
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(config, expander=expander)
    binary = compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )
    return binary, program.inputs_run


#: the lanes held to ``fast``: the other engines, and ``fast`` with
#: every region translated on first entry
LANES = ("legacy", "translated", "ooo")


def _run(binary, inputs, engine: str, obs: bool = False):
    if inputs:
        set_global_inputs(binary.module, inputs)
    if engine == "translated":
        machine = Machine(binary.linked, binary.module, engine="fast", obs=obs)
        return run_fast(machine, translate_after=0)
    return Machine(binary.linked, binary.module, engine=engine, obs=obs).run()


def _on_translated_tier(monkeypatch) -> None:
    """From here on ``fast`` translates every region on first entry, and
    no memo hands back a result an earlier run computed."""
    from repro.arch import predecode
    from repro.eval import harness
    from repro.faults import campaign

    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
    monkeypatch.setattr(campaign, "_GOLDEN", {})
    harness.clear_caches()


def _assert_all_engines_identical(binary, inputs, label: str) -> None:
    ref = _run(binary, inputs, "fast")
    for engine in LANES:
        assert_engine_matches(
            _run(binary, inputs, engine), ref, engine, f"{label}/{engine}"
        )


# -- corpus matrix ------------------------------------------------------------


@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_corpus_smoke_all_engines(name):
    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    _assert_all_engines_identical(binary, inputs, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", FULL_CORPUS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_full_all_engines(name, config):
    binary, inputs = _corpus_binary(name, config)
    _assert_all_engines_identical(binary, inputs, f"{name}/{config.name}")


@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_corpus_smoke_tiers(tier, monkeypatch, name):
    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    assert_tier_matches(binary, inputs, monkeypatch, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", FULL_CORPUS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_full_tiers(tier, monkeypatch, name, config):
    binary, inputs = _corpus_binary(name, config)
    assert_tier_matches(binary, inputs, monkeypatch, f"{name}/{config.name}")


# -- workload roster ----------------------------------------------------------


@pytest.mark.parametrize("workload_name", SMOKE_WORKLOADS)
def test_workload_smoke_compiled_vs_fast(workload_name):
    config = CompilerConfig.bitspec("max")
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    ref = _run(binary, inputs, "fast")
    assert_sims_identical(
        _run(binary, inputs, "translated"), ref, f"{workload_name}/translated"
    )


def test_workload_smoke_ooo_committed():
    """One smoke workload pins the OoO committed contract in tier-1."""
    config = CompilerConfig.bitspec("max")
    binary = get_binary("crc32", config)
    inputs = get_workload("crc32").inputs("test", 0)
    ref = _run(binary, inputs, "fast")
    sim = _run(binary, inputs, "ooo")
    assert_engine_matches(sim, ref, "ooo", "crc32/ooo")
    # the timing model is genuinely different, not a relabeled in-order run
    assert sim.cycles != ref.cycles
    assert sim.ooo.fetched_uops >= sim.instructions


@pytest.mark.slow
def test_workload_roster_all_engines():
    """All 14 benchmark workloads, every engine vs the fast path."""
    from repro.eval.harness import BENCHMARKS

    config = CompilerConfig.bitspec("max")
    for workload_name in BENCHMARKS:
        binary = get_binary(workload_name, config)
        inputs = get_workload(workload_name).inputs("test", 0)
        ref = _run(binary, inputs, "fast")
        assert ref.instructions > 0
        for engine in LANES:
            assert_engine_matches(
                _run(binary, inputs, engine), ref, engine,
                f"{workload_name}/{engine}",
            )


@pytest.mark.slow
def test_workload_roster_tiers(tier, monkeypatch):
    """All 14 benchmark workloads on ``fast`` at the tier's threshold."""
    from repro.eval.harness import BENCHMARKS

    config = CompilerConfig.bitspec("max")
    for workload_name in BENCHMARKS:
        binary = get_binary(workload_name, config)
        inputs = get_workload(workload_name).inputs("test", 0)
        assert_tier_matches(binary, inputs, monkeypatch, workload_name)


# -- observability ------------------------------------------------------------


@pytest.mark.parametrize("workload_name,heuristic", OBS_CELLS,
                         ids=[f"{w}-{h}" for w, h in OBS_CELLS])
def test_obs_conservation_on_compiled(workload_name, heuristic):
    """Translated-tier per-pc tallies re-sum to the SimResult aggregates
    exactly."""
    from repro.obs.attribution import attribute, check_conservation

    config = CompilerConfig.bitspec(heuristic)
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    sim = _run(binary, inputs, "translated", obs=True)
    assert sim.obs is not None
    mismatches = check_conservation(attribute(binary.linked, sim.obs), sim)
    assert mismatches == [], f"{workload_name}/{heuristic}: {mismatches}"


@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_obs_trace_equivalence_compiled_vs_fast(name):
    """PcSample arrays equal element-for-element, not just in aggregate."""
    from repro.obs.events import PcSample

    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    fast = _run(binary, inputs, "fast", obs=True)
    translated = _run(binary, inputs, "translated", obs=True)
    assert fast.obs is not None and translated.obs is not None
    for f in dataclasses.fields(PcSample):
        a, b = getattr(translated.obs, f.name), getattr(fast.obs, f.name)
        assert a == b, f"{name}: obs.{f.name} differs"


# -- DSE smoke grid -----------------------------------------------------------


def test_dse_smoke_grid_engine_invariant(monkeypatch):
    """evaluate_points emits identical rows whichever tier simulates."""
    from repro.dse.runner import evaluate_points
    from repro.dse.space import SpecSpace

    space = SpecSpace(slice_width=(8, 32), l1_kb=(4, 8))
    rows = {}
    for tier in ("fast", "translated"):
        if tier == "translated":
            _on_translated_tier(monkeypatch)
        rows[tier] = [
            r.as_dict()
            for r in evaluate_points(space.points(), ("crc32",), jobs=1)
        ]
    assert rows["fast"] == rows["translated"]
    assert all(r["status"] == "ok" for r in rows["fast"])
    assert len(rows["fast"]) == space.size


# -- fault-injection parity ---------------------------------------------------


def test_fault_campaign_kind_seed_parity(monkeypatch):
    """The kind×seed grid classifies identically and serializes
    byte-identically whichever tier runs the golden runs."""
    from repro.faults.campaign import run_campaign, to_canonical_json
    from repro.faults.plan import FAULT_KINDS

    documents = {}
    for tier in ("fast", "translated"):
        if tier == "translated":
            _on_translated_tier(monkeypatch)
        documents[tier] = to_canonical_json(
            run_campaign(
                workloads=("crc32",),
                config_names=("bitspec-max",),
                kinds=FAULT_KINDS,
                seed=0,
                per_kind=2,
                jobs=1,
            )
        )
    assert documents["fast"] == documents["translated"]
    assert '"engine"' not in documents["fast"]  # engines never leak into FAULTS json


@pytest.mark.slow
def test_fault_replay_corpus_parity(monkeypatch):
    from repro.faults.campaign import replay_corpus, to_canonical_json

    documents = {}
    for tier in ("fast", "translated"):
        if tier == "translated":
            _on_translated_tier(monkeypatch)
        documents[tier] = to_canonical_json(
            replay_corpus(CORPUS_DIR, count=2, per_kind=1, seed=0)
        )
    assert documents["fast"] == documents["translated"]
