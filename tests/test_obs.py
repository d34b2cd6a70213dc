"""Observability & attribution tests.

The load-bearing property is **conservation**: tallying every executed
pc, or every group of any grouping, reproduces the aggregate SimResult
counters integer-exactly — no sampling, no tolerance — on both batching
engines and on a run re-scored under another cache geometry.  Alongside it:
equivalence of the fast path's event sample against a legacy-engine
pc trace, the event expansion semantics, the pass-statistics
registry, and a golden text report over the mini roster.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.arch.cache import CacheGeometry
from repro.arch.energy import EnergyCounters
from repro.arch.machine import Machine
from repro.arch import predecode
from repro.arch.predecode import PC_COUNTER_FIELDS
from repro.core.pipeline import CompilerConfig, compile_binary
from repro.eval import harness
from repro.obs import (
    PcSample,
    attribute,
    check_conservation,
    dts_mode_events,
    events_from_sample,
    source_var,
)
from repro.obs.report import build_report, render_json, render_text
from repro.passes import stats
from repro.workloads import get_workload

GOLDEN = Path(__file__).parent / "golden" / "obs_report_mini.txt"

#: a small program whose train/test-style input split forces misspeculation
MISSPEC_SOURCE = """
u32 n;
u32 result;
void main() {
    u32 x = 0;
    u32 i = 0;
    while (i < n) {
        x = x + 3;
        i = i + 1;
    }
    result = x;
    out(x);
}
"""


def _misspec_binary():
    return compile_binary(
        MISSPEC_SOURCE,
        CompilerConfig.bitspec("max"),
        profile_inputs={"n": 5},  # x stays tiny during profiling...
    )


# -- conservation --------------------------------------------------------------


#: a hierarchy small enough that the roster's test inputs miss L1 and L2
SMALL_CACHES = CacheGeometry(l1_kb=1, l1_ways=2, l2_kb=8, l2_ways=2)


def _assert_conserved(binary, inputs, engine=None):
    machine = binary.machine(inputs, obs=True, engine=engine)
    if engine is not None:
        assert machine.resolve_engine() == engine
    sim = machine.run()
    assert sim.obs is not None
    attribution = attribute(binary.linked, sim.obs)
    mismatches = check_conservation(attribution, sim)
    assert mismatches == []
    return sim, attribution


def test_conservation_toy_with_misspeculation():
    binary = _misspec_binary()
    sim, attribution = _assert_conserved(binary, {"n": 200})  # ...then overflows
    assert sim.misspeculations > 0
    total = attribution.total()
    assert total.misspeculations == sim.misspeculations
    assert total.instructions == sim.instructions


@pytest.mark.parametrize(
    "workload,config,profile_kind",
    [
        ("crc32", CompilerConfig.bitspec("max"), "train"),  # real misspecs
        ("crc32", CompilerConfig.bitspec("max"), "test"),
        ("sha", CompilerConfig.baseline(), "test"),
        ("bitcount", CompilerConfig.bitspec("min"), "test"),
    ],
    ids=["crc32-misspec", "crc32", "sha-baseline", "bitcount-min"],
)
def test_conservation_on_workloads(workload, config, profile_kind, monkeypatch):
    """Both of ``fast``'s tiers conserve, and so does a run re-scored
    under a second cache geometry through ``ArchRun.fold``."""
    binary = harness.get_binary(workload, config, profile_kind=profile_kind)
    inputs = get_workload(workload).inputs("test", 0)
    sims = {"fast": _assert_conserved(binary, inputs, "fast")[0]}
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
    sims["translated"] = _assert_conserved(binary, inputs, "fast")[0]
    machine = binary.machine(inputs, obs=True, engine="fast")
    machine.run()
    rescored = machine.arch_run.fold(SMALL_CACHES)
    assert rescored.obs is not None
    assert rescored.counters != sims["fast"].counters  # the geometry matters
    attribution = attribute(binary.linked, rescored.obs)
    assert check_conservation(attribution, rescored) == []


def test_energy_partition_sums_to_total():
    """Every grouping is a partition: group energies sum to the total."""
    binary = harness.get_binary(
        "crc32", CompilerConfig.bitspec("max"), profile_kind="train"
    )
    sim = binary.run(get_workload("crc32").inputs("test", 0), obs=True)
    attribution = attribute(binary.linked, sim.obs)
    want = attribution.total().energy().total
    assert want == pytest.approx(sim.energy().total)
    for groups in (
        attribution.by_variable(),
        attribution.by_function(),
        attribution.by_world(),
        attribution.by_region(),
    ):
        got = sum(t.energy().total for t in groups.values())
        assert got == pytest.approx(want)


def _summed(tallies):
    """Field-by-field sum of ``tallies``, in the shape of one tally."""
    counters = EnergyCounters()
    for f in dataclasses.fields(EnergyCounters):
        values = [getattr(t.counters, f.name) for t in tallies]
        if isinstance(values[0], dict):
            setattr(counters, f.name,
                    {w: sum(v[w] for v in values) for w in values[0]})
        else:
            setattr(counters, f.name, sum(values))
    return (
        {name: sum(getattr(t, name) for t in tallies)
         for name in PC_COUNTER_FIELDS + ("static_insts",)},
        counters,
        {cls: sum(t.class_counts[cls] for t in tallies)
         for cls in tallies[0].class_counts},
    )


def test_groupings_partition_total():
    """``by_function``, ``by_world``, ``by_region`` and ``by_variable``
    each partition the executed pcs: their tallies sum to ``total()``
    field by field, integer-exactly."""
    binary = harness.get_binary(
        "crc32", CompilerConfig.bitspec("max"), profile_kind="train"
    )
    sim = binary.run(get_workload("crc32").inputs("test", 0), obs=True)
    attribution = attribute(binary.linked, sim.obs)
    want = _summed([attribution.total()])
    assert want[0]["misspeculations"] > 0
    for name in ("by_function", "by_world", "by_region", "by_variable"):
        groups = getattr(attribution, name)()
        assert len(groups) > 1, name
        assert _summed(list(groups.values())) == want, name


def test_attribute_requires_obs_sample():
    binary = _misspec_binary()
    sim = binary.run({"n": 5})
    assert sim.obs is None
    with pytest.raises(ValueError, match="obs"):
        attribute(binary.linked, sim.obs)


def test_obs_forces_fast_path(monkeypatch):
    """REPRO_MACHINE_ENGINE=legacy is ignored for obs runs; an explicit
    engine="legacy" raises."""
    binary = _misspec_binary()
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "legacy")
    sim = binary.run({"n": 200}, obs=True)
    assert sim.obs is not None  # fast path ran despite the env override
    machine = Machine(binary.linked, binary.module, obs=True, engine="legacy")
    with pytest.raises(ValueError, match="fast path"):
        machine.run()


# -- legacy-engine equivalence -------------------------------------------------


def _legacy_trace_counts(binary, inputs):
    """Per-pc exec/misspec/taken counts derived from a legacy pc trace."""
    from repro.core.pipeline import set_global_inputs

    if inputs:
        set_global_inputs(binary.module, inputs)
    trace = []
    machine = Machine(
        binary.linked,
        binary.module,
        trace_hook=lambda pc, regs: trace.append(pc),
        engine="legacy",
    )
    sim = machine.run()
    n = len(binary.linked.insts)
    execs, misspecs, taken = [0] * n, [0] * n, [0] * n
    delta = binary.linked.delta
    insts = binary.linked.insts
    for i, pc in enumerate(trace):
        execs[pc] += 1
        nxt = trace[i + 1] if i + 1 < len(trace) else None
        if nxt is None:
            continue
        if insts[pc].opcode.startswith("bs_") and nxt == pc + delta:
            misspecs[pc] += 1
        if insts[pc].opcode == "bcond" and nxt != pc + 1:
            taken[pc] += 1
    return sim, execs, misspecs, taken


CORPUS_PROGRAMS = sorted(
    (Path(__file__).parent / "corpus").glob("*.json"),
    key=lambda p: p.name,
)[:3]


def _corpus_cases():
    import json

    for path in CORPUS_PROGRAMS:
        data = json.loads(path.read_text())
        yield path.name, data


@pytest.mark.parametrize(
    "name,data", list(_corpus_cases()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_fast_obs_matches_legacy_trace(name, data):
    """Fast-path PcSample == event counts derived from a legacy pc trace."""
    binary = compile_binary(
        data["source"],
        CompilerConfig.bitspec("max"),
        profile_inputs=data["inputs_profile"],
    )
    legacy_sim, execs, misspecs, taken = _legacy_trace_counts(
        binary, data["inputs_run"]
    )
    fast_sim = binary.run(data["inputs_run"], obs=True)
    sample = fast_sim.obs
    assert fast_sim.output == legacy_sim.output
    assert fast_sim.counters == legacy_sim.counters
    assert list(sample.exec_counts) == execs
    assert list(sample.misspecs) == misspecs
    assert list(sample.taken) == taken


# -- events --------------------------------------------------------------------


def test_events_from_sample_pairs_handlers():
    binary = _misspec_binary()
    sim = binary.run({"n": 200}, obs=True)
    events = list(events_from_sample(sim.obs, binary.linked.debug))
    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + event.count
    assert counts["misspeculation"] == sim.misspeculations
    assert counts["handler_enter"] == counts["misspeculation"]
    assert counts["handler_exit"] == counts["handler_enter"]
    miss = next(e for e in events if e.kind == "misspeculation")
    assert miss.info.startswith("handler@")
    # batched: no event appears with count 0, none at a never-executed pc
    for event in events:
        assert event.count > 0
        assert sim.obs.exec_counts[event.pc] > 0


def test_dts_mode_events_only_for_scaled_classes():
    profile = {"alu32": 0.85, "mul": 1.0, "move": 0.62}
    events = list(
        dts_mode_events({"alu32": 10, "mul": 5, "move": 0}, profile)
    )
    # mul runs at nominal (1.0) and move never executed: only alu32 switches
    assert len(events) == 1
    assert events[0].kind == "dts_mode_switch"
    assert events[0].count == 10
    assert "alu32" in events[0].info


def test_source_var_normalization():
    assert source_var("x.loop.1.sp.n.5") == "x"
    assert source_var("crc") == "crc"
    assert source_var("") == ""


# -- pass statistics -----------------------------------------------------------


def test_pass_stats_scoped_registry():
    stats.bump("nobody", "listening")  # no scope open: must be a no-op
    with stats.collecting() as scope:
        stats.bump("squeezer", "variables_narrowed", 3)
        stats.bump("squeezer", "variables_narrowed")
        stats.bump("dce", "instructions_removed", 0)  # falsy: not recorded
        snap = stats.snapshot(scope)
    assert snap == {"squeezer": {"variables_narrowed": 4}}
    stats.bump("nobody", "listening")  # scope closed again


def test_compile_binary_collects_pass_stats():
    binary = _misspec_binary()
    assert "squeezer" in binary.pass_stats
    assert binary.pass_stats["regalloc"]["vregs_assigned"] > 0


def test_pass_stats_survive_bench_cache_roundtrip():
    from repro.bench.cache import payload_to_record, record_to_payload

    harness.clear_caches()
    record = harness.run("crc32", CompilerConfig.bitspec("max"))
    assert record.pass_stats  # populated from the binary
    payload = record_to_payload(record)
    back = payload_to_record(payload, record.config)
    assert back.pass_stats == record.pass_stats


# -- the report ----------------------------------------------------------------


def _mini_report_text() -> str:
    harness.clear_caches()
    chunks = []
    for workload in ("crc32", "sha", "bitcount"):
        report = build_report(
            workload,
            CompilerConfig.bitspec("max"),
            profile_kind="train",
        )
        assert report.mismatches == []
        chunks.append(render_text(report, top=5))
    return "\n".join(chunks)


@pytest.mark.slow
def test_obs_report_golden_mini_roster():
    text = _mini_report_text()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(text)
    expected = GOLDEN.read_text()
    assert text == expected, (
        "obs report drifted from tests/golden/obs_report_mini.txt "
        "(REPRO_UPDATE_GOLDEN=1 regenerates after inspection)"
    )


def test_report_json_artifact(monkeypatch):
    import json

    report = build_report(
        "crc32", CompilerConfig.bitspec("max"), profile_kind="train"
    )
    data = render_json(report)
    json.dumps(data)  # must be serializable
    # the same document with every region translated on first entry
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
    harness.clear_caches()
    assert render_json(build_report(
        "crc32", CompilerConfig.bitspec("max"), profile_kind="train"
    )) == data
    assert data["conservation"]["exact"] is True
    assert data["totals"]["misspeculations"] == report.sim.misspeculations
    assert data["top_misspeculating"]  # train-profile crc32 really misspeculates
    assert data["baseline"]["totals"]["energy_pj"] > 0
    # shares re-sum: per-variable energies add up to the total
    var_sum = sum(v["energy_pj"] for v in data["variables"].values())
    assert var_sum == pytest.approx(data["totals"]["energy_pj"], rel=1e-6)


@pytest.mark.slow
def test_obs_overhead_under_budget():
    """obs + attribution must stay under 2x a plain run (mini roster)."""
    import time

    plain_total = obs_total = 0.0
    for name in ("crc32", "sha", "bitcount"):
        binary = harness.get_binary(name, CompilerConfig.bitspec("max"))
        inputs = get_workload(name).inputs("test", 0)
        binary.run(inputs)  # warm the predecode cache
        t0 = time.perf_counter()
        binary.run(inputs)
        plain_total += time.perf_counter() - t0
        t0 = time.perf_counter()
        sim = binary.run(inputs, obs=True)
        attribute(binary.linked, sim.obs).total()
        obs_total += time.perf_counter() - t0
    assert obs_total < 2.0 * plain_total


def test_cli_report_smoke(capsys):
    from repro.obs.__main__ import main

    rc = main(
        [
            "report",
            "--workload",
            "crc32",
            "--config",
            "BITSPEC",
            "--profile-kind",
            "train",
            "--top",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "conservation vs SimResult aggregates: exact" in out
    assert "top misspeculating variables" in out
    assert "BASELINE vs bitspec-max" in out


def test_cli_rejects_unknown_config():
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit):
        main(["report", "--workload", "crc32", "--config", "warpspeed"])
