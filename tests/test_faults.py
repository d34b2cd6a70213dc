"""Fault-injection layer: plans, sessions, classification, campaigns.

Four families:

* **plan derivation** — deterministic, stable across processes, and
  serializable (plans are what make campaign documents reproducible);
* **engine parity under faults** — the legacy and predecoded engines must
  stay bit-identical even while a FaultSession is bending their spec
  verdicts and corrupting their state;
* **classification** — each fault kind lands in the documented coverage
  category on a fixed program, and the recovery guarantee (a spurious
  misspeculation can never corrupt output) holds;
* **campaigns** — same seed ⇒ byte-identical canonical JSON, warm or
  cold, serial or parallel; the CLI round-trips the same matrix.
"""

import json

import pytest

from repro.arch.machine import FaultTrap, Machine, MachineError
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.eval import harness
from repro.faults import (
    DETECTABLE_KINDS,
    FAULT_KINDS,
    SPEC_KINDS,
    STEP_KINDS,
    FaultPlan,
    FaultSession,
    GoldenProfile,
    derive_plan,
)
from repro.faults.campaign import (
    DETECTED_RECOVERED,
    DETECTED_UNRECOVERABLE,
    MASKED,
    SDC,
    golden_profile,
    resolve_config,
    run_campaign,
    run_injection,
    to_canonical_json,
)
from repro.faults.plan import detectable_kinds

#: profiled with a small seed and run with a large one, so BITSPEC T=MIN
#: genuinely misspeculates (live trigger pools for every spec-fault kind)
SOURCE = """
u32 n;
u32 acc;
void main() {
    u32 x = n;
    for (u32 i = 0; i < 30; i += 1) {
        x = (x + i) & 1023;
        acc = acc + x;
    }
    out(acc);
    out(x);
}
"""

RUN_INPUTS = {"n": 200}


@pytest.fixture(scope="module")
def golden():
    binary = compile_binary(
        SOURCE, CompilerConfig.bitspec("min"), profile_inputs={"n": 3}
    )
    sim = binary.run(RUN_INPUTS, obs=True)
    return binary, sim, golden_profile(binary, sim)


# ---------------------------------------------------------------------------
# plan derivation
# ---------------------------------------------------------------------------


PROFILE = GoldenProfile(
    instructions=1000, misspeculations=7, spec_successes=40,
    mem_base=0x1000, mem_span=64,
)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_derive_plan_is_deterministic(kind):
    a = derive_plan(kind, 1234, PROFILE)
    b = derive_plan(kind, 1234, PROFILE)
    assert a == b
    assert derive_plan(kind, 1235, PROFILE).seed != a.seed


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_plan_round_trips_through_dict(kind):
    plan = derive_plan(kind, 99, PROFILE, parity=True)
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    assert plan.describe()  # never empty, never raises


def test_plan_fields_respect_the_golden_profile():
    for seed in range(50):
        step = derive_plan("rf_bit", seed, PROFILE)
        assert 1 <= step.trigger_step <= PROFILE.instructions
        assert 0 <= step.reg < 13 and 0 <= step.bit < 32
        mem = derive_plan("mem_bit", seed, PROFILE)
        assert PROFILE.mem_base <= mem.addr < PROFILE.mem_base + PROFILE.mem_span
        spec = derive_plan("misspec_suppress", seed, PROFILE)
        assert 1 <= spec.nth_event <= PROFILE.misspeculations
        spur = derive_plan("misspec_spurious", seed, PROFILE)
        assert 1 <= spur.nth_event <= PROFILE.spec_successes


def test_empty_event_pool_gives_untriggered_plan():
    quiet = GoldenProfile(
        instructions=10, misspeculations=0, spec_successes=0,
        mem_base=0x1000, mem_span=4,
    )
    plan = derive_plan("misspec_suppress", 0, quiet)
    assert plan.nth_event == 1  # unreachable: the run has no event #1
    session = FaultSession(plan)
    assert session.spec_outcome(False) is False
    assert not session.triggered


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        derive_plan("cosmic_ray", 0, PROFILE)


def test_kind_partition():
    from repro.faults.plan import RECOVERY_KINDS

    assert STEP_KINDS | SPEC_KINDS | RECOVERY_KINDS == frozenset(FAULT_KINDS)
    assert not STEP_KINDS & SPEC_KINDS
    assert not (STEP_KINDS | SPEC_KINDS) & RECOVERY_KINDS
    assert DETECTABLE_KINDS == frozenset(
        {"misspec_spurious", "dts_timing", "ooo_flush_drop"}
    )
    assert detectable_kinds(parity=True) == DETECTABLE_KINDS | {
        "mem_bit", "icache", "ooo_ckpt_bit"
    }


# ---------------------------------------------------------------------------
# session semantics
# ---------------------------------------------------------------------------


def test_session_suppress_eats_exactly_the_nth_miss():
    plan = FaultPlan("misspec_suppress", 0, nth_event=2)
    session = FaultSession(plan)
    assert session.spec_outcome(True) is True     # event 1 passes through
    assert session.spec_outcome(False) is False   # successes don't count
    assert session.spec_outcome(True) is False    # event 2: suppressed
    assert session.triggered
    assert session.spec_outcome(True) is True     # later misses unharmed


def test_session_spurious_asserts_exactly_the_nth_success():
    session = FaultSession(FaultPlan("misspec_spurious", 0, nth_event=2))
    assert session.spec_outcome(False) is False
    assert session.spec_outcome(False) is True  # second success flipped
    assert session.triggered
    assert session.spec_outcome(False) is False


def test_session_delta_drop_sabotages_one_redirect():
    session = FaultSession(FaultPlan("delta_drop", 0, nth_event=1))
    assert session.spec_outcome(True) is True  # the miss itself stands
    assert session.redirect(100, 40) == 101    # ... but the Δ jump is dropped
    assert session.redirect(100, 40) == 140    # later redirects are normal


def test_session_delta_misroute_displaces_one_redirect():
    session = FaultSession(FaultPlan("delta_misroute", 0, nth_event=1, offset=3))
    session.spec_outcome(True)
    assert session.redirect(100, 40) == 143
    assert session.redirect(100, 40) == 140


def test_session_parity_trap_on_mem_bit():
    plan = FaultPlan("mem_bit", 0, trigger_step=1, addr=0x1000, bit=0,
                     parity=True)
    session = FaultSession(plan)
    with pytest.raises(FaultTrap):
        session.on_step(1, 0, [0] * 16, None)
    assert session.detected_by_parity


def test_session_razor_replay_counts_cycles():
    session = FaultSession(FaultPlan("dts_timing", 0, trigger_step=3))
    assert session.on_step(2, 0, [], None) is None
    session.on_step(3, 0, [], None)
    assert session.razor_recoveries == 1
    assert session.extra_cycles > 0


# ---------------------------------------------------------------------------
# engine parity under faults
# ---------------------------------------------------------------------------


def _engine_result(binary, plan, engine):
    set_global_inputs(binary.module, RUN_INPUTS)
    machine = Machine(
        binary.linked, binary.module,
        faults=FaultSession(plan), engine=engine, step_limit=5000,
    )
    try:
        sim = machine.run()
        return ("ok", sim.output, sim.misspeculations, sim.instructions)
    except FaultTrap as exc:
        return ("trap", str(exc))
    except (MachineError, MemoryError, OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_engines_agree_under_faults(golden, kind):
    """Legacy and predecoded engines stay bit-identical on faulted runs —
    output, misspeculation count, instruction count, or the exact same
    trap, for every kind and several seeds (parity on and off)."""
    binary, _, profile = golden
    for seed in range(4):
        plan = derive_plan(kind, seed, profile, parity=seed % 2 == 1)
        fast = _engine_result(binary, plan, "fast")
        legacy = _engine_result(binary, plan, "legacy")
        assert fast == legacy, f"{kind} seed {seed}: {fast} != {legacy}"


def test_no_fault_run_is_unperturbed(golden):
    binary, golden_sim, _ = golden
    again = binary.run(RUN_INPUTS)
    assert again.output == golden_sim.output
    assert again.instructions == golden_sim.instructions
    assert again.misspeculations == golden_sim.misspeculations


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_dts_timing_always_recovers(golden):
    """Razor-detected timing errors are detected + replayed by design."""
    binary, golden_sim, profile = golden
    for seed in range(5):
        plan = derive_plan("dts_timing", seed, profile)
        record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
        assert record["category"] == DETECTED_RECOVERED
        assert record["mechanism"] == "razor-replay"
        assert record["razor_recoveries"] == 1


def test_spurious_misspec_never_corrupts(golden):
    """The recovery guarantee: a spuriously asserted misspec signal routes
    through the Δ handler, which re-executes wide — output must match the
    golden run for every seed (the fault is absorbed, never SDC)."""
    binary, golden_sim, profile = golden
    for seed in range(5):
        plan = derive_plan("misspec_spurious", seed, profile)
        record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
        assert record["triggered"]
        assert record["output_matches"], f"seed {seed} corrupted output"
        assert record["category"] in (DETECTED_RECOVERED, MASKED)


def test_suppressed_misspec_is_silent_corruption(golden):
    """Suppressing the slice carry-out is the one *undetectable* fault the
    paper's net cannot catch: the wrong narrow writeback commits.  The
    campaign must call that SDC — not masked, not recovered."""
    binary, golden_sim, profile = golden
    plan = derive_plan("misspec_suppress", 0, profile)
    record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
    assert record["triggered"]
    assert record["category"] == SDC
    assert "misspec_suppress" not in DETECTABLE_KINDS


def test_parity_turns_mem_corruption_into_a_trap(golden):
    binary, golden_sim, profile = golden
    plan = derive_plan("mem_bit", 0, profile, parity=True)
    record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
    assert record["category"] == DETECTED_UNRECOVERABLE
    assert record["mechanism"] == "parity-trap"
    assert not record["output_matches"]


def test_delta_drop_detected_via_extra_misspecs(golden):
    """A dropped redirect leaves the misspec *detected* (counted) but the
    recovery incomplete — classified unrecoverable, never silent."""
    binary, golden_sim, profile = golden
    plan = derive_plan("delta_drop", 0, profile)
    record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
    assert record["category"] == DETECTED_UNRECOVERABLE
    assert record["mechanism"] == "delta-handler"


def test_untriggered_plan_classifies_masked(golden):
    """A plan waiting for an event ordinal the run never reaches stays
    untriggered and is reported as masked, not dropped."""
    binary, golden_sim, _ = golden
    plan = FaultPlan("delta_misroute", 0, nth_event=99, offset=1)
    record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
    assert record["category"] == MASKED
    assert not record["triggered"]


def test_recovered_faults_carry_attribution():
    """Recovered injections name the absorbing site: function, world,
    region and Δ handler from the obs provenance maps (bitcount under
    T=MIN has enough live regions for spurious asserts to land in one)."""
    from repro.faults.campaign import _golden_for

    binary, inputs, golden_sim, profile = _golden_for(
        "bitcount", resolve_config("bitspec-min")
    )
    hits = []
    for seed in range(6):
        plan = derive_plan("misspec_spurious", seed, profile)
        record = run_injection(binary, inputs, plan, golden_sim)
        assert record["output_matches"]  # the recovery guarantee again
        hits.extend(record["absorbed_by"])
    assert hits, "no spurious seed was absorbed by a region"
    for site in hits:
        assert site["world"] == "spec"
        assert site["function"] in binary.module.functions
        assert site["extra_misspecs"] >= 1
        assert site["handler"] is not None and site["region"] is not None


# ---------------------------------------------------------------------------
# campaigns: reproducibility + CLI
# ---------------------------------------------------------------------------

GRID = dict(
    workloads=("bitcount",),
    config_names=("bitspec-min",),
    kinds=("rf_bit", "misspec_spurious", "dts_timing"),
    seed=7,
    per_kind=1,
)


@pytest.fixture(autouse=True)
def _isolate_harness_caches():
    yield
    harness.set_disk_cache(None)
    harness.clear_caches()


def test_campaign_json_is_byte_stable_warm_or_cold(tmp_path):
    """Same seed ⇒ byte-identical matrix: cold disk cache, then warm disk
    cache, then no disk cache at all (in-process golden memo)."""
    cold = to_canonical_json(run_campaign(cache_dir=tmp_path / "c", **GRID))
    warm = to_canonical_json(run_campaign(cache_dir=tmp_path / "c", **GRID))
    memo = to_canonical_json(run_campaign(**GRID))
    assert cold == warm == memo
    assert json.loads(cold)["summary"]["errors"] == 0


def test_campaign_seed_changes_the_matrix(tmp_path):
    a = run_campaign(cache_dir=tmp_path / "c", **GRID)
    b = run_campaign(cache_dir=tmp_path / "c", **{**GRID, "seed": 8})
    plans_a = [c["plan"] for c in a["cells"]]
    plans_b = [c["plan"] for c in b["cells"]]
    assert plans_a != plans_b


def test_campaign_summary_gates_on_detectable_sdc(golden):
    binary, golden_sim, profile = golden
    from repro.faults.campaign import summarize

    cells = []
    for kind in FAULT_KINDS:
        plan = derive_plan(kind, 0, profile)
        record = run_injection(binary, RUN_INPUTS, plan, golden_sim)
        record.update({"kind": kind, "status": "ok"})
        cells.append(record)
    summary = summarize(cells, parity=False)
    assert summary["cells"] == len(FAULT_KINDS)
    assert summary["sdc_in_detectable_kinds"] == 0
    # ... while the same cells under a stricter detectability claim would
    # count the suppress-SDC, proving the gate actually reads categories
    histogram = summary["per_kind"]["misspec_suppress"]
    assert histogram.get(SDC, 0) == 1


def test_resolve_config_aliases():
    assert resolve_config("baseline").isa == "ARM"
    assert resolve_config("bitspec-min").heuristic == "min"
    assert resolve_config("thumb").isa == "THUMB"
    assert resolve_config("dts-bitspec-max").voltage_scaling == "timesqueezing"
    with pytest.raises(ValueError):
        resolve_config("riscv")


def test_unknown_config_is_an_error_cell_not_a_baseline_run():
    matrix = run_campaign(
        workloads=["bitcount"], config_names=["bitspec-foo"],
        kinds=["rf_bit"], per_kind=1,
    )
    (cell,) = matrix["cells"]
    assert cell["status"] == "error" and cell["category"] == "error"
    assert "unknown config" in cell["error"]
    assert matrix["summary"]["errors"] == 1


def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.faults.__main__ import main

    out = tmp_path / "matrix.json"
    code = main([
        "campaign", "--workloads", "bitcount", "--configs", "bitspec-min",
        "--kinds", "dts_timing,misspec_spurious", "--per-kind", "1",
        "--seed", "7", "--json", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fault coverage matrix" in printed
    matrix = json.loads(out.read_text())
    assert matrix["summary"]["sdc_in_detectable_kinds"] == 0
    assert out.read_text() == to_canonical_json(matrix)


def test_cli_rejects_unknown_kind():
    from repro.faults.__main__ import main

    with pytest.raises(SystemExit):
        main(["campaign", "--kinds", "gamma_burst"])
