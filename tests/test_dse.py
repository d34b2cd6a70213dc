"""The repro.dse contract: anchors, monotonicity, reproducibility, CLI.

Four families:

* **anchor identities** — the width-32 design point reproduces BASELINE
  event counts bit-for-bit, and the all-defaults point reproduces the
  BITSPEC headline numbers unchanged (the sweep is anchored to the
  paper at both ends);
* **metamorphic** — on a corpus of generated fuzz programs, widening the
  slice can only reduce misspeculations (a wider slice accepts a
  superset of values), and never changes program output;
* **reproducibility** — a sweep document is a pure function of its
  inputs: rerunning against a warm disk cache yields byte-identical
  JSON;
* **mechanics** — space enumeration, search strategies, Pareto/best/
  sensitivity folds, the obs-backed ``--explain``, and the CLI.
"""

import dataclasses
import json

import pytest

from repro.arch.energy import EnergyCounters
from repro.arch.machine import SimResult
from repro.core.pipeline import CompilerConfig, compile_binary
from repro.dse import (
    PRESETS,
    PointRow,
    SpecPoint,
    SpecSpace,
    explain_point,
    pareto_front,
    run_sweep,
)
from repro.dse.__main__ import main as dse_main
from repro.dse.search import random_search, successive_halving
from repro.eval import harness
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import _expander


@pytest.fixture(autouse=True)
def _reset_disk_cache():
    """dse entry points may install a disk cache; never leak it."""
    yield
    harness.set_disk_cache(None)


def _sims_identical(a, b) -> None:
    """Assert two SimResults agree on every persisted field, bit for bit."""
    for f in dataclasses.fields(SimResult):
        if f.name in ("memory", "obs", "slice_width"):
            continue  # engine/observer state, not event counts
        if f.name == "counters":
            for cf in dataclasses.fields(EnergyCounters):
                assert getattr(a.counters, cf.name) == getattr(
                    b.counters, cf.name
                ), f"counters.{cf.name} diverged"
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f"{f.name} diverged"


# ---------------------------------------------------------------------------
# anchor identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["crc32", "sha"])
def test_width32_point_matches_baseline_exactly(workload):
    """Slice width 32 IS the BASELINE build — event counts bit-for-bit."""
    point = harness.run(workload, SpecPoint(slice_width=32).to_config())
    base = harness.run(workload, CompilerConfig.baseline())
    _sims_identical(point.sim, base.sim)
    assert point.total_energy == base.total_energy


@pytest.mark.parametrize("workload", ["crc32", "sha"])
def test_default_point_matches_bitspec_headline(workload):
    """The all-defaults point IS BITSPEC — headline numbers unchanged."""
    point = harness.run(workload, SpecPoint().to_config())
    spec = harness.run(workload, CompilerConfig.bitspec("max"))
    _sims_identical(point.sim, spec.sim)
    assert point.total_energy == spec.total_energy


# ---------------------------------------------------------------------------
# metamorphic: slice width monotonicity on the fuzz corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [5, 12, 17, 24, 26])
def test_misspecs_monotone_nonincreasing_in_slice_width(seed):
    """With the squeezed set held fixed, a wider slice accepts a superset
    of values, so widening can only remove misspeculations — and output
    is invariant throughout.

    The set must be held fixed via ``confidence_margin`` (each pair
    selects exactly the profiled-bw ≤ 4 definitions): raw widths change
    *which* variables get squeezed (bw 5–8 squeezes at width 8 but not
    at width 4), which breaks naive per-width monotonicity.
    """
    program = generate_program(seed)
    expander = _expander(program)
    misspecs = {}
    outputs = {}
    for width, margin in ((4, 0), (8, 4), (16, 12), (32, 0)):
        config = CompilerConfig.bitspec(
            "max",
            expander=expander,
            slice_width=width,
            confidence_margin=margin,
        )
        binary = compile_binary(
            program.source, config, profile_inputs=program.inputs_profile
        )
        sim = binary.run(program.inputs_run)
        misspecs[width] = sim.misspeculations
        outputs[width] = sim.output
    assert misspecs[4] >= misspecs[8] >= misspecs[16] >= misspecs[32]
    assert misspecs[4] > 0, "seed chosen to actually misspeculate at w4"
    assert misspecs[32] == 0  # nothing is narrower than a register
    assert outputs[4] == outputs[8] == outputs[16] == outputs[32]


# ---------------------------------------------------------------------------
# reproducibility: warm-cache sweeps are byte-identical
# ---------------------------------------------------------------------------


def test_sweep_json_reproducible_against_warm_cache(tmp_path):
    space, workloads = PRESETS["smoke"]
    cache_dir = tmp_path / "cache"
    kwargs = dict(preset="smoke", jobs=1, cache_dir=cache_dir)
    cold = run_sweep(space, workloads, **kwargs).to_json()
    harness.set_disk_cache(None)
    harness.clear_caches()  # fresh process, warm disk
    warm = run_sweep(space, workloads, **kwargs).to_json()
    assert cold == warm
    document = json.loads(warm)
    assert document["evaluations"] == space.size * len(workloads)
    assert all(r["status"] == "ok" for r in document["rows"])


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------


def test_mini_preset_meets_sweep_floor():
    space, workloads = PRESETS["mini"]
    assert space.size >= 24
    assert len(workloads) >= 2


def test_point_labels_are_unique_per_space():
    for name, (space, _workloads) in PRESETS.items():
        labels = [p.label() for p in space.points()]
        assert len(set(labels)) == len(labels), f"{name} labels collide"


def test_point_dict_round_trip():
    point = SpecPoint(
        slice_width=16, squeeze_ops=("add", "xor"), min_hotness=0.1,
        confidence_margin=1, dts=True, l1_kb=4,
    )
    assert SpecPoint.from_dict(point.as_dict()) == point


def test_space_rejects_unknown_and_invalid():
    with pytest.raises(ValueError):
        SpecSpace(not_a_knob=(1, 2))
    with pytest.raises(ValueError):
        SpecSpace(slice_width=(7,))
    with pytest.raises(ValueError):
        SpecSpace(slice_width=())


def test_points_enumeration_is_deterministic():
    space = SpecSpace(slice_width=(8, 16), l1_kb=(4, 8))
    assert [p.label() for p in space.points()] == [
        p.label() for p in space.points()
    ]
    assert len(space.points()) == space.size == 4


# ---------------------------------------------------------------------------
# analysis folds
# ---------------------------------------------------------------------------


def _row(width, workload="w", energy=1.0, cycles=100, misspecs=0, status="ok"):
    return PointRow(
        point=SpecPoint(slice_width=width),
        workload=workload,
        status=status,
        instructions=1000,
        cycles=cycles,
        misspeculations=misspecs,
        energy_pj=energy,
    )


def test_pareto_front_drops_dominated_and_failed():
    dominated = _row(4, energy=2.0, cycles=200, misspecs=5)
    winner = _row(8, energy=1.0, cycles=100)
    failed = _row(16, energy=0.1, cycles=1, status="failed")
    front = pareto_front([dominated, winner, failed])
    assert front == [winner]


def test_pareto_front_keeps_tradeoffs():
    fast = _row(4, energy=2.0, cycles=50)
    frugal = _row(8, energy=1.0, cycles=100)
    front = pareto_front([fast, frugal])
    assert set(id(r) for r in front) == {id(fast), id(frugal)}


# ---------------------------------------------------------------------------
# search strategies
# ---------------------------------------------------------------------------


def test_random_search_is_seeded_and_bounded(tmp_path):
    space = SpecSpace(slice_width=(8, 32), l1_kb=(4, 8))
    rows1, n1 = random_search(
        space, ("crc32",), n=2, seed=7, cache_dir=tmp_path / "c"
    )
    harness.set_disk_cache(None)
    rows2, n2 = random_search(
        space, ("crc32",), n=2, seed=7, cache_dir=tmp_path / "c"
    )
    assert n1 == n2 == 2
    assert [r.point for r in rows1] == [r.point for r in rows2]


def test_successive_halving_prunes_to_full_roster(tmp_path):
    space = SpecSpace(slice_width=(4, 8, 16, 32))
    workloads = ("crc32", "sha", "bitcount")
    rows, evaluations = successive_halving(
        space, workloads, eta=2, cache_dir=tmp_path / "c"
    )
    survivors = {r.point for r in rows}
    # the final rung measures every survivor on the full roster
    assert len(rows) == len(survivors) * len(workloads)
    assert len(survivors) < space.size
    assert evaluations > len(rows)  # earlier rungs did real (cached) work


# ---------------------------------------------------------------------------
# explain: obs attribution of the winner
# ---------------------------------------------------------------------------


def test_explain_attributes_delta_and_conserves():
    explanation = explain_point(SpecPoint(), "sha")
    assert explanation["conservation_violations"] == []
    assert explanation["winner"] == "dse-w8"
    assert explanation["reference"] == "dse-w32"
    assert explanation["savings"] > 0
    assert explanation["movers"], "no per-variable movers reported"
    # movers must re-sum toward the total delta's sign
    assert any(m["delta_pj"] < 0 for m in explanation["movers"])
    assert explanation["regions"], "winner has speculative regions"


def test_explain_labels_regions_by_ordinal():
    """Raw region ids come from a process-wide counter; the explanation
    must not depend on how much compilation ran before it."""
    first = explain_point(SpecPoint(), "sha")
    harness.clear_caches()
    harness.get_binary("fft", CompilerConfig.bitspec("max"))
    second = explain_point(SpecPoint(), "sha")
    assert second == first
    assert all(
        r["region"].startswith(f"{r['function']}#SR") for r in first["regions"]
    )


# ---------------------------------------------------------------------------
# the figure
# ---------------------------------------------------------------------------


def test_fig_dse_tradeoff_normalizes_to_width32():
    from repro.eval.figures import fig_dse_tradeoff

    fig = fig_dse_tradeoff(benchmarks=("sha",), widths=(8, 32))
    by_width = {r["slice_width"]: r for r in fig["rows"]}
    assert by_width[32]["energy_rel"] == 1.0
    assert by_width[8]["energy_rel"] < 1.0  # sha's headline saving
    assert fig["best_width"] == 8


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_pareto_best_explain(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert dse_main(["sweep", "--preset", "smoke", "--jobs", "1", "--quiet"]) == 0
    harness.set_disk_cache(None)
    harness.clear_caches()
    document = json.loads((tmp_path / "DSE_smoke.json").read_text())
    assert {"rows", "pareto", "best", "sensitivity"} <= set(document)
    assert "generated" not in document  # determinism: no timestamps

    # --check: the warm rerun must reproduce the file byte-identically
    assert dse_main(
        ["sweep", "--preset", "smoke", "--jobs", "1", "--quiet", "--check"]
    ) == 0
    harness.set_disk_cache(None)
    out = capsys.readouterr().out
    assert "reproduced byte-identically" in out

    assert dse_main(["pareto", "--preset", "smoke"]) == 0
    assert "non-dominated" in capsys.readouterr().out

    assert dse_main(["best", "--preset", "smoke", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "best config" in out
    assert "saves" in out  # at least one winner was attributed
