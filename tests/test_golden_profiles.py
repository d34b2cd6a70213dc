"""Golden interpreter runs: profiles, trace counters and post-squeeze runs.

``tests/golden/profiles.json`` pins what the IR interpreter measures and
computes, so a change to how it executes (not what) shows up as a named
drift instead of a silently different squeeze:

* ``profiles`` — per roster workload, the cfg-prepped IR traced on the
  harness's profile inputs (the run :meth:`BitwidthProfile.collect` makes
  inside ``compile_binary``): the SHA-256 of the profile's JSON and the
  :class:`~repro.interp.Trace` counters and histograms;
* ``interpret`` — per roster workload, the post-squeeze IR
  (``binary.interpret``) under ``bitspec-min`` (which misspeculates) and
  ``bitspec-max``: output, misspeculations per region and instruction count;
* ``corpus`` — the fuzz oracle's ``interp-ir`` level on every
  ``tests/corpus`` entry.

A small slice runs on every test run; the full grid is slow.  Regenerate
intentionally with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -m slow tests/test_golden_profiles.py

and review the JSON diff like any other code change.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import PRESETS, compile_binary, set_global_inputs
from repro.eval.harness import BENCHMARKS
from repro.frontend.codegen import compile_program
from repro.frontend.parser import parse
from repro.fuzz.corpus import iter_corpus
from repro.fuzz.oracles import STEP_LIMIT
from repro.interp import Interpreter
from repro.passes.cfg_prep import prepare_cfg_module
from repro.passes.expander import build_module
from repro.profiler.profile import BitwidthProfile
from repro.workloads import get_workload

GOLDEN = Path(__file__).parent / "golden" / "profiles.json"
CORPUS_DIR = Path(__file__).parent / "corpus"
INTERPRET_PRESETS = ("bitspec-min", "bitspec-max")

FAST_WORKLOADS = ("crc32", "bitcount")
FAST_CORPUS = ("seed000", "seed022")


def _counters(trace) -> dict:
    return {
        "instructions": trace.instructions,
        "int_instructions": trace.int_instructions,
        "declared_hist": {str(k): v for k, v in sorted(trace.declared_hist.items())},
        "required_hist": {str(k): v for k, v in sorted(trace.required_hist.items())},
    }


def _profile_digest(trace) -> str:
    text = BitwidthProfile.from_trace(trace).to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def _profile_case(workload_name: str) -> dict:
    workload = get_workload(workload_name)
    config = PRESETS["bitspec-max"]()
    module = build_module(workload.source, config.expander, workload_name)
    prepare_cfg_module(module)
    set_global_inputs(module, workload.inputs("test", 0))
    result = Interpreter(module, trace=True).run("main")
    return {"profile_sha256": _profile_digest(result.trace), **_counters(result.trace)}


def _interpret_case(workload_name: str, preset: str) -> dict:
    workload = get_workload(workload_name)
    inputs = workload.inputs("test", 0)
    binary = compile_binary(
        workload.source, PRESETS[preset](), profile_inputs=inputs, name=workload_name
    )
    result = binary.interpret(inputs, trace=True)
    # region ids come from a process-wide counter: name a region by its
    # rank among its function's regions instead
    rank = {}
    for func in binary.module.functions.values():
        ids = sorted({b.region.id for b in func.blocks if b.region is not None})
        rank.update({(func.name, rid): i for i, rid in enumerate(ids)})
    return {
        "output": result.output,
        "return_value": result.return_value,
        "misspeculations": result.trace.misspeculations,
        "misspec_by_region": {
            f"{func}:{rank[func, region]}": count
            for (func, region), count in sorted(result.trace.misspec_by_region.items())
        },
        "instructions": result.trace.instructions,
    }


def _corpus_cases(names=None) -> dict:
    cases = {}
    for path, program in iter_corpus(CORPUS_DIR):
        if names is not None and path.stem not in names:
            continue
        module = compile_program(parse(program.source))
        if program.inputs_run:
            set_global_inputs(module, program.inputs_run)
        result = Interpreter(module, trace=True, step_limit=STEP_LIMIT).run()
        cases[path.stem] = {
            "output": result.output,
            "return_value": result.return_value,
            "misspeculations": result.trace.misspeculations,
            "profile_sha256": _profile_digest(result.trace),
            **_counters(result.trace),
        }
    return cases


def _golden() -> dict:
    assert GOLDEN.is_file(), "golden file missing — regenerate with REPRO_UPDATE_GOLDEN=1"
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", FAST_WORKLOADS)
def test_profile_matches_golden(workload):
    assert _profile_case(workload) == _golden()["profiles"][workload]


def test_interpret_matches_golden():
    assert (
        _interpret_case("crc32", "bitspec-min")
        == _golden()["interpret"]["crc32"]["bitspec-min"]
    )


def test_corpus_interp_matches_golden():
    golden = _golden()["corpus"]
    assert _corpus_cases(FAST_CORPUS) == {name: golden[name] for name in FAST_CORPUS}


@pytest.mark.slow
def test_every_run_matches_golden():
    grid = {
        "profiles": {name: _profile_case(name) for name in BENCHMARKS},
        "interpret": {
            name: {preset: _interpret_case(name, preset) for preset in INTERPRET_PRESETS}
            for name in BENCHMARKS
        },
        "corpus": _corpus_cases(),
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n")
    golden = _golden()
    moved = sorted(
        f"{section}/{name}"
        for section, rows in grid.items()
        for name, row in rows.items()
        if golden.get(section, {}).get(name) != row
    )
    assert not moved, (
        f"interpreter runs drifted from tests/golden/profiles.json: {moved}; if "
        "the change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert {section: sorted(rows) for section, rows in golden.items()} == {
        section: sorted(rows) for section, rows in grid.items()
    }
