"""The snapshot-resume contract: checkpointed runs are bit-identical.

For every corpus program and smoke-roster workload, on the legacy and
fast engines:

    run(checkpoint_at=N) -> snapshot; run(resume_from=snapshot)

must equal one uninterrupted run in *every* SimResult field (energy
counters and final memory image included) — the resume-equals-straight-
run contract from "Correctness of Speculative Optimizations with
Dynamic Deoptimization" (PAPERS.md), enforced bit-for-bit.  ``fast``'s
translated tier and the ``ooo`` engine degrade to the predecoded
stepper; the OoO committed view must still agree.

Also pinned here: the on-disk snapshot format (atomic save, load,
corruption rejection), multi-hop resume chains, snapshot reuse, and the
mismatch guards (wrong engine, wrong binary, fault composition).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch import predecode
from repro.arch.checkpoint import Snapshot, SnapshotError, program_fingerprint
from repro.arch.machine import Machine, committed_view
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.eval.harness import get_binary
from repro.fuzz.corpus import load_program
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload

from test_machine_predecode import assert_sims_identical

CORPUS_DIR = Path(__file__).parent / "corpus"

FULL_CORPUS = tuple(sorted(p.stem for p in CORPUS_DIR.glob("*.json")))

SMOKE_CORPUS = ("seed000", "seed009", "regression-shl-slice-carry")

SMOKE_WORKLOADS = ("crc32", "sha", "bitcount")

#: the engines with native snapshot support
CKPT_ENGINES = ("legacy", "fast")


def _corpus_binary(name: str, config=None):
    program = load_program(CORPUS_DIR / f"{name}.json")
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(
        config or CompilerConfig.bitspec("max"), expander=expander
    )
    binary = compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )
    return binary, program.inputs_run


def _machine(binary, inputs, engine):
    if inputs:
        set_global_inputs(binary.module, inputs)
    return Machine(binary.linked, binary.module, engine=engine)


def _cuts(n: int):
    """Boundary positions worth probing for an n-instruction run."""
    return sorted({0, 1, n // 3, n // 2, max(n - 1, 0)})


def assert_resume_identical(binary, inputs, engine, label):
    ref = _machine(binary, inputs, engine).run()
    for cut in _cuts(ref.instructions):
        snap = _machine(binary, inputs, engine).run(checkpoint_at=cut)
        assert isinstance(snap, Snapshot), f"{label}@{cut}: expected snapshot"
        assert snap.instructions == cut
        assert snap.engine == engine
        sim = _machine(binary, inputs, engine).run(resume_from=snap)
        assert_sims_identical(sim, ref, f"{label}@{cut}")


# -- corpus -------------------------------------------------------------------


@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_corpus_smoke_resume(name, ckpt_engine):
    binary, inputs = _corpus_binary(name)
    assert_resume_identical(binary, inputs, ckpt_engine, f"{name}/{ckpt_engine}")


@pytest.mark.slow
@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
@pytest.mark.parametrize("name", FULL_CORPUS)
def test_corpus_full_resume(name, ckpt_engine):
    binary, inputs = _corpus_binary(name)
    assert_resume_identical(binary, inputs, ckpt_engine, f"{name}/{ckpt_engine}")


# -- workload roster ----------------------------------------------------------


@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
@pytest.mark.parametrize("workload_name", SMOKE_WORKLOADS)
def test_workload_smoke_resume(workload_name, ckpt_engine):
    binary = get_binary(workload_name, CompilerConfig.bitspec("max"))
    inputs = get_workload(workload_name).inputs("test", 0)
    ref = _machine(binary, inputs, ckpt_engine).run()
    cut = ref.instructions // 2
    snap = _machine(binary, inputs, ckpt_engine).run(checkpoint_at=cut)
    sim = _machine(binary, inputs, ckpt_engine).run(resume_from=snap)
    assert_sims_identical(sim, ref, f"{workload_name}/{ckpt_engine}@{cut}")


@pytest.mark.slow
@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
def test_workload_roster_resume(ckpt_engine):
    from repro.eval.harness import BENCHMARKS

    config = CompilerConfig.bitspec("max")
    for workload_name in BENCHMARKS:
        binary = get_binary(workload_name, config)
        inputs = get_workload(workload_name).inputs("test", 0)
        ref = _machine(binary, inputs, ckpt_engine).run()
        cut = ref.instructions // 2
        snap = _machine(binary, inputs, ckpt_engine).run(checkpoint_at=cut)
        sim = _machine(binary, inputs, ckpt_engine).run(resume_from=snap)
        assert_sims_identical(sim, ref, f"{workload_name}/{ckpt_engine}@{cut}")


#: SHA-256 of fast-engine snapshot bytes (the ``save`` form) for the
#: bitspec-max test-input runs, recorded when the cache model still ran
#: inside the step loop: replaying the access log before a snapshot must
#: leave every byte where it was
GOLDEN_SNAPSHOTS = {
    ("crc32", 1): "ebeec0d3fd3f859e3ea204c285a606b47ef8d7c25c356fa0353e3bc2d9d892f9",
    ("crc32", 20000): "91be5497086a1f4e1d1c95b5dcec5ee63e0bb41f1ffb17fffb8323b35d90bcb3",
    ("crc32", 29771): "3a83d7da265a6c2375506b9bd6bbc6bccaba360aec8c36e7f03be99f604476a0",
    ("susan-edges", 1): "f77ef6d556a3eff9dc2154a99028cb73524165e08ef168a0aabe83328c6031a6",
    ("susan-edges", 20000): "d2991a0eb6b241ddcb9f21ea153554c5718a5d3eed2281d639fe454d92a06f45",
    ("susan-edges", 93198): "1a065d7ec12ce16cbf7920f82d3acff75e21855e3219fa203a8025c71ea20fbe",
}


@pytest.mark.parametrize("workload_name", ("crc32", "susan-edges"))
def test_fast_snapshot_bytes_are_golden(workload_name):
    binary = get_binary(workload_name, CompilerConfig.bitspec("max"))
    inputs = get_workload(workload_name).inputs("test", 0)
    ref = _machine(binary, inputs, "fast").run()
    for (name, cut), digest in GOLDEN_SNAPSHOTS.items():
        if name != workload_name:
            continue
        snap = _machine(binary, inputs, "fast").run(checkpoint_at=cut)
        data = json.dumps(
            snap.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        assert hashlib.sha256(data).hexdigest() == digest, f"{name}@{cut}"
        sim = _machine(binary, inputs, "fast").run(resume_from=snap)
        assert_sims_identical(sim, ref, f"{name}@{cut}")


# -- multi-hop chains and reuse ----------------------------------------------


@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
def test_multi_hop_chain(ckpt_engine):
    """snapshot -> resume-with-checkpoint -> ... -> final, bit-identical."""
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, ckpt_engine).run()
    n = ref.instructions
    hops = sorted({n // 4, n // 2, (3 * n) // 4})
    state = None
    for cut in hops:
        m = _machine(binary, inputs, ckpt_engine)
        state = m.run(checkpoint_at=cut, resume_from=state)
        assert isinstance(state, Snapshot)
    sim = _machine(binary, inputs, ckpt_engine).run(resume_from=state)
    assert_sims_identical(sim, ref, f"chain/{ckpt_engine}")


@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
def test_snapshot_reuse(ckpt_engine):
    """A snapshot owns its state: resuming twice gives the same result."""
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, ckpt_engine).run()
    snap = _machine(binary, inputs, ckpt_engine).run(
        checkpoint_at=ref.instructions // 2
    )
    first = _machine(binary, inputs, ckpt_engine).run(resume_from=snap)
    second = _machine(binary, inputs, ckpt_engine).run(resume_from=snap)
    assert_sims_identical(first, ref, f"reuse-1/{ckpt_engine}")
    assert_sims_identical(second, ref, f"reuse-2/{ckpt_engine}")


def test_checkpoint_past_halt_returns_result():
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, "fast").run()
    sim = _machine(binary, inputs, "fast").run(
        checkpoint_at=ref.instructions + 1000
    )
    assert not isinstance(sim, Snapshot)
    assert_sims_identical(sim, ref, "past-halt")


# -- engine degradation -------------------------------------------------------


def test_compiled_engine_degrades_bit_identical(monkeypatch):
    """A checkpoint on ``fast`` with every region translated on first
    entry steps the whole run, and loses nothing for it."""
    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", 0)
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, "fast").run()
    snap = _machine(binary, inputs, "fast").run(
        checkpoint_at=ref.instructions // 2
    )
    assert isinstance(snap, Snapshot)
    assert snap.engine == "fast"
    sim = _machine(binary, inputs, "fast").run(resume_from=snap)
    assert_sims_identical(sim, ref, "translated-degraded")


def test_ooo_engine_degrades_committed_view():
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, "ooo").run()
    snap = _machine(binary, inputs, "ooo").run(
        checkpoint_at=ref.instructions // 2
    )
    assert isinstance(snap, Snapshot)
    sim = _machine(binary, inputs, "ooo").run(resume_from=snap)
    assert committed_view(sim) == committed_view(ref)


# -- serialization ------------------------------------------------------------


@pytest.mark.parametrize("ckpt_engine", CKPT_ENGINES)
def test_save_load_round_trip(tmp_path, ckpt_engine):
    binary, inputs = _corpus_binary("seed000")
    ref = _machine(binary, inputs, ckpt_engine).run()
    snap = _machine(binary, inputs, ckpt_engine).run(
        checkpoint_at=ref.instructions // 2
    )
    path = tmp_path / "run.snapshot"
    snap.save(str(path))
    loaded = Snapshot.load(str(path))
    assert loaded.to_dict() == snap.to_dict()
    sim = _machine(binary, inputs, ckpt_engine).run(resume_from=loaded)
    assert_sims_identical(sim, ref, f"disk/{ckpt_engine}")


def test_save_is_deterministic(tmp_path):
    binary, inputs = _corpus_binary("seed000")
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=7)
    a, b = tmp_path / "a.snapshot", tmp_path / "b.snapshot"
    snap.save(str(a))
    snap.save(str(b))
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    binary, inputs = _corpus_binary("seed000")
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=7)
    path = tmp_path / "torn.snapshot"
    snap.save(str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # a crash mid-write
    with pytest.raises(SnapshotError):
        Snapshot.load(str(path))


def test_load_rejects_corrupt_memory(tmp_path):
    binary, inputs = _corpus_binary("seed000")
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=7)
    path = tmp_path / "bent.snapshot"
    snap.save(str(path))
    doc = json.loads(path.read_text())
    doc["memory_zb64"] = doc["memory_zb64"][:-40]
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError):
        Snapshot.load(str(path))


# -- mismatch guards ----------------------------------------------------------


def test_engine_mismatch_rejected():
    binary, inputs = _corpus_binary("seed000")
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=5)
    with pytest.raises(SnapshotError, match="engine"):
        _machine(binary, inputs, "legacy").run(resume_from=snap)


def test_wrong_binary_rejected():
    binary, inputs = _corpus_binary("seed000")
    other, other_inputs = _corpus_binary("seed009")
    snap = _machine(binary, inputs, "fast").run(checkpoint_at=5)
    assert program_fingerprint(binary.linked) != program_fingerprint(
        other.linked
    )
    with pytest.raises(SnapshotError, match="different linked program"):
        _machine(other, other_inputs, "fast").run(resume_from=snap)


def test_faults_do_not_compose():
    from repro.faults.plan import derive_plan
    from repro.faults.session import FaultSession

    binary, inputs = _corpus_binary("seed000")
    golden = _machine(binary, inputs, "fast").run()
    plan = derive_plan("rf_bit", 0, golden)
    machine = Machine(
        binary.linked, binary.module, engine="fast",
        faults=FaultSession(plan),
    )
    with pytest.raises(ValueError, match="does not compose"):
        machine.run(checkpoint_at=5)


def test_negative_checkpoint_rejected():
    binary, inputs = _corpus_binary("seed000")
    with pytest.raises(ValueError, match=">= 0"):
        _machine(binary, inputs, "fast").run(checkpoint_at=-1)
