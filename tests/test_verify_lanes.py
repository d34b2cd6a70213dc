"""Lane-level behaviour of the symbolic executor (:mod:`repro.verify`).

* **Golden lane digests.**  ``tests/golden/verify_lanes.json`` pins, per
  target and world, the SHA-256 of every lane's :class:`Observation` in
  lane order plus the exploration stats (``paths``, ``forks``,
  ``lane_steps``, ``misspec_lanes``).  It covers every ``tests/corpus``
  function at k=4, two 65,536-lane functions at k=8, a helper with an
  ``s64`` parameter and the five soundness canaries (with their
  counterexample lane).  A change to the lane representation must leave
  every digest where it is.  Regenerate intentionally with::

      REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_verify_lanes.py

* **Ground truth.**  Every lane of a few 256-lane functions, in both
  worlds, is replayed on the concrete ``fast`` engine: the trap verdicts
  agree, and clean lanes print the same ``out`` stream.
* **Lazy numpy.**  ``import repro.verify.__main__`` does not load numpy;
  the first :func:`verify_function` call does.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.fuzz.corpus import iter_corpus
from repro.verify import CANARIES, run_canary, verify_function
from repro.verify.executor import SymbolicMachine

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "verify_lanes.json"
CORPUS = TESTS / "corpus"
STATS = ("paths", "forks", "lane_steps", "misspec_lanes")

#: a helper whose symbolic input is a 64-bit global: its lanes hold the
#: int64 two's-complement pattern, and the signed compare runs on cmp64
S64_HELPER = """
u64 acc;
s64 scale(s64 a)
{
    s64 t = a * 3;
    if (t < -100)
    {
        t = 0 - t;
    }
    acc = acc + (u64)t;
    return t + 1000;
}
void main()
{
    out((u32)scale(7));
}
"""


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _corpus() -> dict:
    return {path.stem: program for path, program in iter_corpus(CORPUS)}


def _run_target(name: str, k: int) -> tuple:
    """Verify one target; returns ``(verdict, inputs_run)``."""
    canary = next((c for c in CANARIES if c["name"] == name), None)
    if canary is not None:
        return run_canary(canary), canary["inputs_run"]
    stem, function = name.split(":")
    if stem == "s64-helper":
        return verify_function(S64_HELPER, function, k=k), {}
    program = _corpus()[stem]
    verdict = verify_function(
        program.source,
        function,
        k=k,
        inputs_profile=program.inputs_profile,
        inputs_run=program.inputs_run,
        expander_enabled=program.expander_enabled,
        name=name,
    )
    return verdict, program.inputs_run


@pytest.fixture
def symbolic_runs(monkeypatch):
    """``(machine, observations)`` of every symbolic run in the test."""
    runs = []
    run = SymbolicMachine.run

    def recording_run(self):
        observations = run(self)
        runs.append((self, observations))
        return observations

    monkeypatch.setattr(SymbolicMachine, "run", recording_run)
    return runs


def _lane_digest(observations, n_lanes: int) -> str:
    digest = hashlib.sha256()
    for lane_id in range(n_lanes):
        obs = observations.at(lane_id)
        digest.update(repr((obs.trap, obs.out, obs.globals_image)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(_golden()))
def test_lane_observations_match_golden(key, symbolic_runs):
    name, k = key.split(" k=")
    verdict, _inputs = _run_target(name, int(k))
    record = {"verdict": verdict["verdict"]}
    if verdict["counterexample"] is not None:
        record["lane"] = verdict["counterexample"]["lane"]
    for world, (machine, observations) in zip(
        ("bitspec", "baseline"), symbolic_runs
    ):
        record[world] = {
            "lanes": machine.n_lanes,
            "sha256": _lane_digest(observations, machine.n_lanes),
            **{stat: getattr(machine, stat) for stat in STATS},
        }
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        golden = _golden()
        golden[key] = record
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert record == _golden()[key]


@pytest.mark.parametrize(
    "name",
    [
        "regression-shl-slice-carry:main",
        "seed009:main",
        "seed022:f5",
        "seed009:f11",  # a signed (s32) input
        "s64-helper:scale",
    ],
)
def test_lanes_agree_with_concrete_machine(name, symbolic_runs):
    verdict, inputs_run = _run_target(name, 8)
    assert verdict["lanes"] == 256
    assert len(symbolic_runs) == 2
    for machine, observations in symbolic_runs:
        for lane_id in range(machine.n_lanes):
            inputs = dict(inputs_run)
            for gname, table in machine.symbolic.items():
                inputs[gname] = table[lane_id]
            try:
                out = tuple(machine.binary.run(inputs, engine="fast").output)
                trapped = False
            except Exception:
                out, trapped = None, True
            obs = observations.at(lane_id)
            assert (obs.trap is not None) == trapped, (lane_id, inputs, obs)
            if not trapped:
                assert obs.out == out, (lane_id, inputs)


def test_numpy_loads_with_the_first_verify_call():
    code = textwrap.dedent(
        """
        import sys
        import repro.verify.__main__
        assert "numpy" not in sys.modules, "numpy loaded at import"
        import repro.verify
        verdict = repro.verify.verify_function(
            "u8 x;\\nvoid main()\\n{\\n    out(x + 1);\\n}\\n",
            k=2,
            inputs_run={"x": 0},
        )
        assert verdict["verdict"] == "proved", verdict
        assert "numpy" in sys.modules
        for name in repro.verify.__all__:
            getattr(repro.verify, name)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
