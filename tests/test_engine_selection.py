"""Engine selection: the validators and the one engine ladder.

``parse_engine_list`` is the shared validator behind the pytest
``--engines`` option: a typo'd or empty selection must abort loudly (a
silently-deselected engine matrix would pass CI while testing nothing).

:meth:`Machine.resolve_engine` and :meth:`Machine.run` are the only
place an engine is chosen (docs/engines.md, "The engine ladder").  The
table below drives every rung through both, and reads which engine
actually ran off the machine state each one leaves behind.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.checkpoint import Snapshot
from repro.arch.machine import ENGINES, Machine, parse_engine_list
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession

REPO = Path(__file__).resolve().parent.parent


def test_parses_full_and_partial_selections():
    assert parse_engine_list(",".join(ENGINES)) == tuple(ENGINES)
    assert parse_engine_list(ENGINES[0]) == (ENGINES[0],)
    # whitespace and trailing commas are tolerated
    assert parse_engine_list(f" {ENGINES[0]} , {ENGINES[-1]},") == (
        ENGINES[0],
        ENGINES[-1],
    )


def test_unknown_engine_raises_with_valid_set():
    with pytest.raises(ValueError, match="unknown engines"):
        parse_engine_list("warp")
    with pytest.raises(ValueError, match=str(ENGINES[0])):
        parse_engine_list(f"{ENGINES[0]},warp")


@pytest.mark.parametrize("spec", ["", "   ", ",", " , ,"])
def test_empty_selection_raises(spec):
    with pytest.raises(ValueError, match="empty engine selection"):
        parse_engine_list(spec)


def test_pytest_engines_option_rejects_unknown_engine_up_front():
    """``pytest --engines warp`` must die with a UsageError during
    configure — before collection — not silently run zero matrix tests."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--engines",
            "warp",
            "--co",
            "-q",
            "tests/test_engine_selection.py",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # pytest exits with EXIT_USAGEERROR (4) on UsageError
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "unknown engines" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["repro.bench", "--engine", "compiled"],
    ["repro.bench", "--compare-engines", "legacy,compiled"],
    ["repro.dse", "sweep", "--engine", "compiled"],
    ["repro.faults", "campaign", "--engine", "compiled"],
], ids=lambda argv: "-".join(argv))
def test_clis_reject_the_retired_spelling(argv, capsys):
    """Every ``--engine`` flag refuses ``compiled`` before running
    anything, and names the engines it takes."""
    import importlib

    main = importlib.import_module(f"{argv[0]}.__main__").main
    with pytest.raises(SystemExit) as excinfo:
        main(argv[1:])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "compiled" in err and all(engine in err for engine in ENGINES)


# -- the engine ladder ---------------------------------------------------------

LOOP = """
u32 n;
u32 acc;
void main() {
    u32 i = 0;
    while (i < n) { acc += i; i += 1; }
    out(acc);
}
"""


def _hook(pc, regs):
    pass


#: a step-kind session: the OoO model does not run it natively
STEP = "step"
#: a recovery-kind session that never fires: the OoO model runs it natively
NATIVE = "native"

#: the retired ``compiled`` spelling, rejected with the valid set named
_RETIRED = f"expected one of {ENGINES}"
_TRACE = "trace_hook requires the legacy path"
_OBS = "obs=True requires the predecoded fast path"
_SPLIT = "does not compose with fault"

#: (requested engine, REPRO_MACHINE_ENGINE, obs, trace_hook, fault session,
#:  checkpoint) -> (resolve_engine() or the error it raises, engine that
#:  ran or the error raised); no rung lets the retired ``compiled`` through
LADDER = [
    # explicit engine, then env, then default
    ((None, "", False, False, None, False), ("fast", "fast")),
    ((None, "compiled", False, False, None, False), (_RETIRED, None)),
    ((None, "ooo", False, False, None, False), ("ooo", "ooo")),
    (("legacy", "compiled", False, False, None, False), ("legacy", "legacy")),
    (("compiled", "legacy", False, False, None, False), (_RETIRED, None)),
    # trace_hook: legacy by default, an error on every other engine
    ((None, "", False, True, None, False), ("legacy", "legacy")),
    ((None, "compiled", False, True, None, False), (_RETIRED, None)),
    (("fast", "", False, True, None, False), ("fast", _TRACE)),
    (("ooo", "", False, True, None, False), ("ooo", _TRACE)),
    ((None, "", True, True, None, False), ("fast", _TRACE)),
    # obs: an env legacy/ooo reads as fast
    ((None, "", True, False, None, False), ("fast", "fast")),
    ((None, "legacy", True, False, None, False), ("fast", "fast")),
    ((None, "ooo", True, False, None, False), ("fast", "fast")),
    ((None, "compiled", True, False, None, False), (_RETIRED, None)),
    (("ooo", "", True, False, None, False), ("fast", "fast")),
    (("legacy", "", True, False, None, False), ("legacy", _OBS)),
    # fault sessions step on fast, except the OoO model's native kinds
    (("compiled", "", False, False, STEP, False), (_RETIRED, None)),
    ((None, "compiled", False, False, STEP, False), (_RETIRED, None)),
    (("ooo", "", False, False, STEP, False), ("fast", "fast")),
    (("ooo", "", False, False, NATIVE, False), ("ooo", "ooo")),
    (("ooo", "", True, False, NATIVE, False), ("ooo", _OBS)),
    (("compiled", "", False, False, NATIVE, False), (_RETIRED, None)),
    (("legacy", "", False, False, STEP, False), ("legacy", "legacy")),
    # checkpoints stop on a stepping engine, never beside a fault session
    ((None, "", False, False, None, True), ("fast", "fast")),
    (("compiled", "", False, False, None, True), (_RETIRED, None)),
    ((None, "ooo", False, False, None, True), ("ooo", "fast")),
    (("legacy", "", False, False, None, True), ("legacy", "legacy")),
    (("fast", "", False, False, STEP, True), ("fast", _SPLIT)),
]


@pytest.fixture(scope="module")
def loop_binary():
    binary = compile_binary(LOOP, CompilerConfig.bitspec("max"),
                            profile_inputs={"n": 40})
    set_global_inputs(binary.module, {"n": 40})
    return binary


def _session(kind):
    if kind == STEP:
        return FaultSession(FaultPlan("dts_timing", 0, trigger_step=1))
    if kind == NATIVE:
        return FaultSession(FaultPlan("ooo_flush_drop", 0, nth_event=10**9))
    return None


def _engine_ran(machine, result):
    """Which engine produced ``result``, from the state it left behind."""
    if isinstance(result, Snapshot):
        return result.engine
    if result.ooo is not None:
        return "ooo"
    return "legacy" if machine.arch_run is None else "fast"


@pytest.mark.parametrize(
    "row, expected", LADDER,
    ids=["-".join(str(a) for a in row) for row, _ in LADDER],
)
def test_engine_ladder(loop_binary, monkeypatch, row, expected):
    engine, env, obs, hook, faults, checkpoint = row
    resolved, ran = expected
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", env)

    def build():
        return Machine(
            loop_binary.linked, loop_binary.module, engine=engine, obs=obs,
            trace_hook=_hook if hook else None, faults=_session(faults),
        )

    if resolved == _RETIRED:
        with pytest.raises(ValueError, match=re.escape(_RETIRED)):
            build().resolve_engine()
        return
    machine = build()
    assert machine.resolve_engine() == resolved
    run_kwargs = {"checkpoint_at": 5} if checkpoint else {}
    if ran not in ENGINES:
        with pytest.raises(ValueError, match=ran):
            machine.run(**run_kwargs)
        return
    result = machine.run(**run_kwargs)
    assert _engine_ran(machine, result) == ran
    if checkpoint:
        assert isinstance(result, Snapshot)
    elif obs and ran != "ooo":
        assert result.obs is not None


def test_obs_env_engine_agrees_across_entry_points(loop_binary, monkeypatch):
    """``CompiledBinary.machine`` leaves the choice to the Machine: with
    ``REPRO_MACHINE_ENGINE=ooo`` an obs run takes ``fast`` either way."""
    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "ooo")
    for machine in (
        loop_binary.machine(obs=True),
        Machine(loop_binary.linked, loop_binary.module, obs=True),
    ):
        assert machine.engine is None
        assert machine.resolve_engine() == "fast"
        sim = machine.run()
        assert _engine_ran(machine, sim) == "fast"
        assert sim.obs is not None


#: (requested engine, obs) -> resolve_engine(inorder=True): the engine a
#: caller bound to the in-order timing model runs (the serve report)
INORDER = [
    ((None, False), "fast"),
    ((None, True), "fast"),
    (("legacy", False), "legacy"),
    (("legacy", True), "fast"),
    (("fast", False), "fast"),
    (("compiled", False), _RETIRED),
    (("compiled", True), _RETIRED),
    (("ooo", False), "fast"),
    (("ooo", True), "fast"),
]


@pytest.mark.parametrize(
    "row, expected", INORDER,
    ids=["-".join(str(a) for a in row) for row, _ in INORDER],
)
def test_inorder_resolution(loop_binary, monkeypatch, row, expected):
    engine, obs = row
    monkeypatch.delenv("REPRO_MACHINE_ENGINE", raising=False)
    if expected == _RETIRED:
        with pytest.raises(ValueError, match=re.escape(_RETIRED)):
            Machine(loop_binary.linked, loop_binary.module, engine=engine)
        return
    machine = Machine(loop_binary.linked, loop_binary.module, engine=engine,
                      obs=obs)
    assert machine.resolve_engine(inorder=True) == expected
    machine.engine = expected
    assert machine.run().output == [sum(range(40))]
