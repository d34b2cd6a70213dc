"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.arch.machine import ENGINES, parse_engine_list
from repro.core import CompilerConfig, compile_binary, set_global_inputs
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir import verify_module


def pytest_addoption(parser):
    parser.addoption(
        "--engines",
        default=",".join(ENGINES),
        help="comma-separated simulation engines for engine-matrix tests "
        f"(default: {','.join(ENGINES)})",
    )


def pytest_configure(config):
    """Validate ``--engines`` up front, whether or not any engine-matrix
    test is collected — an unknown or empty selection must abort the run,
    never silently deselect the whole matrix."""
    try:
        parse_engine_list(config.getoption("--engines"))
    except ValueError as exc:
        raise pytest.UsageError(f"--engines: {exc}")


def pytest_generate_tests(metafunc):
    """Any test taking an ``engine`` fixture runs once per selected engine.

    The selection comes from ``--engines``, so CI lanes (and developers
    bisecting a divergence) can narrow the matrix without editing tests:
    ``pytest --engines legacy tests/test_machine_predecode.py``.
    """
    if "engine" in metafunc.fixturenames:
        engines = parse_engine_list(metafunc.config.getoption("--engines"))
        metafunc.parametrize("engine", list(engines))


def run_source(source: str, inputs: dict = None, entry: str = "main"):
    """Front-end + interpreter; returns the output list."""
    module = compile_source(source)
    verify_module(module)
    if inputs:
        set_global_inputs(module, inputs)
    return Interpreter(module).run(entry).output


def run_machine(source: str, inputs: dict = None, config: CompilerConfig = None):
    """Full pipeline + machine simulation; returns the SimResult."""
    config = config or CompilerConfig.baseline()
    profile = inputs if config.middle_end.startswith("2cfg") else None
    binary = compile_binary(source, config, profile_inputs=profile)
    return binary.run(inputs or {})


ALL_CONFIGS = [
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.bitspec("avg"),
    CompilerConfig.nospec(),
    CompilerConfig.thumb(),
]


@pytest.fixture(scope="session")
def tiny_sum_workload():
    """A small program exercised by many integration tests."""
    source = """
    u32 acc;
    u8 table[32];
    u32 n;
    u32 sum(u8 *t, u32 count) {
        u32 s = 0;
        for (u32 i = 0; i < count; i += 1) { s += t[i]; }
        return s;
    }
    void main() {
        acc = sum(table, n);
        out(acc);
    }
    """
    inputs = {"table": [(7 * i + 3) % 256 for i in range(32)], "n": 32}
    expected = [sum((7 * i + 3) % 256 for i in range(32)) & 0xFFFFFFFF]
    return source, inputs, expected


#: translation thresholds the tiered-engine matrix runs ``fast`` at:
#: translate on first entry, after two entries (so hand-offs between the
#: stepper and the translated code land mid-loop, both ways), and never
TIERS = (0, 2, None)


@pytest.fixture(params=TIERS, ids=lambda t: "Tinf" if t is None else f"T{t}")
def tier(request, monkeypatch):
    """Run ``fast`` at one of :data:`TIERS` for the whole test."""
    from repro.arch import predecode

    monkeypatch.setattr(predecode, "TRANSLATE_AFTER", request.param)
    return request.param
