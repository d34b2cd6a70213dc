"""Bounded equivalence checking of the speculation contract.

Per function, the checker proves (for all inputs up to width ``k``) that
the BITSPEC binary — including every path through its Δ-redirect
misspeculation handlers — is architecturally equivalent to its BASELINE
twin: same trap behavior, same ``out()`` stream, same final global
memory.  The pieces:

* :func:`bounded_domain` / :func:`build_lanes` — enumerate the joint
  ``k``-bit input space into the lane tables the symbolic executor runs
  over (unsigned inputs sweep ``[0, 2^k)``; signed inputs sweep the
  two's-complement window ``[-2^(k-1), 2^(k-1))``);
* :func:`make_driver` — synthesize a whole-program harness around one
  helper function: each scalar parameter becomes a fresh ``__vfy_*``
  input global, pointer parameters bind to a matching global array, and
  the driver ``out()``s the return value plus every global so any
  divergence is architecturally visible;
* :func:`verify_function` — compile both worlds, symbolically execute
  them over the lane tables, and compare their lane observations column
  by column.  On disequality the first diverging lane is concretized
  into an input assignment, replayed *concretely* through the IR
  interpreter and all three machine engines of both worlds to confirm
  it is a real divergence (not a checker bug), and optionally emitted
  into the fuzz corpus as a replayable :class:`repro.fuzz.generator.FuzzProgram`;
* :data:`CANARIES` / :func:`run_canary` — the soundness harness: arm a
  seeded silent miscompile (:func:`repro.faults.toolchain.bend_compiler`)
  and assert the checker finds a confirmed counterexample instead of a
  proof.

Verdicts: ``proved`` (all lanes equal), ``counterexample``,
``bound-exceeded`` (lane/step/state budget), ``skipped`` (target outside
scope: region cap, unbindable pointer, no scalar inputs) and ``error``
(toolchain failure under ``strict`` compilation).
"""

from __future__ import annotations

import math

from repro.arch.machine import ENGINES
from repro.core.pipeline import CompilerConfig, compile_binary
from repro.frontend.ast_nodes import (
    BinaryExpr,
    CType,
    CallExpr,
    CastExpr,
    DeclStmt,
    FuncDecl,
    GlobalDecl,
    IndexExpr,
    NumExpr,
    OutStmt,
    Program,
    U32,
    U64,
    VarExpr,
    WhileStmt,
    AssignStmt,
    ExprStmt,
)
from repro.frontend.parser import parse
from repro.frontend.printer import print_program
from repro.fuzz.generator import FuzzProgram
from repro.passes.expander import ExpanderConfig

#: default joint-assignment cap: two u8 inputs at k=8, or four at k=4
DEFAULT_MAX_LANES = 65_536
#: default lane-step budget per world: sum over lanes of path length
DEFAULT_STEP_BUDGET = 40_000_000
#: default cap on simultaneously live forked states per world
DEFAULT_MAX_STATES = 4_096

#: value every ``__vfy_*`` driver global takes during the profiling run —
#: small on purpose, so the profile narrows aggressively and the binary
#: under verification carries as much speculation as the squeezer allows
PROFILE_VALUE = 1


# -- bounded input domains -----------------------------------------------------


def bounded_domain(ctype: CType, k: int) -> list:
    """Every value of ``ctype`` representable in ``k`` bits, in order.

    ``k`` is clamped to the type width.  Unsigned types sweep
    ``0 .. 2^k - 1``; signed types sweep ``-2^(k-1) .. 2^(k-1) - 1`` (the
    two's-complement patterns of the low ``k`` bits), so the sign-critical
    boundary values are always inside the bound.
    """
    kk = min(k, ctype.bits)
    if ctype.signed:
        return list(range(-(1 << (kk - 1)), 1 << (kk - 1)))
    return list(range(1 << kk))


def domain_size(ctype: CType, k: int) -> int:
    return 1 << min(k, ctype.bits)


def build_lanes(domains: dict) -> tuple:
    """Lane tables for the joint assignment space.

    ``domains`` maps input names to their value lists.  Returns
    ``(tables, n_lanes)`` where ``tables[name][lane]`` is that input's
    value in the lane: the cross product in lexicographic name order,
    last name varying fastest — lane order is part of the deterministic
    output contract.
    """
    names = sorted(domains)
    n = math.prod(len(domains[name]) for name in names)
    tables = {}
    inner = n
    for name in names:
        values = domains[name]
        # each value repeats once per assignment of the later names
        inner //= len(values)
        block = tuple(v for v in values for _ in range(inner))
        tables[name] = block * (n // len(block))
    return tables, n


# -- driver synthesis ----------------------------------------------------------


def _out_scalar(name: str, bits: int) -> list:
    """``out()`` statements exposing a scalar's full value (both halves
    for 64-bit; the high half shifts unsigned — the machine has no 64-bit
    arithmetic shift)."""
    stmts = [OutStmt(CastExpr(U32, VarExpr(name)))]
    if bits == 64:
        stmts.append(
            OutStmt(
                CastExpr(
                    U32,
                    BinaryExpr(
                        ">>", CastExpr(U64, VarExpr(name)), NumExpr(32)
                    ),
                )
            )
        )
    return stmts


def _out_array(decl: GlobalDecl, index_name: str) -> list:
    """A while-loop ``out()``-ing every element of a global array."""
    idx = VarExpr(index_name)
    body = [OutStmt(CastExpr(U32, IndexExpr(decl.name, idx)))]
    if decl.ctype.bits == 64:
        body.append(
            OutStmt(
                CastExpr(
                    U32,
                    BinaryExpr(
                        ">>",
                        CastExpr(U64, IndexExpr(decl.name, idx)),
                        NumExpr(32),
                    ),
                )
            )
        )
    body.append(AssignStmt(idx, "=", BinaryExpr("+", idx, NumExpr(1))))
    return [
        DeclStmt(U32, index_name, None, NumExpr(0)),
        WhileStmt(BinaryExpr("<", idx, NumExpr(decl.array_size)), body),
    ]


def make_driver(program: Program, func: FuncDecl) -> tuple:
    """Synthesize the verification harness program around ``func``.

    Returns ``(driver_source, symbolic_types)`` where ``symbolic_types``
    maps each fresh ``__vfy_*`` input global to its :class:`CType`.
    Raises :class:`DriverError` when the function is outside driver scope
    (a pointer parameter with no bindable global array).
    """
    symbolic_types = {}
    args = []
    for param in func.params:
        if param.ctype.pointer:
            binding = _bind_pointer(program, param.ctype)
            if binding is None:
                raise DriverError(
                    f"no global array matches pointer parameter "
                    f"{param.ctype!r} {param.name}"
                )
            args.append(VarExpr(binding))
            continue
        gname = f"__vfy_{param.name}"
        symbolic_types[gname] = param.ctype
        args.append(VarExpr(gname))

    body = []
    call = CallExpr(func.name, args)
    if func.ret_type is not None:
        body.append(DeclStmt(func.ret_type, "__vfy_ret", None, call))
        body.extend(_out_scalar("__vfy_ret", func.ret_type.bits))
    else:
        body.append(ExprStmt(call))
    loops = 0
    for decl in program.globals:
        if decl.array_size != 1:
            body.extend(_out_array(decl, f"__vfy_i{loops}"))
            loops += 1
        else:
            body.extend(_out_scalar(decl.name, decl.ctype.bits))
    for gname in sorted(symbolic_types):
        body.extend(_out_scalar(gname, symbolic_types[gname].bits))

    driver = Program(
        globals=list(program.globals)
        + [
            GlobalDecl(symbolic_types[g], g)
            for g in sorted(symbolic_types)
        ],
        functions=[f for f in program.functions if f.name != "main"]
        + [FuncDecl(None, "main", [], body)],
    )
    return print_program(driver), symbolic_types


class DriverError(Exception):
    """The target function cannot be wrapped in a verification driver."""


def _bind_pointer(program: Program, ptype: CType) -> object:
    """Name of the first global array a pointer parameter can bind to."""
    exact = None
    loose = None
    for decl in program.globals:
        if decl.array_size == 1:
            continue
        if decl.ctype.bits != ptype.bits:
            continue
        if decl.ctype.signed == ptype.signed:
            exact = exact or decl.name
        loose = loose or decl.name
    return exact or loose


# -- verdicts ------------------------------------------------------------------


def _obs_summary(obs) -> dict:
    return {"trap": obs.trap, "out": list(obs.out)}


def _engine_obs(binary, inputs: dict, engine: str) -> tuple:
    """Concrete (trap, out-stream) of one engine run."""
    try:
        sim = binary.run(dict(inputs), engine=engine)
    except Exception as exc:  # MachineError, MemoryError subclasses, …
        return (str(exc) or type(exc).__name__, ())
    return (None, tuple(sim.output))


def confirm_counterexample(
    bitspec_binary, baseline_binary, inputs: dict
) -> dict:
    """Replay a concretized counterexample through the full oracle stack.

    Runs the IR interpreter plus every machine engine on both
    worlds (the ooo engine shares the committed trap/output contract, so
    it participates in the unanimity vote).  ``diverged`` is True only
    when each world is internally unanimous *and* the two worlds
    disagree — i.e. the divergence is a real property of the BITSPEC
    image, not executor or engine noise.
    """
    record = {"engines": {}, "interp": None, "diverged": False}
    world_obs = {}
    for world, binary in (
        ("bitspec", bitspec_binary),
        ("baseline", baseline_binary),
    ):
        per_engine = {}
        for engine in ENGINES:
            trap, out = _engine_obs(binary, inputs, engine)
            per_engine[engine] = {"trap": trap, "out": list(out)}
        record["engines"][world] = per_engine
        unanimous = len(
            {(v["trap"], tuple(v["out"])) for v in per_engine.values()}
        ) == 1
        record["engines"][world]["unanimous"] = unanimous
        world_obs[world] = (
            per_engine["legacy"]["trap"],
            tuple(per_engine["legacy"]["out"]),
        )
    try:
        interp = baseline_binary.interpret(dict(inputs))
        record["interp"] = {"trap": None, "out": list(interp.output)}
    except Exception as exc:
        record["interp"] = {"trap": str(exc) or type(exc).__name__, "out": []}
    record["diverged"] = (
        record["engines"]["bitspec"]["unanimous"]
        and record["engines"]["baseline"]["unanimous"]
        and world_obs["bitspec"] != world_obs["baseline"]
    )
    return record


def verify_function(
    source: str,
    function: str = "main",
    *,
    k: int = 8,
    inputs_profile: dict = None,
    inputs_run: dict = None,
    expander_enabled: bool = True,
    heuristic: str = "max",
    max_lanes: int = DEFAULT_MAX_LANES,
    step_budget: int = DEFAULT_STEP_BUDGET,
    max_states: int = DEFAULT_MAX_STATES,
    max_regions: int = 0,
    name: str = "",
) -> dict:
    """Bounded-``k`` equivalence check of one function, BITSPEC vs BASELINE.

    Returns a JSON-ready verdict record.  When the verdict is
    ``counterexample`` the record carries the concretized input
    assignment, per-world lane observations, the concrete cross-engine
    confirmation, and ``program`` — a replayable corpus entry dict.
    ``max_regions`` (when nonzero) skips functions whose squeeze produced
    more speculative regions than the cap.
    """
    inputs_profile = dict(inputs_profile or {})
    inputs_run = dict(inputs_run or {})
    verdict = {
        "name": name or function,
        "function": function,
        "k": k,
        "heuristic": heuristic,
        "verdict": None,
        "reason": "",
        "inputs": [],
        "lanes": 0,
        "regions": None,
        "bends": [],
        "stats": {},
        "counterexample": None,
    }

    program = parse(source)
    if function == "main":
        driver_source = source
        symbolic_types = {
            decl.name: decl.ctype
            for decl in program.globals
            if decl.array_size == 1 and decl.name in inputs_run
        }
        profile_inputs = inputs_profile
    else:
        func = next(
            (f for f in program.functions if f.name == function), None
        )
        if func is None:
            raise ValueError(f"no such function: {function}")
        try:
            driver_source, symbolic_types = make_driver(program, func)
        except DriverError as exc:
            verdict.update(verdict="skipped", reason=str(exc))
            return verdict
        profile_inputs = dict(inputs_profile)
        for gname in symbolic_types:
            profile_inputs[gname] = PROFILE_VALUE

    if not symbolic_types:
        verdict.update(
            verdict="skipped", reason="no scalar inputs to make symbolic"
        )
        return verdict
    verdict["inputs"] = sorted(symbolic_types)

    lanes_total = 1
    for ctype in symbolic_types.values():
        lanes_total *= domain_size(ctype, k)
    if lanes_total > max_lanes:
        verdict.update(
            verdict="bound-exceeded",
            reason=f"{lanes_total} lanes exceed --max-lanes {max_lanes}",
            lanes=lanes_total,
        )
        return verdict
    domains = {
        gname: bounded_domain(ctype, k)
        for gname, ctype in symbolic_types.items()
    }
    tables, n_lanes = build_lanes(domains)
    verdict["lanes"] = n_lanes

    expander = ExpanderConfig() if expander_enabled else ExpanderConfig.disabled()
    try:
        bitspec = compile_binary(
            driver_source,
            CompilerConfig.bitspec(heuristic, expander=expander),
            profile_inputs=profile_inputs,
            strict=True,
        )
        baseline = compile_binary(
            driver_source,
            CompilerConfig.baseline(expander=expander),
            profile_inputs=profile_inputs,
            strict=True,
        )
    except Exception as exc:
        verdict.update(
            verdict="error", reason=f"{type(exc).__name__}: {exc}"
        )
        return verdict
    verdict["bends"] = list(bitspec.toolchain_bends)

    squeeze = bitspec.squeeze_results.get(function)
    regions = squeeze.regions if squeeze is not None else 0
    verdict["regions"] = regions
    if max_regions and regions > max_regions:
        verdict.update(
            verdict="skipped",
            reason=f"{regions} speculative regions exceed cap {max_regions}",
        )
        return verdict

    # loaded here, not at import: numpy comes with the executor
    from repro.verify.executor import BoundExceeded, SymbolicMachine

    observations = {}
    for world, binary in (("bitspec", bitspec), ("baseline", baseline)):
        machine = SymbolicMachine(
            binary,
            tables,
            inputs=inputs_run,
            step_budget=step_budget,
            max_states=max_states,
        )
        try:
            observations[world] = machine.run()
        except BoundExceeded as exc:
            verdict.update(
                verdict="bound-exceeded", reason=f"{world}: {exc}"
            )
            return verdict
        verdict["stats"][world] = {
            "paths": machine.paths,
            "forks": machine.forks,
            "lane_steps": machine.lane_steps,
            "misspec_lanes": machine.misspec_lanes,
        }

    lane_id = observations["bitspec"].first_difference(observations["baseline"])
    if lane_id is None:
        verdict.update(verdict="proved")
        return verdict
    a = observations["bitspec"].at(lane_id)
    b = observations["baseline"].at(lane_id)
    cex_inputs = {gname: tables[gname][lane_id] for gname in sorted(tables)}
    replay_inputs = dict(inputs_run)
    replay_inputs.update(cex_inputs)
    confirmation = confirm_counterexample(bitspec, baseline, replay_inputs)
    cex_program = FuzzProgram(
        source=driver_source,
        inputs_profile=profile_inputs,
        inputs_run=replay_inputs,
        seed=None,
        expander_enabled=expander_enabled,
        note=f"verify counterexample: {name or function} k={k} lane={lane_id}",
    )
    verdict.update(
        verdict="counterexample",
        counterexample={
            "lane": lane_id,
            "inputs": cex_inputs,
            "observed": {
                "bitspec": _obs_summary(a),
                "baseline": _obs_summary(b),
            },
            "globals_diff": [
                ga[0]
                for ga, gb in zip(a.globals_image, b.globals_image)
                if ga != gb
            ],
            "confirmation": confirmation,
        },
        program={
            "source": cex_program.source,
            "inputs_profile": cex_program.inputs_profile,
            "inputs_run": cex_program.inputs_run,
            "expander_enabled": cex_program.expander_enabled,
            "note": cex_program.note,
        },
    )
    return verdict


def list_targets(source: str) -> list:
    """Names of the verifiable functions in a program (helpers, then main)."""
    program = parse(source)
    helpers = sorted(
        f.name for f in program.functions if f.name != "main"
    )
    return helpers + ["main"]


# -- soundness canaries --------------------------------------------------------

#: handcrafted programs, one per bend kind: arming the named compiler bend
#: over the source MUST produce a confirmed counterexample.  Each source is
#: shaped so the squeezer emits the instruction the bend breaks (variables
#: must be *declared wide* but *profiled narrow* to be squeezed) and so the
#: bounded domain contains lanes where the broken instruction's wrong
#: result is architecturally visible.
_CANARY_LOOP = (
    "u32 x;\n"
    "void main()\n"
    "{\n"
    "    u32 t = 0;\n"
    "    u32 i = 0;\n"
    "    while (i < 8)\n"
    "    {\n"
    "        t = t + x;\n"
    "        i = i + 1;\n"
    "    }\n"
    "    out(t);\n"
    "}\n"
)

CANARIES = (
    {
        # the squeezed add becomes a subtract: lanes with x <= 200 compute
        # 200 - x in-slice without misspeculating, so recovery never runs
        "name": "canary-bs-op-swap",
        "kind": "bs-op-swap",
        "seed": 0,
        "k": 8,
        "source": (
            "u32 x;\n"
            "void main()\n"
            "{\n"
            "    u32 t = 200;\n"
            "    u32 a = t + x;\n"
            "    out(a);\n"
            "}\n"
        ),
        "inputs_profile": {"x": 3},
        "inputs_run": {"x": 0},
    },
    {
        # the wide mul result bridges into the narrowed add through a
        # bs_trunc; dropping its check silently feeds m & 0xFF to lanes
        # with m = x*x > 255 (every x >= 16)
        "name": "canary-bs-trunc-drop",
        "kind": "bs-trunc-drop",
        "seed": 0,
        "k": 8,
        "source": (
            "u32 x;\n"
            "void main()\n"
            "{\n"
            "    u32 m = x * x;\n"
            "    u32 t = m + 1;\n"
            "    out(t);\n"
            "    out(m);\n"
            "}\n"
        ),
        "inputs_profile": {"x": 3},
        "inputs_run": {"x": 0},
    },
    {
        # sign extension emitted as zero extension: every negative lane
        # reads back 2^8 - |x| instead of its sign-extended value
        "name": "canary-sxt-drop",
        "kind": "sxt-drop",
        "seed": 0,
        "k": 8,
        "source": (
            "s8 x;\n"
            "void main()\n"
            "{\n"
            "    s32 w = (s32)x;\n"
            "    out((u32)(w + 1000));\n"
            "}\n"
        ),
        "inputs_profile": {"x": -3},
        "inputs_run": {"x": 0},
    },
    {
        # the speculative loop bound (bs_cmp #8) becomes #9: lanes with
        # 1 <= x <= 28 run nine iterations in the spec world and finish
        # without ever misspeculating
        "name": "canary-imm-off-by-one",
        "kind": "imm-off-by-one",
        "seed": 0,
        "k": 8,
        "source": _CANARY_LOOP,
        "inputs_profile": {"x": 3},
        "inputs_run": {"x": 0},
    },
    {
        # two regions, two handlers: region 1's bs_add skeleton branch is
        # rewired to region 2's handler (seed 1 selects the bs_add site,
        # whose misspeculating lanes x >= 246 are inside the k=8 domain),
        # so those lanes recover through the wrong code and lose out(a)
        "name": "canary-handler-misroute",
        "kind": "handler-misroute",
        "seed": 1,
        "k": 8,
        "source": (
            "u32 x;\n"
            "void main()\n"
            "{\n"
            "    u32 a = x + 10;\n"
            "    out(a);\n"
            "    u32 b = x + 100;\n"
            "    out(b);\n"
            "}\n"
        ),
        "inputs_profile": {"x": 3},
        "inputs_run": {"x": 0},
    },
)


def run_canary(canary: dict, **overrides) -> dict:
    """Verify one canary under its armed compiler bend.

    Returns the verdict record plus ``caught`` — True only when the bend
    actually applied, the checker produced a counterexample, and the
    counterexample concretely diverges on every engine pair.  The bend
    context wraps both the verification compile and the confirmation
    replays, so the recompiled image reproduces the exact miscompile.
    """
    from repro.faults.toolchain import bend_compiler

    kwargs = {
        "k": canary["k"],
        "inputs_profile": canary["inputs_profile"],
        "inputs_run": canary["inputs_run"],
        "name": canary["name"],
    }
    kwargs.update(overrides)
    with bend_compiler(canary["kind"], seed=canary["seed"]):
        verdict = verify_function(
            canary["source"], canary.get("function", "main"), **kwargs
        )
    verdict["bend_kind"] = canary["kind"]
    cex = verdict.get("counterexample")
    verdict["caught"] = bool(
        verdict["bends"]
        and verdict["verdict"] == "counterexample"
        and cex
        and cex["confirmation"]["diverged"]
    )
    return verdict
