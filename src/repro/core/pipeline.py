"""The BITSPEC compilation pipeline (Fig. 4) and its configurations.

``CompilerConfig`` mirrors the paper artifact's YAML knobs: architecture/ISA,
middle-end (heuristic), expander, per-optimization toggles, voltage scaling.
``compile_binary`` runs front-end → expander → (CFG prep → profile →
squeezer → speculative opts) → back-end → linked machine image;
``CompiledBinary.run`` executes it on the architecture model.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, ClassVar, Optional, Union

from repro.arch.cache import CacheGeometry
from repro.arch.dts import BITWIDTH_AWARE_SLACK, DTSModel
from repro.arch.machine import Machine, SimResult
from repro.arch.widths import DEFAULT_SLICE_WIDTH, validate_slice_width
from repro.backend.isel import select_module
from repro.backend.layout import LinkedProgram, link_program
from repro.backend.regalloc import AllocationStats, RegisterAllocator
from repro.faults.toolchain import (
    maybe_bend_linked as _maybe_bend_linked,
    maybe_fail as _maybe_inject_fault,
)
from repro.frontend.ast_nodes import Program
from repro.interp.interpreter import Interpreter, RunResult
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.clone import clone_function
from repro.ir.function import Module
from repro.passes import stats as pass_stats
from repro.passes.dce import eliminate_dead_code
from repro.passes.expander import ExpanderConfig, build_module
from repro.passes.cfg_prep import prepare_cfg_module
from repro.passes.opt import run_speculative_opts
from repro.passes.simplify import simplify_function, simplify_module
from repro.passes.squeezer import SqueezeResult, squeeze_function
from repro.passes.static_narrow import narrow_module
from repro.profiler.profile import BitwidthProfile
from repro.profiler.selection import SqueezePlan, compute_squeeze_plan
from repro.sir.verifier import verify_sir_function

ISAS = ("ARM", "ARM_BS", "THUMB")
MIDDLE_ENDS = ("none", "2cfg-max", "2cfg-avg", "2cfg-min", "static")


@dataclass(frozen=True)
class CompilerConfig:
    """One experiment configuration (the artifact's YAML schema)."""

    name: str = "baseline"
    isa: str = "ARM"
    middle_end: str = "none"
    expander: ExpanderConfig = field(default_factory=ExpanderConfig)
    compare_elimination: bool = True
    bitmask_elision: bool = True
    invert_handler_weights: bool = False
    voltage_scaling: str = "nominal"  # 'nominal' | 'timesqueezing'
    # -- DSE sweep knobs (repro.dse); defaults are the paper's design point --
    #: speculative slice width in bits (4/8/16; 32 = speculation off)
    slice_width: int = DEFAULT_SLICE_WIDTH
    #: binop opcodes the selector may squeeze (subset of Table 1)
    squeeze_ops: tuple = ("add", "sub", "and", "or", "xor", "shl", "lshr")
    #: fraction of the function's hottest assignment count a definition
    #: must reach to be squeezed (0 = no hotness gate)
    min_hotness: float = 0.0
    #: headroom bits: eligible iff profiled target ≤ slice_width - margin
    confidence_margin: int = 0
    #: alpha-power-law exponent of the DTS voltage model
    dts_alpha: float = 1.3
    #: DTS slack estimator exploits slice carry chains (future-work mode)
    dts_bitwidth_aware: bool = False
    #: cache geometry (KiB / ways)
    l1_kb: int = 8
    l1_ways: int = 4
    l2_kb: int = 256
    l2_ways: int = 8
    #: speculation budget: a function whose squeeze creates more than this
    #: many speculative regions falls back to BASELINE codegen (0 = no cap)
    max_spec_regions: int = 0

    # -- slices: which stage reads which knob ---------------------------------
    #: knobs only the simulated machine reads: a change re-simulates the
    #: same binary, never recompiles it
    MACHINE_KNOBS: ClassVar[tuple] = ("l1_kb", "l1_ways", "l2_kb", "l2_ways")
    #: knobs only the post-hoc energy model reads (``repro.arch.dts``): a
    #: change rescales the same event counts, never re-simulates
    ENERGY_KNOBS: ClassVar[tuple] = (
        "voltage_scaling", "dts_alpha", "dts_bitwidth_aware",
    )
    # every other field except ``name`` is a compile knob

    def __post_init__(self) -> None:
        if self.isa not in ISAS:
            raise ValueError(f"unknown isa {self.isa!r}: expected one of {ISAS}")
        if self.middle_end not in MIDDLE_ENDS:
            raise ValueError(
                f"unknown middle-end {self.middle_end!r}: expected one of "
                f"{MIDDLE_ENDS}"
            )
        validate_slice_width(self.slice_width)
        self.cache_geometry().validate()

    @property
    def heuristic(self) -> str:
        if not self.middle_end.startswith("2cfg-"):
            raise ValueError(f"{self.middle_end} has no heuristic")
        return self.middle_end.split("-", 1)[1]

    def cache_geometry(self) -> CacheGeometry:
        return CacheGeometry(
            l1_kb=self.l1_kb, l1_ways=self.l1_ways,
            l2_kb=self.l2_kb, l2_ways=self.l2_ways,
        )

    def dts_model(self) -> DTSModel:
        """The DTS model this configuration's knobs describe."""
        if self.dts_bitwidth_aware:
            return DTSModel(
                alpha=self.dts_alpha,
                slack_profile=dict(BITWIDTH_AWARE_SLACK),
            )
        return DTSModel(alpha=self.dts_alpha)

    def fingerprint(self) -> dict:
        """Canonical, JSON-serializable view of every semantic knob.

        Excludes ``name`` (a display label): two configs that differ only
        in name must hash identically, mirroring the in-process memoizer's
        ``_config_key``.  Used as a content-address ingredient by the
        persistent result cache (:mod:`repro.bench.cache`).
        """
        data = asdict(self)
        data.pop("name")
        return data

    def stable_hash(self) -> str:
        """SHA-256 over the canonical fingerprint."""
        blob = json.dumps(self.fingerprint(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def compile_key(self) -> str:
        """SHA-256 over the compile slice of the fingerprint.

        Leaves out :attr:`MACHINE_KNOBS` and :attr:`ENERGY_KNOBS`, which
        the compiler never reads: configs with equal compile keys compile
        to the same binary.
        """
        data = self.fingerprint()
        for knob in self.MACHINE_KNOBS + self.ENERGY_KNOBS:
            del data[knob]
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- presets matching the artifact configs -------------------------------

    @classmethod
    def baseline(cls, **kw) -> "CompilerConfig":
        kw.setdefault("name", "baseline")
        return cls(isa="ARM", middle_end="none", **kw)

    @classmethod
    def bitspec(cls, heuristic: str = "max", **kw) -> "CompilerConfig":
        kw.setdefault("name", f"bitspec-{heuristic}")
        return cls(isa="ARM_BS", middle_end=f"2cfg-{heuristic}", **kw)

    @classmethod
    def nospec(cls, **kw) -> "CompilerConfig":
        """RQ2: static narrowing + slice packing, no speculation."""
        kw.setdefault("name", "nospec")
        return cls(isa="ARM_BS", middle_end="static", **kw)

    @classmethod
    def thumb(cls, **kw) -> "CompilerConfig":
        kw.setdefault("name", "thumb")
        return cls(isa="THUMB", middle_end="none", **kw)

    @classmethod
    def dts(cls, **kw) -> "CompilerConfig":
        kw.setdefault("name", "dts")
        return cls(isa="ARM", middle_end="none", voltage_scaling="timesqueezing", **kw)

    @classmethod
    def dts_bitspec(cls, heuristic: str = "max", **kw) -> "CompilerConfig":
        kw.setdefault("name", f"dts-bitspec-{heuristic}")
        return cls(
            isa="ARM_BS",
            middle_end=f"2cfg-{heuristic}",
            voltage_scaling="timesqueezing",
            **kw,
        )


#: the named configuration presets — the names bench ``--configs``, serve
#: ``config.preset``, obs and faults ``--configs`` all accept
PRESETS = {
    "baseline": CompilerConfig.baseline,
    "bitspec-max": partial(CompilerConfig.bitspec, "max"),
    "bitspec-avg": partial(CompilerConfig.bitspec, "avg"),
    "bitspec-min": partial(CompilerConfig.bitspec, "min"),
    "nospec": CompilerConfig.nospec,
    "thumb": CompilerConfig.thumb,
    "dts": CompilerConfig.dts,
    "dts-bitspec-max": partial(CompilerConfig.dts_bitspec, "max"),
}

#: the paper's spelling of its design point
PRESET_ALIASES = {"bitspec": "bitspec-max"}


def resolve_config(name: str) -> CompilerConfig:
    """A fresh config for a preset name or alias, case-insensitively."""
    key = name.strip().lower()
    factory = PRESETS.get(PRESET_ALIASES.get(key, key))
    if factory is None:
        choices = ", ".join([*PRESETS, *PRESET_ALIASES])
        raise ValueError(f"unknown config {name!r}; choose from: {choices}")
    return factory()


def set_global_inputs(module: Module, inputs: dict) -> None:
    """Inject workload inputs into global initializers.

    ``inputs`` maps global names to a scalar or list of element values;
    omitted globals keep their source-level initializers.
    """
    for name, value in inputs.items():
        gv = module.globals.get(name)
        if gv is None:
            raise KeyError(f"no such global: {name}")
        values = value if isinstance(value, (list, tuple)) else [value]
        if len(values) > gv.count:
            raise ValueError(
                f"{name}: {len(values)} values exceed capacity {gv.count}"
            )
        init = [gv.elem_type.wrap(v) for v in values]
        init += [0] * (gv.count - len(init))
        gv.initializer = init


@dataclass(frozen=True)
class CompileDiagnostic:
    """One structured graceful-degradation event emitted by the pipeline.

    ``function`` is the MiniC function that fell back to BASELINE codegen
    (``"*"`` when a back-end/layout failure degraded the whole module);
    ``stage`` is where it failed: ``squeeze``, ``limits``, ``verify`` or
    ``layout``.
    """

    function: str
    stage: str
    error: str
    message: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CompiledBinary:
    """The output of a pipeline run, ready to simulate."""

    config: CompilerConfig
    module: Module
    linked: LinkedProgram
    profile: Optional[BitwidthProfile] = None
    squeeze_results: dict = field(default_factory=dict)
    alloc_stats: dict = field(default_factory=dict)
    opt_counts: dict = field(default_factory=dict)
    #: LLVM `-stats`-style per-pass counters collected during compilation
    pass_stats: dict = field(default_factory=dict)
    #: static code size in instructions (excluding the skeleton area)
    code_size: int = 0
    #: graceful-degradation events (empty on a clean compile)
    diagnostics: list = field(default_factory=list)
    #: silent-miscompile injections applied to the linked image (testing
    #: only — see ``repro.faults.toolchain.bend_compiler``)
    toolchain_bends: list = field(default_factory=list)

    def run(
        self,
        inputs: Optional[dict] = None,
        *,
        obs: bool = False,
        faults=None,
        step_limit: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> SimResult:
        """Simulate on the architecture model with the given inputs.

        ``obs=True`` attaches a per-pc :class:`repro.obs.events.PcSample`
        to ``SimResult.obs``.

        ``engine`` picks the execution engine ("legacy" / "fast" /
        "ooo"); :meth:`Machine.resolve_engine` settles the
        rest (``REPRO_MACHINE_ENGINE``, ``obs``, ``faults``).  The
        in-order engines produce bit-identical results; "ooo" is held to
        their committed view (docs/engines.md).

        The result holds event counts only, whatever the config's energy
        knobs: DTS energy is ``self.config.dts_model().apply(result)``.

        ``faults`` attaches a :class:`repro.faults.FaultSession` to the
        machine; ``step_limit`` overrides the default watchdog (fault
        campaigns shrink it so a corrupted loop counter cannot spin for
        the full default budget).
        """
        return self.machine(
            inputs, obs=obs, faults=faults, step_limit=step_limit, engine=engine
        ).run()

    def machine(
        self,
        inputs: Optional[dict] = None,
        *,
        obs: bool = False,
        faults=None,
        step_limit: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> Machine:
        """The :class:`Machine` that :meth:`run` would simulate on, with
        ``inputs`` injected; same arguments as :meth:`run`."""
        if inputs:
            set_global_inputs(self.module, inputs)
        kwargs = {}
        if step_limit is not None:
            kwargs["step_limit"] = step_limit
        return Machine(
            self.linked, self.module, obs=obs, engine=engine,
            geometry=self.config.cache_geometry(), faults=faults, **kwargs,
        )

    def interpret(
        self, inputs: Optional[dict] = None, trace: bool = False
    ) -> RunResult:
        """Run the (post-middle-end) IR on the functional simulator."""
        if inputs:
            set_global_inputs(self.module, inputs)
        return Interpreter(self.module, trace=trace).run()

    def fingerprint(self) -> str:
        """SHA-256 over the linked machine image (config + instructions).

        Stable across processes — a content address for the compiled
        artifact, used by diagnostics and the bench cache to attribute
        results to an exact binary.
        """
        h = hashlib.sha256()
        h.update(self.config.stable_hash().encode())
        h.update(f"isa={self.linked.isa};delta={self.linked.delta};".encode())
        for inst in self.linked.insts:
            h.update(repr(inst).encode())
            h.update(b"\n")
        return h.hexdigest()


def compile_binary(
    source: str,
    config: CompilerConfig,
    *,
    profile_inputs: Optional[dict] = None,
    name: str = "program",
    stage_hook: Optional[Callable[[str, Module], None]] = None,
    strict: Optional[bool] = None,
) -> CompiledBinary:
    """Run the full pipeline of Fig. 4 for one configuration.

    ``stage_hook(stage_name, module)`` is called after every middle-end
    stage; the fuzzer's differential oracles use it to run the IR/SIR
    verifiers between passes.

    ``strict`` controls graceful degradation: when False (the default), a
    per-function failure in the squeezer, the SIR verifier, or the
    ``max_spec_regions`` budget restores that function's pre-middle-end
    IR and compiles it with BASELINE codegen (a mixed-world binary),
    recording a :class:`CompileDiagnostic`; a back-end/layout failure
    degrades the whole module.  When True, every failure propagates.
    ``strict=None`` reads the ``REPRO_STRICT_COMPILE`` environment
    variable (``"1"`` = strict).
    """
    hook = stage_hook or (lambda stage, mod: None)
    if strict is None:
        strict = os.environ.get("REPRO_STRICT_COMPILE", "") == "1"
    with pass_stats.collecting() as stats_scope:
        binary = _compile_binary(
            source, config, profile_inputs, name, hook, strict
        )
    binary.pass_stats = pass_stats.snapshot(stats_scope)
    return binary


class SpeculationLimitError(Exception):
    """A function exceeded ``CompilerConfig.max_spec_regions``."""


def _squeeze_with_fallback(binary, module, profile, config, strict) -> set:
    """Per-function squeeze + verify with graceful degradation.

    Returns the set of function names that fell back to BASELINE.  A
    fallback function's IR is restored to its pre-``cfg-prep`` snapshot,
    so later middle-end passes must leave it untouched and the back-end
    must select it without speculation (as if ``middle_end == "none"``).
    """
    snapshots = binary._snapshots
    fallback: set = set()
    limit = config.max_spec_regions
    for fname in list(module.functions):
        func = module.functions[fname]
        stage = "squeeze"
        try:
            _maybe_inject_fault("squeeze", fname)
            plan = compute_squeeze_plan(
                func,
                profile,
                config.heuristic,
                width=config.slice_width,
                ops=frozenset(config.squeeze_ops),
                min_hotness=config.min_hotness,
                confidence_margin=config.confidence_margin,
            )
            result = squeeze_function(func, plan, module)
            stage = "limits"
            if limit and result.regions > limit:
                raise SpeculationLimitError(
                    f"{result.regions} speculative regions exceed "
                    f"max_spec_regions={limit}"
                )
            stage = "verify"
            _maybe_inject_fault("verify", fname)
            verify_sir_function(func, module)
        except Exception as exc:
            if strict:
                raise
            binary.diagnostics.append(
                CompileDiagnostic(
                    function=fname,
                    stage=stage,
                    error=type(exc).__name__,
                    message=str(exc),
                )
            )
            restored = snapshots[fname]
            restored.parent = module
            module.functions[fname] = restored
            fallback.add(fname)
            pass_stats.bump("pipeline-fallback", "functions_degraded", 1)
            continue
        binary.squeeze_results[fname] = result
        # mirror squeeze_module's counters for the functions that made it
        pass_stats.bump("squeezer", "variables_narrowed", result.narrowed)
        pass_stats.bump("squeezer", "compares_narrowed", result.narrowed_cmps)
        pass_stats.bump("squeezer", "casts_inserted", result.spec_truncs)
        pass_stats.bump("squeezer", "regions_created", result.regions)
        pass_stats.bump(
            "squeezer",
            "functions_squeezed",
            1 if (plan.narrow or plan.narrow_cmps) else 0,
        )
    return fallback


def _compile_binary(
    source, config, profile_inputs, name, hook, strict
) -> CompiledBinary:
    module = build_module(source, config.expander, name)
    hook("frontend+expander", module)
    binary = CompiledBinary(config=config, module=module, linked=None)
    fallback: set = set()

    if config.middle_end.startswith("2cfg-"):
        # Pristine per-function snapshots, taken before any middle-end
        # pass mutates the IR: the graceful-degradation path restores
        # these, so a fallback function compiles exactly as BASELINE
        # (middle_end == "none") would have compiled it.
        binary._snapshots = {
            fname: clone_function(func)
            for fname, func in module.functions.items()
        }
        prepare_cfg_module(module)
        hook("cfg-prep", module)
        if profile_inputs:
            set_global_inputs(module, profile_inputs)
        profile = BitwidthProfile.collect(module)
        binary.profile = profile
        fallback = _squeeze_with_fallback(binary, module, profile, config, strict)
        hook("squeeze", module)
        binary.opt_counts = run_speculative_opts(
            module,
            compare_elimination=config.compare_elimination,
            bitmask_elision=config.bitmask_elision,
            slice_width=config.slice_width,
            skip=frozenset(fallback),
        )
        hook("speculative-opts", module)
        removed = 0
        for fname, func in module.functions.items():
            if fname in fallback:
                continue  # restored bodies must stay bit-equal to BASELINE's
            remove_unreachable_blocks(func)
            removed += eliminate_dead_code(func)
            simplify_function(func)
        pass_stats.bump("dce", "instructions_removed", removed)
        hook("cleanup", module)
    elif config.middle_end == "static":
        narrow_module(module)
        simplify_module(module)
        hook("static-narrow", module)

    def backend(baseline_fns: frozenset):
        program = select_module(
            module, isa=config.isa, name=name,
            slice_width=config.slice_width,
            baseline_functions=baseline_fns,
        )
        alloc_stats = {}
        for mfunc in program.functions.values():
            isa = config.isa
            if mfunc.name in baseline_fns and isa == "ARM_BS":
                isa = "ARM"  # no slice packing for BASELINE-fallback code
            allocator = RegisterAllocator(
                mfunc,
                isa=isa,
                invert_handler_weights=config.invert_handler_weights,
            )
            alloc_stats[mfunc.name] = allocator.run()
        return link_program(program, slice_width=config.slice_width), alloc_stats

    fallback_set = frozenset(fallback)
    try:
        _maybe_inject_fault("layout", "*")
        linked, binary.alloc_stats = backend(fallback_set)
    except Exception as exc:
        snapshots = getattr(binary, "_snapshots", None)
        if strict or snapshots is None:
            raise
        # Back-end failures have no per-function attribution (layout is
        # module-wide), so degrade the whole module to BASELINE.
        binary.diagnostics.append(
            CompileDiagnostic(
                function="*",
                stage="layout",
                error=type(exc).__name__,
                message=str(exc),
            )
        )
        fresh = {f for f in module.functions if f not in fallback_set}
        pass_stats.bump("pipeline-fallback", "functions_degraded", len(fresh))
        for fname, snap in snapshots.items():
            snap.parent = module
            module.functions[fname] = snap
        fallback_set = frozenset(module.functions)
        linked, binary.alloc_stats = backend(fallback_set)
    linked.fallback_functions = fallback_set
    binary.linked = linked
    binary.code_size = linked.code_size
    # Testing hook: an armed bend_compiler() context silently miscompiles
    # the image — the soundness canary for repro.verify.
    binary.toolchain_bends = _maybe_bend_linked(linked)
    return binary
