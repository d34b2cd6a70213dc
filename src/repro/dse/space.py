"""The typed design space of speculation parameters (the DSE knob set).

A :class:`SpecPoint` is one fully-specified design point — a value for
every sweepable knob the pipeline exposes; :meth:`SpecPoint.to_config`
maps it onto a :class:`repro.core.pipeline.CompilerConfig`.  A
:class:`SpecSpace` is a set of axes (knob → candidate values) whose
cartesian product enumerates the points of a sweep.

Two design-point identities anchor every sweep to the paper:

* slice width **32** means *speculation off* — no value is narrower than
  a register, so the point lowers to the plain ARM BASELINE pipeline and
  must reproduce its event counts bit-for-bit;
* the all-defaults point (8-bit slices, full Table 1 op set, no
  thresholds) is exactly the paper's BITSPEC configuration and must
  reproduce its headline numbers unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace

from repro.arch.widths import SLICE_WIDTHS, validate_slice_width
from repro.core.pipeline import CompilerConfig
from repro.profiler.selection import SQUEEZABLE_BINOPS

#: named squeezable-opcode subsets available as axis values
OP_SETS = {
    "all": tuple(sorted(SQUEEZABLE_BINOPS)),
    "noshift": ("add", "and", "or", "sub", "xor"),
    "arith": ("add", "sub"),
    "logic": ("and", "or", "xor"),
}


@dataclass(frozen=True)
class SpecPoint:
    """One point of the speculation design space (all knobs bound)."""

    #: speculative slice width in bits; 32 = speculation off (BASELINE)
    slice_width: int = 8
    #: binop opcodes the selector may squeeze
    squeeze_ops: tuple = OP_SETS["all"]
    #: bitwidth-selection heuristic over the profile (max/avg/min)
    heuristic: str = "max"
    #: hotness gate: fraction of the hottest assignment count required
    min_hotness: float = 0.0
    #: confidence margin in bits below the slice width
    confidence_margin: int = 0
    #: voltage scaling on (timesqueezing) / off (nominal)
    dts: bool = False
    #: alpha-power-law exponent of the DTS delay model
    dts_alpha: float = 1.3
    #: DTS slack estimator exploits slice carry chains
    dts_bitwidth_aware: bool = False
    #: L1 I/D cache size (KiB) and associativity
    l1_kb: int = 8
    l1_ways: int = 4
    #: shared L2 size (KiB) and associativity
    l2_kb: int = 256
    l2_ways: int = 8

    def __post_init__(self) -> None:
        validate_slice_width(self.slice_width)
        object.__setattr__(self, "squeeze_ops", tuple(self.squeeze_ops))

    def label(self) -> str:
        """Deterministic compact config name, e.g. ``dse-w8-cm1-l1_4x4``."""
        parts = [f"w{self.slice_width}"]
        default = SpecPoint()
        if self.squeeze_ops != default.squeeze_ops:
            for name, ops in OP_SETS.items():
                if tuple(sorted(self.squeeze_ops)) == tuple(sorted(ops)):
                    parts.append(f"ops_{name}")
                    break
            else:
                parts.append("ops_" + "".join(op[0] for op in self.squeeze_ops))
        if self.heuristic != default.heuristic:
            parts.append(self.heuristic)
        if self.min_hotness != default.min_hotness:
            parts.append(f"h{self.min_hotness:g}")
        if self.confidence_margin != default.confidence_margin:
            parts.append(f"cm{self.confidence_margin}")
        if self.dts:
            tag = f"dts{self.dts_alpha:g}"
            if self.dts_bitwidth_aware:
                tag += "bw"
            parts.append(tag)
        if (self.l1_kb, self.l1_ways) != (default.l1_kb, default.l1_ways):
            parts.append(f"l1_{self.l1_kb}x{self.l1_ways}")
        if (self.l2_kb, self.l2_ways) != (default.l2_kb, default.l2_ways):
            parts.append(f"l2_{self.l2_kb}x{self.l2_ways}")
        return "dse-" + "-".join(parts)

    def as_dict(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SpecPoint":
        known = {f.name for f in fields(cls)}
        kw = {k: v for k, v in data.items() if k in known}
        if "squeeze_ops" in kw:
            kw["squeeze_ops"] = tuple(kw["squeeze_ops"])
        return cls(**kw)

    def baseline_point(self) -> "SpecPoint":
        """The speculation-off twin of this point (same machine knobs)."""
        return replace(self, slice_width=32)

    def to_config(self) -> CompilerConfig:
        """Lower the point onto a :class:`CompilerConfig`.

        Width 32 selects the BASELINE pipeline (plain ARM, no middle-end):
        with no value narrower than a register there is nothing to squeeze,
        and the ARM_BS ISA's slice-aware register-file accounting would
        still differ from BASELINE for native i8 values — the paper's
        comparison point is the plain ARM build.
        """
        common = dict(
            slice_width=self.slice_width,
            squeeze_ops=self.squeeze_ops,
            min_hotness=self.min_hotness,
            confidence_margin=self.confidence_margin,
            dts_alpha=self.dts_alpha,
            dts_bitwidth_aware=self.dts_bitwidth_aware,
            l1_kb=self.l1_kb,
            l1_ways=self.l1_ways,
            l2_kb=self.l2_kb,
            l2_ways=self.l2_ways,
            voltage_scaling="timesqueezing" if self.dts else "nominal",
        )
        if self.slice_width >= 32:
            return CompilerConfig(
                name=self.label(), isa="ARM", middle_end="none", **common
            )
        return CompilerConfig(
            name=self.label(),
            isa="ARM_BS",
            middle_end=f"2cfg-{self.heuristic}",
            **common,
        )


_KNOBS = tuple(f.name for f in fields(SpecPoint))


class SpecSpace:
    """An ordered set of sweep axes; the grid is their cartesian product."""

    def __init__(self, **axes) -> None:
        unknown = [k for k in axes if k not in _KNOBS]
        if unknown:
            raise ValueError(
                f"unknown knobs {unknown}; valid: {sorted(_KNOBS)}"
            )
        self.axes: dict = {}
        for knob in _KNOBS:  # canonical order, independent of call order
            if knob in axes:
                values = tuple(axes[knob])
                if not values:
                    raise ValueError(f"axis {knob} has no values")
                self.axes[knob] = values
        for width in self.axes.get("slice_width", ()):
            validate_slice_width(width)

    @property
    def size(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> list:
        """Every grid point, in deterministic axis-major order."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(SpecPoint(**dict(zip(names, combo))))
        return out

    def describe(self) -> dict:
        return {
            knob: [list(v) if isinstance(v, tuple) else v for v in values]
            for knob, values in self.axes.items()
        }


#: named sweep presets: (space, workload roster)
PRESETS = {
    # CI-sized: 2 knobs × 2 values on 2 workloads
    "smoke": (
        SpecSpace(slice_width=(8, 32), l1_kb=(4, 8)),
        ("crc32", "sha"),
    ),
    # the default: 24 points over slice width × confidence × L1 size
    "mini": (
        SpecSpace(
            slice_width=(4, 8, 16, 32),
            confidence_margin=(0, 1),
            l1_kb=(4, 8, 16),
        ),
        ("crc32", "sha"),
    ),
    "widths": (
        SpecSpace(slice_width=(4, 8, 16, 32), heuristic=("max", "avg", "min")),
        ("crc32", "sha", "bitcount"),
    ),
    "ops": (
        SpecSpace(
            slice_width=(4, 8, 16),
            squeeze_ops=tuple(OP_SETS[n] for n in ("all", "noshift", "arith", "logic")),
        ),
        ("crc32", "sha", "bitcount"),
    ),
    "thresholds": (
        SpecSpace(
            min_hotness=(0.0, 0.01, 0.1, 0.5),
            confidence_margin=(0, 1, 2),
        ),
        ("crc32", "sha", "bitcount"),
    ),
    "dts": (
        SpecSpace(
            slice_width=(8, 32),
            dts=(True,),
            dts_alpha=(1.1, 1.3, 1.6),
            dts_bitwidth_aware=(False, True),
        ),
        ("crc32", "sha"),
    ),
    "cachegeom": (
        SpecSpace(l1_kb=(2, 4, 8, 16), l1_ways=(1, 2, 4)),
        ("crc32", "sha", "dijkstra"),
    ),
}
