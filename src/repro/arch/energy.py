"""Event-based energy model, standing in for the paper's gate-level power
analysis (45 nm @ 1.2 V — see DESIGN.md for the substitution argument).

Energy = Σ events × per-event cost.  Per-event constants are
45 nm-class values; the *relative* costs carry the results:

* an 8-bit register-slice access costs 1/4 of a 32-bit access (§RQ1 —
  reported directly from the paper's gate-level model);
* the segmented ALU's 8-bit slice op is ~1/4 of a full 32-bit op
  (shorter carry chain + idle upper slices);
* cache/DRAM events dominate when spilling forces memory traffic.

The ``pipeline`` component charges a per-cycle cost covering clocking,
decode and control — stall cycles therefore surface as pipeline energy,
matching Fig. 9's attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: per-event energies in pJ
COSTS = {
    # instruction supply
    "icache_access": 11.0,
    "l2_access": 85.0,
    "dram_access": 1800.0,
    # data supply
    "dcache_access": 14.0,
    # register file (32-bit baseline access; narrower scales by width/4)
    "rf_read": 1.6,
    "rf_write": 2.0,
    # execution
    "alu32": 4.4,
    "alu8": 1.2,
    "mul": 13.0,
    "div": 36.0,
    "move": 1.8,
    # control overhead, charged per cycle (stalls included)
    "pipeline_cycle": 5.0,
    # out-of-order structures (repro.arch.ooo): rename-map ports, ROB
    # entries, issue-queue CAM and wakeup broadcast, rename checkpoints.
    # Folded into the ``pipeline`` component (they are control overhead,
    # not datapath); zero-count on the in-order engines, so every
    # legacy/fast number is unchanged.
    "rename_read": 0.4,
    "rename_write": 0.6,
    "rob_write": 1.3,
    "rob_read": 1.0,
    "iq_write": 1.1,
    "iq_wakeup": 0.9,
    "ckpt_op": 2.2,
}

#: component attribution for Fig 9
COMPONENTS = ("alu", "regfile", "dcache", "icache", "pipeline")


@dataclass
class EnergyCounters:
    """Raw event counts accumulated by the machine simulator."""

    icache_l1: int = 0
    icache_l2: int = 0
    icache_mem: int = 0
    dcache_l1: int = 0
    dcache_l2: int = 0
    dcache_mem: int = 0
    rf_reads_by_width: dict = field(default_factory=lambda: {1: 0, 2: 0, 4: 0})
    rf_writes_by_width: dict = field(default_factory=lambda: {1: 0, 2: 0, 4: 0})
    alu32_ops: int = 0
    alu8_ops: int = 0
    mul_ops: int = 0
    div_ops: int = 0
    move_ops: int = 0
    cycles: int = 0
    # out-of-order structure events (repro.arch.ooo); zero on the
    # in-order engines
    rename_reads: int = 0
    rename_writes: int = 0
    rob_writes: int = 0
    rob_reads: int = 0
    iq_writes: int = 0
    iq_wakeups: int = 0
    ckpt_ops: int = 0


@dataclass
class EnergyBreakdown:
    """Per-component energies (pJ) — the Fig 9 view."""

    alu: float = 0.0
    regfile: float = 0.0
    dcache: float = 0.0
    icache: float = 0.0
    pipeline: float = 0.0

    @property
    def total(self) -> float:
        return self.alu + self.regfile + self.dcache + self.icache + self.pipeline

    def as_dict(self) -> dict:
        return {
            "alu": self.alu,
            "regfile": self.regfile,
            "dcache": self.dcache,
            "icache": self.icache,
            "pipeline": self.pipeline,
        }


def compute_energy(
    counters: EnergyCounters, *, scale: dict = None, slice_bits: int = 8
) -> EnergyBreakdown:
    """Convert event counts to a component energy breakdown.

    ``scale`` optionally multiplies each component's energy — the DTS model
    (RQ8) passes per-component voltage-scaling factors through here.

    ``slice_bits`` is the speculative slice width the binary was compiled
    for: the segmented ALU's slice-op cost scales linearly with the active
    carry-chain length, so a 16-bit slice op costs twice the calibrated
    8-bit cost and a 4-bit op half of it.  At the default (8) the numbers
    are bit-identical to the original model.  This is an approximation for
    the few native i8 ops that share the ``alu8`` counter under a non-8-bit
    configuration; see docs/dse.md.
    """
    out = EnergyBreakdown()
    c = COSTS
    out.icache = (
        counters.icache_l1 * c["icache_access"]
        + counters.icache_l2 * (c["icache_access"] + c["l2_access"])
        + counters.icache_mem
        * (c["icache_access"] + c["l2_access"] + c["dram_access"])
    )
    out.dcache = (
        counters.dcache_l1 * c["dcache_access"]
        + counters.dcache_l2 * (c["dcache_access"] + c["l2_access"])
        + counters.dcache_mem
        * (c["dcache_access"] + c["l2_access"] + c["dram_access"])
    )
    for width, count in counters.rf_reads_by_width.items():
        out.regfile += count * c["rf_read"] * (width / 4.0)
    for width, count in counters.rf_writes_by_width.items():
        out.regfile += count * c["rf_write"] * (width / 4.0)
    out.alu = (
        counters.alu32_ops * c["alu32"]
        + counters.alu8_ops * c["alu8"] * (slice_bits / 8.0)
        + counters.mul_ops * c["mul"]
        + counters.div_ops * c["div"]
        + counters.move_ops * c["move"]
    )
    out.pipeline = (
        counters.cycles * c["pipeline_cycle"]
        + counters.rename_reads * c["rename_read"]
        + counters.rename_writes * c["rename_write"]
        + counters.rob_writes * c["rob_write"]
        + counters.rob_reads * c["rob_read"]
        + counters.iq_writes * c["iq_write"]
        + counters.iq_wakeups * c["iq_wakeup"]
        + counters.ckpt_ops * c["ckpt_op"]
    )
    if scale:
        for component, factor in scale.items():
            setattr(out, component, getattr(out, component) * factor)
    return out
