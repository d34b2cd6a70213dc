"""Attribution engine: join per-pc events with compiler debug metadata.

Takes the :class:`~repro.obs.events.PcSample` of an obs-enabled run plus
the :class:`~repro.backend.layout.DebugInfo` the backend emitted at link
time, and produces :class:`Tally` objects — full
:class:`~repro.arch.energy.EnergyCounters` plus instruction/stall/
misspeculation counts — grouped any way the report needs: per variable,
per function, per speculative region, per handler, per world
(spec/orig/handler/skeleton).

Each group is one call of :func:`repro.arch.predecode.tally_pcs` over
the group's pcs, the same function the simulator's fold calls over
every pc.  So the **conservation invariant** holds by construction:
the groups of any partition of the executed pcs sum to the aggregate
:class:`~repro.arch.machine.SimResult` counters *bit for bit* —
integer-exact, no rounding tolerance.  :func:`check_conservation`
still verifies it as a guard; the fuzzer's machine oracle and
tests/test_obs.py enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch.energy import EnergyBreakdown, EnergyCounters, compute_energy
from repro.arch.predecode import PC_COUNTER_FIELDS, tally_pcs
from repro.obs.events import PcSample

#: DTS instruction classes, mirrored here to avoid importing the machine
_CLASSES = ("alu32", "alu8", "mul", "div", "move", "mem", "branch")


@dataclass
class Tally:
    """Event counts and energy attributable to one group of pcs."""

    counters: EnergyCounters = field(default_factory=EnergyCounters)
    class_counts: dict = field(
        default_factory=lambda: {c: 0 for c in _CLASSES}
    )
    instructions: int = 0
    cycles: int = 0
    misspeculations: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    spill_loads: int = 0
    spill_stores: int = 0
    copies: int = 0
    #: times a misspeculation redirected control *into* this group's handler
    handler_entries: int = 0
    #: static instructions in the group that executed at least once
    static_insts: int = 0

    def energy(
        self, scale: Optional[dict] = None, *, slice_bits: int = 8
    ) -> EnergyBreakdown:
        return compute_energy(self.counters, scale=scale, slice_bits=slice_bits)

    @property
    def misspec_rate(self) -> float:
        """Misspeculations per dynamic instruction of this group."""
        if not self.instructions:
            return 0.0
        return self.misspeculations / self.instructions


def source_var(name: str) -> str:
    """Collapse a compiler value name to its source-variable stem.

    The squeezer and SSA construction derive names by suffixing
    (``x.loop.1.sp.n.5``, ``crc.arg8``, ``add.3.i2``); the stem before
    the first dot is the source-level identifier (or the opcode for
    compiler temporaries).
    """
    return name.split(".", 1)[0] if name else ""


class Attribution:
    """Tallies over one run's executed pcs, with grouping views.

    Built by :func:`attribute`.  ``pcs`` lists every pc that executed,
    in order; the ``by_*`` methods group them with the link-time
    :class:`DebugInfo` and tally each group in one
    :func:`~repro.arch.predecode.tally_pcs` call.
    """

    def __init__(self, linked, sample: PcSample) -> None:
        self.linked = linked
        self.sample = sample
        self.debug = linked.debug
        exec_counts = sample.exec_counts
        self.pcs = [pc for pc in range(sample.n_insts) if exec_counts[pc]]

    # -- grouping -------------------------------------------------------------

    def _tally(self, pcs) -> Tally:
        """One tally over the executed pcs ``pcs``."""
        fields, counters, classes = tally_pcs(self.linked, self.sample, pcs)
        return Tally(counters=counters, class_counts=classes,
                     static_insts=len(pcs), **fields)

    def group_by(self, key_fn, pcs=None) -> dict:
        """Tally executed pcs (all, or ``pcs``) grouped by ``key_fn(pc)``."""
        groups: dict = {}
        for pc in self.pcs if pcs is None else pcs:
            groups.setdefault(key_fn(pc), []).append(pc)
        return {key: self._tally(members) for key, members in groups.items()}

    def total(self) -> Tally:
        """One tally over every executed pc (the conservation side)."""
        return self._tally(self.pcs)

    def by_function(self) -> dict:
        owner = self.linked.owner
        return self.group_by(lambda pc: owner[pc])

    def by_world(self) -> dict:
        world = self.debug.world
        return self.group_by(lambda pc: world[pc] or "nonspec")

    def by_region(self) -> dict:
        """Group by (function, speculative-region id); None = outside."""
        owner = self.linked.owner
        region = self.debug.region
        return self.group_by(lambda pc: (owner[pc], region[pc]))

    def by_variable(self, normalize: bool = True) -> dict:
        """Group by defining variable name; ``""`` = unattributed pcs.

        ``normalize`` collapses SSA/clone suffixes to the source-level
        stem (see :func:`source_var`).
        """
        var = self.debug.var
        if normalize:
            return self.group_by(lambda pc: source_var(var[pc]))
        return self.group_by(lambda pc: var[pc])

    def by_handler(self) -> dict:
        """Tallies of handler blocks, keyed by handler block label.

        Each tally's ``handler_entries`` counts misspeculations that
        redirected into it (via the Δ-skeleton map); the rest of the
        tally is the handler's own re-execution cost.
        """
        debug = self.debug
        world = debug.world
        groups = self.group_by(
            lambda pc: debug.block[pc],
            [pc for pc in self.pcs if world[pc] == "handler"],
        )
        # charge entries: spec pc -> handler entry pc -> its block label
        for spec_pc, handler_pc in debug.handler_of.items():
            miss = (
                self.sample.misspecs[spec_pc]
                if spec_pc < len(self.sample.misspecs)
                else 0
            )
            if not miss:
                continue
            label = debug.block[handler_pc]
            tally = groups.get(label)
            if tally is None:
                tally = groups[label] = Tally()
            tally.handler_entries += miss
        return groups

    def misspeculating_pcs(self) -> list:
        """(pc, count) for every pc that misspeculated, most first."""
        out = [
            (pc, self.sample.misspecs[pc])
            for pc in self.pcs
            if self.sample.misspecs[pc]
        ]
        out.sort(key=lambda item: (-item[1], item[0]))
        return out


def attribute(linked, sample: PcSample) -> Attribution:
    """Build the attribution for one obs-enabled run."""
    if sample is None:
        raise ValueError(
            "SimResult has no obs sample — run with obs=True "
            "(e.g. binary.run(inputs, obs=True))"
        )
    return Attribution(linked, sample)


def check_conservation(attribution: Attribution, sim) -> list:
    """Verify attribution totals equal the ``SimResult`` aggregates.

    Returns a list of human-readable mismatch descriptions — empty means
    the invariant holds *exactly* (integer equality, not tolerance).
    Checks every SimResult count, every EnergyCounters field, and the
    dynamic class mix.
    """
    total = attribution.total()
    mismatches = []

    def check(name, got, want):
        if got != want:
            mismatches.append(f"{name}: attributed {got} != simulated {want}")

    for name in PC_COUNTER_FIELDS:
        check(name, getattr(total, name), getattr(sim, name))

    tc, sc = total.counters, sim.counters
    for name in (
        "icache_l1", "icache_l2", "icache_mem",
        "dcache_l1", "dcache_l2", "dcache_mem",
        "alu32_ops", "alu8_ops", "mul_ops", "div_ops", "move_ops",
        "cycles",
    ):
        check(f"counters.{name}", getattr(tc, name), getattr(sc, name))
    for width in (1, 2, 4):
        check(
            f"counters.rf_reads_by_width[{width}]",
            tc.rf_reads_by_width[width],
            sc.rf_reads_by_width[width],
        )
        check(
            f"counters.rf_writes_by_width[{width}]",
            tc.rf_writes_by_width[width],
            sc.rf_writes_by_width[width],
        )
    for cls in _CLASSES:
        check(
            f"class_counts[{cls}]",
            total.class_counts[cls],
            sim.class_counts[cls],
        )
    return mismatches
