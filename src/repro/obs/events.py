"""Structured observability events.

The machine's batching engines do not emit events one at a time — that
would put a callback in the hot loop.  Instead an obs run hands back one
:class:`PcSample` (defined in :mod:`repro.arch.predecode`) per run:
per-pc arrays of the dynamic events the loop already had to notice
(cache misses, load-use hazards, misspeculations, taken conditional
branches, conditional-move commits), alongside the per-pc execution
counts.  :func:`events_from_sample` expands a sample into *batched*
typed events — one :class:`ObsEvent` per (kind, pc) with a ``count`` —
which is what a trace consumer or the report's per-kind event counts
ingest.  Everything aggregate is derived, nothing is double-counted:
:mod:`repro.obs.attribution` tallies groups of pcs with the simulator's
own fold, so they re-sum to the :class:`~repro.arch.machine.SimResult`
totals bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.arch.predecode import PcSample

# -- event kinds --------------------------------------------------------------

MISSPECULATION = "misspeculation"
HANDLER_ENTER = "handler_enter"
HANDLER_EXIT = "handler_exit"
ICACHE_MISS = "icache_miss"
DCACHE_MISS = "dcache_miss"
STALL = "stall"
DTS_MODE_SWITCH = "dts_mode_switch"

#: every event kind, in rendering order
EVENT_KINDS = (
    MISSPECULATION,
    HANDLER_ENTER,
    HANDLER_EXIT,
    ICACHE_MISS,
    DCACHE_MISS,
    STALL,
    DTS_MODE_SWITCH,
)


@dataclass(frozen=True)
class ObsEvent:
    """One batched observability event.

    ``count`` is how many times the event occurred at ``pc`` during the
    run (batching per-pc keeps event streams small and the simulator
    fast); ``info`` carries kind-specific detail, e.g. the miss level
    (``"l2"``/``"mem"``), the stall reason (``"hazard"``), the handler
    entry pc for misspeculations, or the DTS class being switched.
    """

    kind: str
    pc: int
    count: int = 1
    info: str = ""


def events_from_sample(sample: PcSample, debug=None) -> Iterator[ObsEvent]:
    """Expand a :class:`PcSample` into batched typed events.

    ``debug`` is the program's :class:`repro.backend.layout.DebugInfo`;
    when given, misspeculation events carry their handler entry pc in
    ``info`` and are paired with ``HANDLER_ENTER``/``HANDLER_EXIT``
    events at that handler (the misspeculate-once model re-enters
    CFG_orig, so enter and exit counts match the misspeculation count).
    """
    handler_of = debug.handler_of if debug is not None else {}
    for pc in range(sample.n_insts):
        if not sample.exec_counts[pc]:
            continue
        if sample.icache_l2[pc]:
            yield ObsEvent(ICACHE_MISS, pc, sample.icache_l2[pc], "l2")
        if sample.icache_mem[pc]:
            yield ObsEvent(ICACHE_MISS, pc, sample.icache_mem[pc], "mem")
        if sample.dcache_l2[pc]:
            yield ObsEvent(DCACHE_MISS, pc, sample.dcache_l2[pc], "l2")
        if sample.dcache_mem[pc]:
            yield ObsEvent(DCACHE_MISS, pc, sample.dcache_mem[pc], "mem")
        if sample.hazards[pc]:
            yield ObsEvent(STALL, pc, sample.hazards[pc], "hazard")
        miss = sample.misspecs[pc]
        if miss:
            handler = handler_of.get(pc)
            info = f"handler@{handler}" if handler is not None else ""
            yield ObsEvent(MISSPECULATION, pc, miss, info)
            if handler is not None:
                yield ObsEvent(HANDLER_ENTER, handler, miss, f"for@{pc}")
                yield ObsEvent(HANDLER_EXIT, handler, miss, f"for@{pc}")


def dts_mode_events(class_counts: dict, slack_profile: dict) -> Iterator[ObsEvent]:
    """Model DTS mode switches as batched per-class events.

    The DTS model (:mod:`repro.arch.dts`) is post-hoc — it rescales
    energy by the dynamic class mix rather than simulating a timeline —
    so its "mode switches" are reported the same way: one batched event
    per instruction class that runs at a non-nominal voltage/frequency
    mode, counted at the class's dynamic instruction count.  ``pc`` is
    -1: the events are class-wide, not located at an instruction.

    ``slack_profile`` maps class -> critical-path fraction of the clock
    period (:data:`repro.arch.dts.SLACK_PROFILE`); a fraction below 1.0
    means the class runs in a scaled-down mode.
    """
    for cls in sorted(class_counts):
        count = class_counts[cls]
        fraction = slack_profile.get(cls, 1.0)
        if count and fraction < 1.0:
            yield ObsEvent(DTS_MODE_SWITCH, -1, count, f"{cls}:path={fraction}")
