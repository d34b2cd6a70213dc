"""Observability & attribution: where do the misspeculations and joules go?

The simulator answers *how much* energy a run used; this package answers
*why*.  An obs-enabled run (``binary.run(inputs, obs=True)``, on the
fast engine) returns a :class:`~repro.obs.events.PcSample` — per-pc
counts of the rare events the hot loop already notices — which
:mod:`repro.obs.attribution` joins against the backend's link-time
:class:`~repro.backend.layout.DebugInfo` to charge every instruction,
stall and misspeculation to a source variable, function, speculative
region, handler, and world.  The headline invariant: attribution totals
re-sum to the aggregate :class:`~repro.arch.machine.SimResult` counters
bit for bit (:func:`~repro.obs.attribution.check_conservation`).

Modules: :mod:`~repro.obs.events` (typed events and sample expansion),
:mod:`~repro.obs.attribution` (the engine), :mod:`~repro.obs.report`
(text/JSON rendering), and ``python -m repro.obs`` (the CLI).  See ``docs/observability.md``.
"""

from repro.obs.attribution import (
    Attribution,
    Tally,
    attribute,
    check_conservation,
    source_var,
)
from repro.obs.events import (
    EVENT_KINDS,
    ObsEvent,
    PcSample,
    dts_mode_events,
    events_from_sample,
)
from repro.obs.report import ObsReport, build_report, render_json, render_text

__all__ = [
    "Attribution",
    "Tally",
    "attribute",
    "check_conservation",
    "source_var",
    "EVENT_KINDS",
    "ObsEvent",
    "PcSample",
    "dts_mode_events",
    "events_from_sample",
    "ObsReport",
    "build_report",
    "render_json",
    "render_text",
]
