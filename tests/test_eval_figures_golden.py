"""Golden-file regression test for the figure drivers.

Pins the exact numbers the headline figure functions produce on a fixed
3-workload mini-roster.  The simulator is deterministic, so any diff here
means the *semantics* changed — a new pass, an energy-model edit, a
machine-loop change — and the golden file documents exactly which figures
moved and by how much.

Regenerate intentionally with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_eval_figures_golden.py

and review the JSON diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.eval import figures

GOLDEN = Path(__file__).parent / "golden" / "figures_mini.json"
MINI = ("crc32", "sha", "bitcount")


def _norm(value):
    """JSON-comparable form: tuples → lists, floats rounded to 9 dp."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {str(k): _norm(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    return value


def _snapshot() -> dict:
    return _norm(
        {
            "fig08_energy": figures.fig08_energy(MINI),
            "fig12_nospec": figures.fig12_nospec(MINI),
            "fig14_table2_aggressiveness": figures.fig14_table2_aggressiveness(
                MINI
            ),
            "fig15_sensitivity": figures.fig15_sensitivity(MINI),
            "fig17_dts": figures.fig17_dts(MINI),
            "fig18_thumb": figures.fig18_thumb(MINI),
        }
    )


@pytest.mark.slow
def test_figures_match_golden():
    snapshot = _snapshot()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.is_file(), (
        "golden file missing — regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = json.loads(GOLDEN.read_text())
    assert snapshot == golden, (
        "figure outputs drifted from tests/golden/figures_mini.json; if the "
        "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and "
        "commit the diff"
    )


@pytest.mark.slow
def test_golden_figures_agree_between_engines(monkeypatch):
    """The pinned numbers must not depend on which Machine engine ran."""
    from repro.eval import harness

    monkeypatch.setenv("REPRO_MACHINE_ENGINE", "legacy")
    harness.clear_caches()
    try:
        legacy = _snapshot()
    finally:
        harness.clear_caches()
    monkeypatch.delenv("REPRO_MACHINE_ENGINE")
    fast = _snapshot()
    assert legacy == fast
