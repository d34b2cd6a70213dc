"""Golden machine images: the compiler's output is pinned per workload × preset.

``tests/golden/images.json`` holds :meth:`CompiledBinary.fingerprint` — a
SHA-256 over the config and every linked instruction — for each workload
under each entry of :data:`repro.core.pipeline.PRESETS`.  A compile-path
optimization that claims to change nothing but speed must leave every
fingerprint where it is; a diff here names exactly which images moved.

The 15 roster-cold cells (the benchmark's five programs × baseline,
bitspec-max and thumb) are checked on every run; the full grid is slow.
Regenerate intentionally with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -m slow tests/test_golden_images.py

and review the JSON diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import PRESETS, compile_binary
from repro.workloads import get_workload, workload_names

GOLDEN = Path(__file__).parent / "golden" / "images.json"
ROSTER_COLD = [
    (workload, preset)
    for workload in ("crc32", "fft", "dijkstra", "sha", "susan-edges")
    for preset in ("baseline", "bitspec-max", "thumb")
]


def _fingerprint(workload_name: str, preset: str) -> str:
    workload = get_workload(workload_name)
    binary = compile_binary(
        workload.source,
        PRESETS[preset](),
        profile_inputs=workload.inputs("test", 0),
        name=workload_name,
    )
    return binary.fingerprint()


def _golden() -> dict:
    assert GOLDEN.is_file(), "golden file missing — regenerate with REPRO_UPDATE_GOLDEN=1"
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload,preset", ROSTER_COLD)
def test_roster_cold_image_matches_golden(workload, preset):
    assert _fingerprint(workload, preset) == _golden()[workload][preset]


@pytest.mark.slow
def test_every_image_matches_golden():
    grid = {
        workload: {preset: _fingerprint(workload, preset) for preset in PRESETS}
        for workload in workload_names()
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n")
    golden = _golden()
    moved = sorted(
        f"{workload}/{preset}"
        for workload, row in grid.items()
        for preset, fingerprint in row.items()
        if golden.get(workload, {}).get(preset) != fingerprint
    )
    assert not moved, (
        f"machine images drifted from tests/golden/images.json: {moved}; if the "
        "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert sorted(golden) == sorted(grid)
