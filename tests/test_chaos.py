"""The process-chaos campaign: classification, determinism, the gate.

Acceptance contract pinned here: the same seed yields a byte-identical
campaign JSON, no scenario ever classifies as ``corruption``, and the
two headline injections — worker SIGKILL and journal-tail truncation —
always land in ``recovered`` or ``degraded``.
"""

import json

import pytest

from repro.chaos.campaign import (
    CATEGORIES,
    CORRUPTION,
    DEGRADED,
    LOST_WORK,
    RECOVERED,
    SCENARIOS,
    render_campaign,
    run_campaign,
    run_cell,
    summarize,
    to_canonical_json,
)
from repro.core.campaign import enumerate_cells
from repro.fuzz.driver import iteration_seed

#: cheap scenarios (no compiles, no subprocesses) — used where the test
#: is about campaign mechanics rather than a specific injection
FAST_SCENARIOS = (
    "shard-truncate",
    "shard-bitflip",
    "journal-tail-truncate",
    "journal-bitflip",
)


# -- per-scenario classification ----------------------------------------------


@pytest.mark.parametrize("scenario", FAST_SCENARIOS)
@pytest.mark.parametrize("salt", [0, 1, 2, 3])
def test_fast_scenarios_never_corrupt(scenario, salt):
    record = run_cell(scenario, iteration_seed(7, salt))
    assert record["status"] == "ok"
    assert record["category"] in (RECOVERED, DEGRADED, LOST_WORK)


@pytest.mark.parametrize("salt", [0, 1, 2, 3, 4, 5, 6, 7])
def test_journal_tail_truncation_lands_recovered_or_degraded(salt):
    record = run_cell("journal-tail-truncate", iteration_seed(11, salt))
    assert record["status"] == "ok"
    assert record["category"] in (RECOVERED, DEGRADED)


def test_shard_damage_is_always_evicted_never_served():
    for salt in range(8):
        for scenario in ("shard-truncate", "shard-bitflip"):
            record = run_cell(scenario, iteration_seed(13, salt))
            assert record["status"] == "ok"
            assert record["category"] != CORRUPTION, record


def test_worker_kill_recovers_bit_identical():
    record = run_cell("worker-kill", iteration_seed(3, 0))
    assert record["status"] == "ok"
    assert record["category"] in (RECOVERED, DEGRADED)
    assert record["killed"] and record["resumed_from_snapshot"]
    assert 0 < record["cut"] < record["golden_instructions"]


def test_enospc_write_never_publishes_partial_state():
    for salt in (0, 1, 2, 3):
        record = run_cell("enospc", iteration_seed(5, salt))
        assert record["status"] == "ok"
        assert record["category"] == DEGRADED
        assert record["write_failed"]
        assert not record["published_while_full"]


@pytest.mark.slow
def test_serve_restart_loses_nothing():
    record = run_cell("serve-restart", iteration_seed(9, 0))
    assert record["status"] == "ok"
    assert record["category"] == RECOVERED
    assert record["lost"] == 0 and record["byte_mismatches"] == 0
    assert "direct_status" not in record


@pytest.mark.slow
def test_serve_restart_error_answer_is_not_corruption(monkeypatch):
    """A direct answer that is not a 200 has no body to compare: the
    cell is degraded and says why, it does not read as corruption."""
    from repro.serve import client

    async def unavailable(host, port, doc, **kwargs):
        return client.Response(status=503, headers={}, body=b"{}")

    monkeypatch.setattr(client, "submit_report", unavailable)
    record = run_cell("serve-restart", iteration_seed(9, 0))
    assert record["status"] == "ok"
    assert record["category"] == DEGRADED
    assert record["direct_status"] == 503
    assert record["lost"] == 0 and record["byte_mismatches"] == 0


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("scenario", FAST_SCENARIOS)
def test_cells_are_deterministic(scenario):
    seed = iteration_seed(42, 1)
    assert run_cell(scenario, seed) == run_cell(scenario, seed)


def test_campaign_json_is_byte_identical_across_reruns():
    kwargs = dict(scenarios=FAST_SCENARIOS, seed=21, per_scenario=2)
    first = to_canonical_json(run_campaign(**kwargs))
    second = to_canonical_json(run_campaign(**kwargs))
    assert first == second


def test_campaign_json_carries_no_paths_or_pids():
    campaign = run_campaign(scenarios=FAST_SCENARIOS, seed=0, per_scenario=1)
    text = to_canonical_json(campaign)
    assert "/tmp" not in text and "chaos-" not in text
    doc = json.loads(text)
    assert doc["summary"]["cells"] == len(FAST_SCENARIOS)


def test_enumerate_cells_seeds_are_stream_positions():
    cells = enumerate_cells((("a", "b"),), 17, 2)
    assert [c[0] for c in cells] == ["a", "a", "b", "b"]
    assert [c[1] for c in cells] == [iteration_seed(17, i) for i in range(4)]


# -- the gate and rendering ---------------------------------------------------


def test_summary_counts_and_gate_fields():
    cells = [
        {"scenario": "x", "category": RECOVERED, "status": "ok"},
        {"scenario": "x", "category": CORRUPTION, "status": "ok"},
        {"scenario": "y", "category": LOST_WORK, "status": "ok"},
        {"scenario": "y", "status": "error", "category": "error"},
    ]
    summary = summarize(cells)
    assert summary["corruptions"] == 1
    assert summary["lost_work"] == 1
    assert summary["errors"] == 1
    assert summary["per_scenario"]["x"][CORRUPTION] == 1


def test_render_lists_every_scenario():
    campaign = run_campaign(scenarios=FAST_SCENARIOS, seed=0, per_scenario=1)
    rendered = render_campaign(campaign)
    for scenario in FAST_SCENARIOS:
        assert scenario in rendered
    assert "corruptions: 0" in rendered


def test_cli_exit_codes(tmp_path, capsys):
    from repro.chaos.__main__ import main

    out = tmp_path / "chaos.json"
    code = main(
        [
            "campaign",
            "--seed",
            "3",
            "--per-scenario",
            "1",
            "--scenarios",
            ",".join(FAST_SCENARIOS),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["corruptions"] == 0
    assert set(doc["scenarios"]) == set(FAST_SCENARIOS)


def test_cli_rejects_unknown_scenario():
    from repro.chaos.__main__ import main

    with pytest.raises(SystemExit):
        main(["campaign", "--scenarios", "meteor-strike"])


def test_taxonomy_mirrors_faults_shape():
    """Four mutually-exclusive categories, like the fault campaigns."""
    assert len(CATEGORIES) == 4
    assert CORRUPTION in CATEGORIES and RECOVERED in CATEGORIES
    assert set(SCENARIOS) >= {
        "worker-kill",
        "journal-tail-truncate",
        "enospc",
        "serve-restart",
    }
