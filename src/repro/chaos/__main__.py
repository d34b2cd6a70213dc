"""CLI for process-chaos campaigns: ``python -m repro.chaos``.

Runs a seeded campaign of process-level failure injections — worker
SIGKILLs, cache-shard and journal damage, simulated disk-full writes, a
mid-burst serve restart — classifies every cell as ``recovered`` /
``degraded`` / ``lost-work`` / ``corruption``, prints the table,
optionally writes the canonical JSON artifact (``--json``), and exits
non-zero on any ``corruption`` or errored cell — the CI contract
(``CHAOS_recovery.json`` is the committed reference artifact).

Environment: ``REPRO_CHAOS_SEED`` and ``REPRO_CHAOS_PER_SCENARIO``
override the CLI defaults (flags still win) so CI matrices can vary the
campaign without editing the workflow command line.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.chaos.campaign import SCENARIOS, render_campaign, run_campaign
from repro.core.campaign import finish


def _scenarios(text: str) -> list:
    if text == "all":
        return list(SCENARIOS)
    chosen = [item.strip() for item in text.split(",") if item.strip()]
    unknown = [s for s in chosen if s not in SCENARIOS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown scenarios: {', '.join(unknown)} "
            f"(choose from {', '.join(SCENARIOS)})"
        )
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="deterministic process-chaos campaigns",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    campaign = subs.add_parser(
        "campaign", help="inject process-level failures and classify recovery"
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
        help="campaign seed (env: REPRO_CHAOS_SEED)",
    )
    campaign.add_argument(
        "--per-scenario",
        type=int,
        default=int(os.environ.get("REPRO_CHAOS_PER_SCENARIO", "2")),
        help="cells per scenario (env: REPRO_CHAOS_PER_SCENARIO)",
    )
    campaign.add_argument(
        "--scenarios",
        type=_scenarios,
        default=list(SCENARIOS),
        help="comma-separated scenario names, or 'all'",
    )
    campaign.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the canonical campaign JSON here",
    )

    args = parser.parse_args(argv)

    def progress(done, total, record):
        print(
            f"[{done}/{total}] {record['scenario']}: "
            f"{record.get('category', '?')}",
            file=sys.stderr,
        )

    campaign_doc = run_campaign(
        scenarios=args.scenarios,
        seed=args.seed,
        per_scenario=args.per_scenario,
        progress=progress,
    )

    corruptions = campaign_doc["summary"]["corruptions"]
    return finish(
        campaign_doc,
        render_campaign(campaign_doc),
        args.json,
        corruptions,
        f"{corruptions} corruption(s) — damage was served as valid state",
    )


if __name__ == "__main__":
    sys.exit(main())
