"""CLI for fault-injection campaigns: ``python -m repro.faults``.

Subcommands::

    campaign   sweep workloads × configs × fault kinds, emit the matrix
    replay     replay saved fuzz-corpus programs under a fault grid

Both print the human-readable coverage matrix, optionally write the
canonical JSON artifact (``--json``), and exit non-zero when any
injection from a *detectable* fault class ends in silent data corruption
(or when campaign cells error out) — the CI contract.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.machine import ENGINES
from repro.core.campaign import finish
from repro.faults.campaign import (
    DEFAULT_CONFIGS,
    DEFAULT_WORKLOADS,
    render_matrix,
    replay_corpus,
    run_campaign,
)
from repro.faults.plan import FAULT_KINDS


def _csv(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _kinds(text: str) -> list:
    if text == "all":
        return list(FAULT_KINDS)
    kinds = _csv(text)
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown fault kinds: {', '.join(unknown)} "
            f"(choose from {', '.join(FAULT_KINDS)})"
        )
    return kinds


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="campaign seed")
    sub.add_argument(
        "--per-kind", type=int, default=2,
        help="plans derived per fault kind per cell group",
    )
    sub.add_argument(
        "--kinds", type=_kinds, default=list(FAULT_KINDS),
        help="comma-separated fault kinds, or 'all'",
    )
    sub.add_argument(
        "--parity", action="store_true",
        help="model parity protection on D$/I$ (corruption traps instead "
        "of propagating)",
    )
    sub.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the canonical coverage-matrix JSON here",
    )
    sub.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for faulted runs (classification and the "
        "emitted JSON are engine-invariant across the in-order engines; "
        "the ooo_* recovery kinds only have a live trigger on --engine ooo)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic fault-injection campaigns",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    campaign = subs.add_parser(
        "campaign", help="sweep workloads × configs × fault kinds"
    )
    _add_common(campaign)
    campaign.add_argument(
        "--workloads", type=_csv, default=list(DEFAULT_WORKLOADS),
        help="comma-separated workload names",
    )
    campaign.add_argument(
        "--configs", type=_csv, default=list(DEFAULT_CONFIGS),
        help="comma-separated config presets (baseline, bitspec-max, ...)",
    )
    campaign.add_argument("--jobs", type=int, default=1, help="worker processes")
    campaign.add_argument(
        "--cache-dir", type=Path, default=None,
        help="bench disk cache for the golden runs",
    )

    replay = subs.add_parser(
        "replay", help="replay fuzz-corpus programs under a fault grid"
    )
    _add_common(replay)
    replay.add_argument(
        "--corpus", type=Path, default=Path("tests") / "corpus",
        help="fuzz corpus directory",
    )
    replay.add_argument(
        "--count", type=int, default=5, help="programs to replay"
    )

    args = parser.parse_args(argv)

    if args.command == "campaign":
        def progress(done, total, record):
            label = f"{record['workload']}/{record['config']}/{record['kind']}"
            print(
                f"[{done}/{total}] {label}: {record.get('category', '?')}",
                file=sys.stderr,
            )

        matrix = run_campaign(
            workloads=args.workloads,
            config_names=args.configs,
            kinds=args.kinds,
            seed=args.seed,
            per_kind=args.per_kind,
            parity=args.parity,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            engine=args.engine,
            progress=progress,
        )
    else:
        matrix = replay_corpus(
            args.corpus,
            count=args.count,
            kinds=args.kinds,
            seed=args.seed,
            per_kind=args.per_kind,
            parity=args.parity,
            engine=args.engine,
        )

    sdc = matrix["summary"]["sdc_in_detectable_kinds"]
    return finish(
        matrix,
        render_matrix(matrix),
        args.json,
        sdc,
        f"{sdc} silent corruption(s) in detectable fault classes",
    )


if __name__ == "__main__":
    sys.exit(main())
