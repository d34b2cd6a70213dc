"""``python -m repro.obs`` — attribution reports from the command line.

Subcommands:

``report``
    Compile and simulate one workload×config with observability enabled,
    then print the attribution report (per-variable misspeculation and
    energy, per-region and per-world breakdowns, handler re-execution
    cost, a BASELINE comparison, compiler pass statistics).  ``--json``
    additionally writes the machine-readable artifact.

``overhead``
    Measure the observability overhead on the mini roster: wall-clock of
    a plain fast-path run vs an obs-enabled run plus full attribution.
    The acceptance bar is a ratio below 2×.

Config names accept the bench presets (``baseline``, ``bitspec-max``,
``thumb``, ...) plus the paper-style aliases ``BASELINE``, ``BITSPEC``,
``NOSPEC``, ``THUMB`` and ``DTS`` (case-insensitive).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.__main__ import ROSTERS
from repro.core import pipeline


def resolve_config(name: str):
    """Config preset name / paper alias → a fresh CompilerConfig."""
    try:
        return pipeline.resolve_config(name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_report(args) -> int:
    from repro.core.documents import write_document
    from repro.obs.report import build_report, render_json, render_text

    config = resolve_config(args.config)
    report = build_report(
        args.workload,
        config,
        run_kind=args.run_kind,
        run_seed=args.run_seed,
        profile_kind=args.profile_kind,
        profile_seed=args.profile_seed,
        baseline=not args.no_baseline,
    )
    sys.stdout.write(render_text(report, top=args.top))
    if args.json:
        write_document(args.json, render_json(report, top=args.top))
        print(f"wrote {args.json}")
    return 1 if report.mismatches else 0


def cmd_overhead(args) -> int:
    from repro.eval.harness import get_binary
    from repro.obs.attribution import attribute
    from repro.workloads import get_workload

    config = resolve_config(args.config)
    workloads = ROSTERS[args.roster]
    plain_total = obs_total = 0.0
    print(f"observability overhead, roster={args.roster} config={config.name}")
    for name in workloads:
        binary = get_binary(name, config)
        inputs = get_workload(name).inputs("test", 0)
        binary.run(inputs)  # warm predecode cache for both sides
        t0 = time.perf_counter()
        for _ in range(args.repeat):
            binary.run(inputs)
        plain = (time.perf_counter() - t0) / args.repeat
        t0 = time.perf_counter()
        for _ in range(args.repeat):
            sim = binary.run(inputs, obs=True)
            attribute(binary.linked, sim.obs).total()
        obs = (time.perf_counter() - t0) / args.repeat
        plain_total += plain
        obs_total += obs
        print(f"  {name:<14} plain={plain * 1e3:8.2f} ms"
              f"  obs+attr={obs * 1e3:8.2f} ms  ratio={obs / plain:5.2f}x")
    ratio = obs_total / plain_total if plain_total else 0.0
    print(f"overall ratio: {ratio:.2f}x (budget: < 2.00x)")
    return 0 if ratio < 2.0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability & attribution reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="attribution report for one run")
    rep.add_argument("--workload", required=True, help="workload name (e.g. crc32)")
    rep.add_argument(
        "--config",
        default="BITSPEC",
        help="config preset or alias (default: BITSPEC = bitspec-max)",
    )
    rep.add_argument("--top", type=int, default=10, help="rows per top-N table")
    rep.add_argument("--json", default=None, help="also write JSON artifact here")
    rep.add_argument("--run-kind", default="test", help="run input kind")
    rep.add_argument("--run-seed", type=int, default=0, help="run input seed")
    rep.add_argument(
        "--profile-kind",
        default="test",
        help="profile input kind (profile != run provokes misspeculation)",
    )
    rep.add_argument("--profile-seed", type=int, default=0, help="profile seed")
    rep.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the BASELINE comparison run",
    )
    rep.set_defaults(func=cmd_report)

    over = sub.add_parser("overhead", help="measure obs overhead vs plain runs")
    over.add_argument(
        "--roster", choices=sorted(ROSTERS), default="mini", help="workload roster"
    )
    over.add_argument("--config", default="BITSPEC", help="config preset or alias")
    over.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    over.set_defaults(func=cmd_overhead)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
