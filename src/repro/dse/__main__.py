"""``python -m repro.dse`` — sweep the speculation design space.

Subcommands::

    # run a named preset sweep and emit DSE_mini.json
    python -m repro.dse sweep --preset mini --jobs 4

    # same grid, bandit-pruned on partial rosters
    python -m repro.dse sweep --preset widths --strategy halving

    # the Pareto front / winner tables of an emitted document
    python -m repro.dse pareto --input DSE_mini.json
    python -m repro.dse best --input DSE_mini.json

    # re-run the winners with per-pc observability and attribute the
    # energy delta vs the speculation-off twin to source variables
    python -m repro.dse best --input DSE_mini.json --explain

The sweep document is deterministic (no timestamps or wall-clock state),
so a rerun against a warm cache writes a byte-identical file — ``sweep
--check`` verifies exactly that and fails if the document drifted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.arch.machine import ENGINES
from repro.core.documents import atomic_write
from repro.dse.explain import explain_point
from repro.dse.runner import run_sweep
from repro.dse.space import PRESETS, SpecPoint

DEFAULT_CACHE_DIR = ".benchcache"


def _table(header, rows) -> str:
    """Fixed-width text table (monospace-aligned, not markdown)."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _load_document(args, parser) -> dict:
    path = args.input or Path(f"DSE_{args.preset}.json")
    if not path.is_file():
        parser.error(f"no sweep document at {path} (run `sweep` first)")
    return json.loads(path.read_text())


def cmd_sweep(args, parser) -> int:
    space, workloads = PRESETS[args.preset]
    if args.workloads:
        workloads = tuple(
            w.strip() for w in args.workloads.split(",") if w.strip()
        )
    cache_dir = None if args.no_cache else args.cache_dir

    def ticker(done, total, outcome):
        if args.quiet:
            return
        tag = "hit " if outcome.cached else "run "
        if outcome.status == "failed":
            tag = "FAIL"
        print(
            f"[{done}/{total}] {tag} {outcome.workload}/{outcome.config_name}"
            + (f"  {outcome.error}" if outcome.error else ""),
            flush=True,
        )

    try:
        result = run_sweep(
            space,
            workloads,
            preset=args.preset,
            strategy=args.strategy,
            jobs=args.jobs,
            cache_dir=cache_dir,
            timeout=args.timeout,
            random_n=args.random_n,
            random_seed=args.random_seed,
            halving_eta=args.eta,
            engine=args.engine,
            progress=ticker,
        )
    except KeyboardInterrupt:
        # evaluated cells are already fsync'd in the disk cache — a
        # rerun resumes from them instead of recomputing the sweep
        if cache_dir is not None:
            print(
                f"interrupted: completed evaluations are flushed to "
                f"{cache_dir}; rerun the same command to resume",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: no cache dir configured, completed "
                "evaluations were discarded",
                file=sys.stderr,
            )
        return 130
    text = result.to_json()
    # ooo sweeps measure a different timing/energy model; never let them
    # clobber (or masquerade as) the in-order document of the same preset
    stem = f"DSE_ooo_{args.preset}" if result.timing.startswith("ooo") else f"DSE_{args.preset}"
    output = args.output or Path(f"{stem}.json")
    if args.check and output.is_file():
        previous = output.read_text()
        if previous != text:
            print(
                f"{output} DRIFTED: rerun produced a different document",
                file=sys.stderr,
            )
            return 1
        print(f"{output} reproduced byte-identically", flush=True)
    atomic_write(output, text.encode())

    failed = [r for r in result.rows if r.status != "ok"]
    document = result.to_document()
    best_rows = [
        [w, b["config"], f"{b['energy_pj']:.0f}", b["cycles"],
         f"{100 * b['savings_vs_worst']:.1f}%"]
        for w, b in document["best"].items()
    ]
    print(
        f"{args.preset}: {result.evaluations} evaluations "
        f"({len(result.rows)} rows, {len(failed)} failed) via {args.strategy}",
        flush=True,
    )
    if best_rows:
        print(_table(
            ["workload", "best config", "energy (pJ)", "cycles", "vs worst"],
            best_rows,
        ))
    print(f"wrote {output}", flush=True)
    return 1 if failed else 0


def cmd_pareto(args, parser) -> int:
    document = _load_document(args, parser)
    for workload, front in sorted(document["pareto"].items()):
        if args.workload and workload != args.workload:
            continue
        print(f"\n{workload}: {len(front)} non-dominated point(s)")
        print(_table(
            ["config", "energy (pJ)", "cycles", "misspec rate"],
            [
                [p["config"], f"{p['energy_pj']:.0f}", p["cycles"],
                 f"{p['misspec_rate']:.6f}"]
                for p in front
            ],
        ))
    return 0


def cmd_best(args, parser) -> int:
    document = _load_document(args, parser)
    best = document["best"]
    if args.workload:
        best = {w: b for w, b in best.items() if w == args.workload}
        if not best:
            parser.error(f"workload {args.workload!r} not in the document")
    print(_table(
        ["workload", "best config", "energy (pJ)", "cycles", "misspecs",
         "vs worst"],
        [
            [w, b["config"], f"{b['energy_pj']:.0f}", b["cycles"],
             b["misspeculations"], f"{100 * b['savings_vs_worst']:.1f}%"]
            for w, b in sorted(best.items())
        ],
    ))
    if not args.explain:
        return 0

    violations = []
    for workload, entry in sorted(best.items()):
        point = SpecPoint.from_dict(entry["knobs"])
        if point.slice_width >= 32:
            print(f"\n{workload}: winner is the speculation-off point — "
                  "nothing to attribute")
            continue
        explanation = explain_point(point, workload)
        print(
            f"\n{workload}: {explanation['winner']} saves "
            f"{100 * explanation['savings']:.1f}% "
            f"({explanation['energy_pj_winner']:.0f} pJ vs "
            f"{explanation['energy_pj_baseline']:.0f} pJ at width 32)"
        )
        print(_table(
            ["variable", "width-32 (pJ)", "winner (pJ)", "delta (pJ)"],
            [
                [m["variable"], f"{m['energy_pj_baseline']:.0f}",
                 f"{m['energy_pj_winner']:.0f}", f"{m['delta_pj']:+.0f}"]
                for m in explanation["movers"]
            ],
        ))
        if explanation["regions"]:
            print(_table(
                ["region", "energy (pJ)", "insts", "misspecs"],
                [
                    [r["region"], f"{r['energy_pj']:.0f}",
                     r["instructions"], r["misspeculations"]]
                    for r in explanation["regions"][:args.top]
                ],
            ))
        for violation in explanation["conservation_violations"]:
            print(f"CONSERVATION VIOLATION: {violation}", file=sys.stderr)
        violations.extend(explanation["conservation_violations"])
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Design-space exploration over speculation parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a preset sweep, emit DSE_*.json")
    sweep.add_argument("--preset", choices=sorted(PRESETS), default="mini")
    sweep.add_argument(
        "--workloads", default=None,
        help="comma-separated workloads (overrides the preset roster)",
    )
    sweep.add_argument(
        "--strategy", choices=("grid", "random", "halving"), default="grid"
    )
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--timeout", type=float, default=300.0)
    sweep.add_argument("--cache-dir", type=Path, default=Path(DEFAULT_CACHE_DIR))
    sweep.add_argument("--no-cache", action="store_true")
    sweep.add_argument("--output", type=Path, default=None)
    sweep.add_argument(
        "--random-n", type=int, default=8,
        help="points sampled by --strategy random",
    )
    sweep.add_argument("--random-seed", type=int, default=0)
    sweep.add_argument(
        "--eta", type=int, default=3, help="halving keep-rate (top 1/eta)"
    )
    sweep.add_argument(
        "--check", action="store_true",
        help="fail if an existing document is not reproduced byte-identically",
    )
    sweep.add_argument("--quiet", action="store_true")
    sweep.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine for every cell.  The in-order engines are "
        "bit-identical (affect throughput only, never the document); "
        "'ooo' measures the out-of-order timing/energy model and writes "
        "DSE_ooo_<preset>.json by default",
    )
    sweep.set_defaults(func=cmd_sweep)

    pareto = sub.add_parser("pareto", help="print per-workload Pareto fronts")
    best = sub.add_parser("best", help="print (and explain) the winners")
    for command in (pareto, best):
        command.add_argument("--preset", choices=sorted(PRESETS), default="mini")
        command.add_argument(
            "--input", type=Path, default=None,
            help="sweep document (default: DSE_<preset>.json)",
        )
        command.add_argument("--workload", default=None)
    pareto.set_defaults(func=cmd_pareto)
    best.add_argument(
        "--explain", action="store_true",
        help="obs-attribute each winner's energy delta vs its width-32 twin",
    )
    best.add_argument(
        "--top", type=int, default=8, help="rows per --explain table"
    )
    best.set_defaults(func=cmd_best)

    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
