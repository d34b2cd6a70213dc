"""``python -m repro.bench`` — run a benchmark roster, emit BENCH_<date>.json.

Examples::

    python -m repro.bench --roster mini --jobs 4
    python -m repro.bench --roster full --configs baseline,bitspec-max \\
        --jobs 8 --cache-dir .benchcache --output BENCH_full.json
    python -m repro.bench --roster mini --jobs 1 --no-cache   # cold reference
    python -m repro.bench --roster full --compare-engines legacy,fast

The emitted JSON is the repo's perf record: wall-clock for the whole
campaign, per-workload simulation time, cache hit rate, and simulated
instructions per second.  See DESIGN.md ("The bench harness") for how to
read it.

``--engine`` runs the whole matrix under one simulation engine
("legacy" / "fast"); the in-order engines are bit-identical, so this
changes throughput, not results.  ``--compare-engines`` switches to a
single-process interleaved A/B timing mode (see
:mod:`repro.bench.compare`) and emits a ``compare`` report instead of a
matrix report — this is how the committed engine-speedup BENCH json is
produced.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

from repro.arch.machine import ENGINES, parse_engine_list
from repro.bench.executor import BenchTask, run_matrix
from repro.core.documents import write_document
from repro.core.pipeline import PRESETS, resolve_config
from repro.eval.harness import BENCHMARKS

#: named workload rosters
ROSTERS = {
    "mini": ("crc32", "sha", "bitcount"),
    "full": tuple(BENCHMARKS),
}

#: named configuration presets available to --configs
CONFIG_FACTORIES = PRESETS

DEFAULT_CONFIGS = ("baseline", "bitspec-max", "thumb")
DEFAULT_CACHE_DIR = ".benchcache"


def build_tasks(workloads, configs, seeds, engine=None) -> list[BenchTask]:
    return [
        BenchTask(workload=w, config=c, run_seed=s, engine=engine)
        for w in workloads
        for c in configs
        for s in range(seeds)
    ]


def summarize(outcomes, stats, *, roster, configs, jobs, cache_dir, engine=None) -> dict:
    per_workload: dict = {}
    for o in outcomes:
        row = per_workload.setdefault(
            o.workload,
            {"tasks": 0, "failed": 0, "sim_seconds": 0.0, "instructions": 0},
        )
        row["tasks"] += 1
        row["sim_seconds"] += o.sim_seconds
        if o.status == "ok":
            row["instructions"] += o.instructions
        else:
            row["failed"] += 1
    for row in per_workload.values():
        row["sim_seconds"] = round(row["sim_seconds"], 4)
    return {
        "schema": 1,
        "generated": datetime.datetime.now().isoformat(timespec="seconds"),
        "roster": list(roster),
        "configs": list(configs),
        "engine": engine,
        "jobs": jobs,
        "wall_clock_seconds": round(stats.wall_seconds, 4),
        "cache": {
            "enabled": cache_dir is not None,
            "dir": str(cache_dir) if cache_dir is not None else None,
            "hits": stats.cache_hits,
            "tasks": stats.tasks,
            "hit_rate": round(stats.hit_rate, 4),
        },
        "totals": {
            "tasks": stats.tasks,
            "ok": stats.ok,
            "failed": stats.failed,
            "retried": stats.retried,
            "instructions": stats.instructions,
            "sim_seconds": round(stats.sim_seconds, 4),
            "instructions_per_second": round(stats.instructions_per_second, 1),
        },
        "per_workload": per_workload,
        "tasks": [o.as_dict() for o in outcomes],
    }


def _run_compare(args, workloads, config, engines) -> int:
    from repro.bench.compare import compare_engines

    def ticker(workload, engine, seconds):
        if args.quiet:
            return
        print(f"{workload}/{engine}: {seconds:.3f}s", flush=True)

    body = compare_engines(
        workloads, config, engines, repeats=args.repeats, progress=ticker
    )
    report = {
        "schema": 1,
        "generated": datetime.datetime.now().isoformat(timespec="seconds"),
        "roster": list(workloads),
        **body,
    }
    output = args.output or Path(
        f"BENCH_{datetime.date.today().isoformat()}.json"
    )
    write_document(output, report)

    reference = body["reference"]
    agg = body["aggregate"]["engines"]
    for engine in engines:
        line = (
            f"{engine:8s} {agg[engine]['instructions_per_second']:,.0f} inst/s"
        )
        if engine != reference:
            line += f"  ({agg[engine]['speedup']:.2f}x vs {reference})"
        print(line, flush=True)
    print(f"wrote {output}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Parallel, persistently-cached benchmark runner.",
    )
    parser.add_argument(
        "--roster",
        choices=sorted(ROSTERS),
        default="mini",
        help="named workload roster (default: mini)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload list (overrides --roster)",
    )
    parser.add_argument(
        "--configs",
        default=",".join(DEFAULT_CONFIGS),
        help=f"comma-separated config presets from: {', '.join(sorted(CONFIG_FACTORIES))}",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--seeds", type=int, default=1, help="run-input seeds per cell"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-task timeout in seconds (0 disables)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(DEFAULT_CACHE_DIR),
        help=f"persistent result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache (cold run)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default: BENCH_<date>.json)",
    )
    parser.add_argument("--quiet", action="store_true", help="no per-task ticker")
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="run the whole matrix under one simulation engine (ooo uses "
        "its own cycle/energy model and a separate disk-cache partition)",
    )
    parser.add_argument(
        "--compare-engines",
        default=None,
        metavar="ENGINES",
        help="comma-separated engine list (first = reference); switches to "
        "single-process interleaved A/B timing and emits a compare report",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing rounds per cell in --compare-engines mode (default: 3)",
    )
    args = parser.parse_args(argv)

    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    else:
        workloads = ROSTERS[args.roster]
    unknown = [w for w in workloads if w not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    try:
        configs = [resolve_config(c) for c in config_names]
    except ValueError as exc:
        parser.error(str(exc))

    if args.compare_engines:
        try:
            engines = parse_engine_list(args.compare_engines)
        except ValueError as exc:
            parser.error(str(exc))
        if len(engines) < 2:
            parser.error("--compare-engines needs at least two engines")
        return _run_compare(args, workloads, configs[0], engines)

    cache_dir = None if args.no_cache else args.cache_dir
    tasks = build_tasks(workloads, configs, max(args.seeds, 1), engine=args.engine)

    def ticker(done, total, outcome):
        if args.quiet:
            return
        tag = "hit " if outcome.cached else "run "
        if outcome.status == "failed":
            tag = "FAIL"
        print(
            f"[{done}/{total}] {tag} {outcome.workload}/{outcome.config_name}"
            f" seed={outcome.run_seed} {outcome.sim_seconds:.2f}s"
            + (f"  {outcome.error}" if outcome.error else ""),
            flush=True,
        )

    try:
        outcomes, stats = run_matrix(
            tasks,
            jobs=max(args.jobs, 1),
            cache_dir=cache_dir,
            timeout=args.timeout or None,
            progress=ticker,
        )
    except KeyboardInterrupt:
        # completed RunRecords are already fsync'd in the disk cache —
        # a rerun resumes from them instead of recomputing
        if cache_dir is not None:
            print(
                f"interrupted: partial results are flushed to {cache_dir}; "
                "rerun the same command to resume from the cache",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: no cache dir configured, partial results "
                "were discarded",
                file=sys.stderr,
            )
        return 130

    report = summarize(
        outcomes,
        stats,
        roster=workloads,
        configs=config_names,
        jobs=max(args.jobs, 1),
        cache_dir=cache_dir,
        engine=args.engine,
    )
    output = args.output or Path(
        f"BENCH_{datetime.date.today().isoformat()}.json"
    )
    write_document(output, report)

    print(
        f"{stats.tasks} tasks ({stats.ok} ok, {stats.failed} failed, "
        f"{stats.retried} retried) in {stats.wall_seconds:.1f}s wall on "
        f"{max(args.jobs, 1)} worker(s); cache hit rate "
        f"{100.0 * stats.hit_rate:.0f}%; "
        f"{stats.instructions_per_second:,.0f} simulated inst/s",
        flush=True,
    )
    print(f"wrote {output}", flush=True)
    return 1 if stats.failed else 0


if __name__ == "__main__":
    sys.exit(main())
