"""The repository benchmark: five shipped workflows, timed end to end.

    python3 perf/bench.py --seed 0                  # every workload
    python3 perf/bench.py --workload dse-sweep --seed 3 --seconds 15
    python3 perf/bench.py --seed 0 --trace 1        # per-layer breakdown
    python3 perf/bench.py --seed 0 --check          # also gate the digests
    python3 perf/bench.py compare PARENT.jsonl CHANGE.jsonl

Each workload's job (``workloads.py``) runs in a fresh child process with
empty caches, at least three times and then while ``--seconds`` allows;
the metrics are medians over those repeats.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced; per-layer metrics with ``--trace 1``).  The full
results go to ``perf/out/results.json``; ``--record FILE`` appends them
as one JSON line, the input ``compare`` reads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
BASELINE = PERF / "baseline.json"

#: end-to-end metrics: (name, unit, better, bound as a share of the median).
#: On a shared 2-core host the speed of the whole machine drifts by 10-15%
#: over minutes, and now and then drops by 40% for a minute or two, so ten
#: runs' wall and set-up times spread by 3-26% (perf/README.md).  The
#: time bounds are the widest a benchmark may set; compare's paired
#: *slower* verdict catches smaller slowdowns, which pairing resolves.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: layers reported as their share of wall_s (busy time of every process
#: of the workload, so the serve worker's layers are counted too)
SHARE_LAYERS = (
    "frontend", "cfg_prep", "profile", "squeeze", "opts", "isel",
    "regalloc", "layout", "compile", "inputs", "reference", "predecode",
    "translate", "execute", "fold", "attribution", "cache", "executor",
    "dse", "serve", "report", "verify", "symexec",
)

#: per-layer metrics: (name, unit, better)
PER_LAYER = (
    *((f"{layer}.pct", "%", "lower") for layer in SHARE_LAYERS),
    ("other.pct", "%", "lower"),
    ("profile.calls", "count", "lower"),
    ("compile.calls", "count", "lower"),
    ("translate.builds", "count", "lower"),
    ("translate.runs_per_build", "ratio", "higher"),
    ("sim.runs", "count", "lower"),
    ("sim.minst_per_s", "Minst/s", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("serve.front.pct", "%", "lower"),
    ("serve.executed", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("trace_overhead.pct", "%", "lower"),
)

#: a child that outlives this is killed; a run must end within 180 s
JOB_TIMEOUT_S = 60.0
#: repeats of a job in every run, whatever ``--seconds`` says
MIN_REPEATS = 3


class BenchError(RuntimeError):
    pass


# -- statistics ---------------------------------------------------------------


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def classify(parent, change, better: str, bound: float) -> str:
    """One workload × metric row of ``compare``.

    ``parent`` and ``change`` are per-run values, paired by index and run
    alternately.  *worse* means the change's median is worse than the
    parent's by more than ``bound``.  *improved* needs ≥10 pairs, the
    change winning ≥9/10 of them (ties count for neither) and medians
    further apart than the parent's interquartile distance; *slower* is
    the same rule the other way round, a slowdown inside the bound that
    the pairs still resolve (the bound has to absorb the host's drift
    between unpaired sets, pairing cancels it).  *unresolved* means the
    parent's own spread is wider than the bound, unless every change run
    beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 is worse
    pm, cm = statistics.median(parent), statistics.median(change)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) >= 2 else (pm, pm, pm)
    pairs = list(zip(parent, change))
    if len(pairs) >= 10 and abs(cm - pm) > q3 - q1:
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        losses = sum(sign * (c - p) > 0 for p, c in pairs)
        if sign * (cm - pm) < 0 and wins >= 0.9 * len(pairs):
            return "improved"
        if sign * (cm - pm) > 0 and losses >= 0.9 * len(pairs):
            return "slower"
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread(parent) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


# -- running jobs -------------------------------------------------------------


def _run_job(workload: str, seed: int, traced: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    spec = {
        "workload": workload, "seed": seed, "trace": traced,
        "dir": str(workdir), "spawned": time.monotonic(),
    }
    env = dict(os.environ, TMPDIR=str(workdir))
    child = subprocess.Popen(
        [sys.executable, str(PERF / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} exceeded {JOB_TIMEOUT_S:.0f}s")
    finally:
        if child.poll() is None:  # timed out or interrupted
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        raise BenchError(f"{workload} exited with code {code}")
    return json.loads((workdir / "result.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Repeat the workload's job, each time in a fresh process, at least
    :data:`MIN_REPEATS` times and then while ``seconds`` allows.

    With ``trace`` every repeat runs once traced and once untraced, in
    alternating order, so the difference is the tracing overhead.
    """
    plain: list = []
    traced: list = []
    started = time.monotonic()
    repeats = 0
    while True:
        modes = (False, True) if trace else (False,)
        for mode in modes[:: -1 if repeats % 2 else 1]:
            tag = f"{workload}-{repeats}-{'traced' if mode else 'plain'}"
            (traced if mode else plain).append(_run_job(workload, seed, mode, run_dir / tag))
        repeats += 1
        elapsed = time.monotonic() - started
        if repeats >= MIN_REPEATS and elapsed * (repeats + 1) / repeats > seconds:
            return {"plain": plain, "traced": traced}


# -- aggregation --------------------------------------------------------------


def _median(records, key) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(plain) -> dict:
    """Every end-to-end metric: the median over the untraced repeats."""
    return {name: _median(plain, name) for name, *_ in END_TO_END}


def layers(traced, plain) -> dict:
    """Per-layer absolute numbers (seconds, counts): medians over the
    traced repeats.  A layer whose code is gone reads null."""
    tables = {}
    for key in ("self_s", "calls", "counters"):
        names = sorted({n for r in traced for n in r["trace"][key]})
        tables[key] = {
            n: statistics.median(r["trace"][key].get(n, 0) for r in traced) for n in names
        }
    missing = sorted({m for r in traced for m in r["trace"]["missing"]})
    wall = _median(traced, "wall_s")
    return {
        "wall_s": wall,
        # each traced repeat ran next to an untraced one; the median of
        # the pairs' ratios cancels the host's slow drift
        "trace_overhead": statistics.median(
            t["wall_s"] / p["wall_s"] - 1.0 for t, p in zip(traced, plain)
        ),
        "self_s": {**tables["self_s"], **dict.fromkeys(missing)},
        "calls": tables["calls"],
        "counters": tables["counters"],
        "other_s": wall - statistics.median(r["trace"]["covered_s"] for r in traced),
        "request_s": statistics.median(r.get("request_s", 0.0) for r in traced),
        "missing": missing,
    }


def per_layer(lay: dict, outputs: dict) -> dict:
    """The per-layer metrics; a missing layer reads 0 here."""
    wall = lay["wall_s"]
    self_s = {k: v or 0.0 for k, v in lay["self_s"].items()}
    calls, counters = lay["calls"], lay["counters"]
    metrics = {f"{layer}.pct": 100.0 * self_s.get(layer, 0.0) / wall for layer in SHARE_LAYERS}
    metrics["other.pct"] = 100.0 * lay["other_s"] / wall
    builds = calls.get("_build_image", 0)
    runs = calls.get("Machine.run", 0)
    gets = calls.get("DiskCache.get", 0)
    execute = self_s.get("execute", 0.0)
    pool = self_s.get("pool", 0.0)
    metrics.update({
        "profile.calls": calls.get("BitwidthProfile.collect", 0),
        "compile.calls": calls.get("compile_binary", 0),
        "translate.builds": builds,
        "translate.runs_per_build": runs / builds if builds else 0.0,
        "sim.runs": runs,
        "sim.minst_per_s": counters.get("sim.instructions", 0) / execute / 1e6 if execute else 0.0,
        "cache.hit_ratio": counters.get("cache.hits", 0) / gets if gets else 0.0,
        "serve.front.pct": 100.0 * (1.0 - pool / lay["request_s"]) if pool else 0.0,
        "serve.executed": outputs.get("executed", 0),
        "serve.cache_hits": outputs.get("cache_hits", 0),
        "serve.coalesced": outputs.get("coalesced", 0),
        "trace_overhead.pct": 100.0 * lay["trace_overhead"],
    })
    return metrics


def summarize(seed: int, measured: dict) -> dict:
    plain, traced = measured["plain"], measured["traced"]
    records = plain + traced
    problems = [p for r in records for p in r["problems"]]
    if len({r["digest"] for r in records}) > 1:
        problems.append("outputs differ between repeats")
    failed = sum(r["failed"] for r in records)
    result = {
        "seed": seed,
        "repeats": len(plain),
        "correct": failed == 0 and not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "problems": problems[:20],
        "results_sha256": plain[0]["digest"],
        "outputs": plain[0]["outputs"],
        "end_to_end": end_to_end(plain),
        "samples": {key: [r[key] for r in plain] for key in ("setup_s", "wall_s")},
    }
    if traced:
        result["layers"] = layers(traced, plain)
        result["per_layer"] = per_layer(result["layers"], result["outputs"])
    return result


# -- digests ------------------------------------------------------------------


def check_digests(results: dict, baseline: dict) -> list:
    """Mismatches between this run's results digests and the recorded ones.

    A workload whose inputs depend on the seed is checked only at the
    recorded seed; a fixed-input workload is checked at every seed.
    """
    from workloads import WORKLOADS

    mismatches = []
    for name, result in results.items():
        recorded = baseline.get("digests", {}).get(name)
        if recorded is None:
            continue
        if WORKLOADS[name].seeded and recorded["seed"] != result["seed"]:
            continue
        if recorded["results_sha256"] != result["results_sha256"]:
            mismatches.append(
                f"{name}: results_sha256 {result['results_sha256'][:16]}… "
                f"!= recorded {recorded['results_sha256'][:16]}…"
            )
    return mismatches


# -- compare ------------------------------------------------------------------


def _load_runs(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(parent_runs: list, change_runs: list, workloads) -> list:
    """Rows of (workload, metric, verdict, parent median, change median)
    for every workload × end-to-end metric.  A workload that some run
    left out is *missing*: no regression can be ruled out for it."""
    rows = []
    for workload in workloads:
        runs = parent_runs + change_runs
        if not parent_runs or not change_runs or any(workload not in r["workloads"] for r in runs):
            rows.extend((workload, name, "missing", None, None) for name, *_ in END_TO_END)
            continue
        for name, _unit, better, bound in END_TO_END:
            parent = [r["workloads"][workload]["end_to_end"][name] for r in parent_runs]
            change = [r["workloads"][workload]["end_to_end"][name] for r in change_runs]
            verdict = classify(parent, change, better, bound)
            rows.append((workload, name, verdict, statistics.median(parent), statistics.median(change)))
    return rows


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perf/bench.py compare")
    parser.add_argument("parent", help="JSON lines written by --record on the parent")
    parser.add_argument("change", help="JSON lines written by --record on the change")
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    parent, change = _load_runs(args.parent), _load_runs(args.change)
    print(f"{len(parent)} parent run(s), {len(change)} change run(s)")
    rows = compare(parent, change, WORKLOADS)
    for workload, name, verdict, pm, cm in rows:
        medians = "" if pm is None else f"parent {pm:.4f}  change {cm:.4f}"
        print(f"{workload:15s} {name:12s} {verdict:10s} {medians}")
    return 1 if any(row[2] in ("worse", "slower", "missing") for row in rows) else 0


# -- main ---------------------------------------------------------------------


def _print_workload(name: str, result: dict, trace: bool) -> None:
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    status = "ok" if result["correct"] else "INCORRECT: " + "; ".join(result["problems"][:3])
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed, "
          f"{result['repeats']} repeats, {status}")
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:18s} {value:12.4f} {units[metric]}")
    for key, value in result["outputs"].items():
        print(f"  {key:18s} {value:g}")
    if trace:
        for metric, value in result["per_layer"].items():
            if value:
                print(f"  {metric:26s} {value:12.4f} {units[metric]}")


def _result_line(results: dict, trace: bool) -> dict:
    table = PER_LAYER if trace else END_TO_END
    key = "per_layer" if trace else "end_to_end"
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for name, unit, *_ in table:
            label = name if single else f"{workload}:{name}"
            metrics[label] = {"value": result[key][name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perf/bench.py", description=__doc__.split("\n")[0])
    # the benchmark contract runs one workload per invocation; without the
    # flag all five run, which is what --record and compare need
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="repeat the job while this budget lasts (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run each repeat traced and untraced, report per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 if a results digest differs from perf/baseline.json")
    parser.add_argument("--record", metavar="FILE", help="append the results as one JSON line")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so set-up measures imports as an
    # installed package pays them whatever PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(PERF, quiet=1, maxlevels=0)

    names = [args.workload] if args.workload else list(WORKLOADS)
    run_dir = OUT / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            measured = measure(name, args.seed, args.seconds, bool(args.trace), run_dir)
            results[name] = summarize(args.seed, measured)
            _print_workload(name, results[name], bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    document = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "workloads": results}
    (OUT / "results.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
    code = 0
    if args.check:
        mismatches = check_digests(results, json.loads(BASELINE.read_text()))
        for line in mismatches:
            print(f"digest mismatch: {line}", file=sys.stderr)
        code = 3 if mismatches else 0
    print(json.dumps(_result_line(results, bool(args.trace))))
    return code


if __name__ == "__main__":
    sys.exit(main())
