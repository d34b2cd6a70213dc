"""CLI driver: ``python -m repro.verify``.

Three modes, combinable except where noted:

``--canary``
    Run the seeded broken-compiler canaries (:data:`repro.verify.CANARIES`)
    and assert every bend is caught with a confirmed concrete
    counterexample.  Exit 0 iff all are caught.

``--corpus DIR``
    Verify every function of every corpus entry in ``DIR`` (default mode,
    over ``tests/corpus`` when no mode flag is given).

``--workloads NAME [NAME ...]``
    Verify the named benchmark programs (``all`` = every registered
    workload) using their train inputs as the profile and test inputs as
    the concrete non-symbolic globals.

The report is deterministic JSON (sorted keys, no timestamps, repo-relative
names) so CI can assert byte-identical reruns.  Exit status: 0 when no
counterexample was found (normal modes) or every canary was caught
(``--canary``); 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.documents import write_document
from repro.fuzz.corpus import iter_corpus, save_counterexample
from repro.verify.checker import (
    CANARIES,
    DEFAULT_MAX_LANES,
    DEFAULT_MAX_STATES,
    DEFAULT_STEP_BUDGET,
    list_targets,
    run_canary,
    verify_function,
)

#: verdict buckets tallied in the report summary
VERDICTS = ("proved", "counterexample", "bound-exceeded", "skipped", "error")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Bounded symbolic equivalence checking: prove BITSPEC == "
            "BASELINE for all inputs up to width k, or concretize a "
            "counterexample into the fuzz corpus."
        ),
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        help="verify every entry in a fuzz-corpus directory "
        "(default mode: tests/corpus)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="verify the named workloads ('all' = every registered one)",
    )
    parser.add_argument(
        "--canary",
        action="store_true",
        help="run the seeded broken-compiler soundness canaries",
    )
    parser.add_argument(
        "--function",
        metavar="NAME",
        help="restrict verification to one function name",
    )
    parser.add_argument(
        "--k", type=int, default=8, help="input bit-width bound (default 8)"
    )
    parser.add_argument(
        "--heuristic",
        default="max",
        help="squeezer width heuristic for the BITSPEC world (default max)",
    )
    parser.add_argument(
        "--max-regions",
        type=int,
        default=0,
        help="skip functions with more speculative regions (0 = uncapped)",
    )
    parser.add_argument(
        "--max-lanes",
        type=int,
        default=DEFAULT_MAX_LANES,
        help=f"joint input-domain size cap (default {DEFAULT_MAX_LANES})",
    )
    parser.add_argument(
        "--step-budget",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help="lane-step execution budget per world "
        f"(default {DEFAULT_STEP_BUDGET})",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help=f"forked-state cap per world (default {DEFAULT_MAX_STATES})",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        help="write the full report as deterministic JSON to OUT",
    )
    parser.add_argument(
        "--emit-corpus",
        metavar="DIR",
        help="save each counterexample as a replayable corpus entry in DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-function lines"
    )
    return parser


def _bounds(args) -> dict:
    return dict(
        k=args.k,
        heuristic=args.heuristic,
        max_lanes=args.max_lanes,
        step_budget=args.step_budget,
        max_states=args.max_states,
        max_regions=args.max_regions,
    )


def _report_line(verdict: dict) -> str:
    extra = ""
    if verdict["verdict"] == "counterexample":
        extra = f"  inputs={verdict['counterexample']['inputs']}"
    elif verdict["reason"]:
        extra = f"  ({verdict['reason']})"
    lanes = verdict.get("lanes") or 0
    return (
        f"{verdict['name']:<40} {verdict['verdict']:<15}"
        f" lanes={lanes:<9}{extra}"
    )


def _emit(verdict: dict, out_dir: str, emitted: list) -> None:
    emitted.append(str(save_counterexample(verdict, out_dir)))


def _verify_program(source, name, targets, results, args, emitted, log):
    for function in targets:
        verdict = verify_function(
            source.source,
            function,
            inputs_profile=source.inputs_profile,
            inputs_run=source.inputs_run,
            expander_enabled=source.expander_enabled,
            name=f"{name}:{function}",
            **_bounds(args),
        )
        results.append(verdict)
        log(_report_line(verdict))
        if verdict["verdict"] == "counterexample" and args.emit_corpus:
            _emit(verdict, args.emit_corpus, emitted)


def _corpus_targets(program, args) -> list:
    targets = list_targets(program.source)
    if args.function:
        targets = [t for t in targets if t == args.function]
    return targets


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not (args.corpus or args.workloads or args.canary):
        args.corpus = "tests/corpus"

    log = (lambda _line: None) if args.quiet else print
    results = []
    emitted = []
    modes = []

    if args.canary:
        modes.append("canary")
        for canary in CANARIES:
            if args.function and canary["name"] != args.function:
                continue
            verdict = run_canary(canary, **_bounds(args))
            results.append(verdict)
            status = "caught" if verdict["caught"] else "MISSED"
            log(
                f"{verdict['name']:<40} {status:<15}"
                f" verdict={verdict['verdict']}"
            )
            if verdict["verdict"] == "counterexample" and args.emit_corpus:
                _emit(verdict, args.emit_corpus, emitted)

    if args.corpus:
        modes.append("corpus")
        entries = list(iter_corpus(args.corpus))
        if not entries:
            print(f"no corpus entries under {args.corpus}", file=sys.stderr)
            return 2
        for path, program in entries:
            _verify_program(
                program,
                path.stem,
                _corpus_targets(program, args),
                results,
                args,
                emitted,
                log,
            )

    if args.workloads:
        modes.append("workloads")
        from repro.fuzz.generator import FuzzProgram
        from repro.workloads.base import get_workload, workload_names

        names = args.workloads
        if names == ["all"]:
            names = workload_names()
        for wname in names:
            workload = get_workload(wname)
            program = FuzzProgram(
                source=workload.source,
                inputs_profile=workload.inputs("train", 0),
                inputs_run=workload.inputs("test", 0),
                seed=None,
                expander_enabled=True,
                note=f"workload {wname}",
            )
            _verify_program(
                program,
                wname,
                _corpus_targets(program, args),
                results,
                args,
                emitted,
                log,
            )

    summary = {v: 0 for v in VERDICTS}
    for verdict in results:
        summary[verdict["verdict"]] += 1
    canaries = [v for v in results if "caught" in v]
    report = {
        "schema": 1,
        "modes": modes,
        "k": args.k,
        "results": results,
        "summary": summary,
        "emitted": emitted,
        "all_canaries_caught": all(v["caught"] for v in canaries)
        if canaries
        else None,
    }
    if args.json:
        write_document(args.json, report)

    counted = sum(summary[v] for v in VERDICTS)
    log(
        f"verified {counted} function(s): "
        + ", ".join(f"{summary[v]} {v}" for v in VERDICTS if summary[v])
    )

    failed = summary["counterexample"] > 0
    if args.canary:
        missed = [v["name"] for v in canaries if not v["caught"]]
        if missed:
            print(f"MISSED canaries: {', '.join(missed)}", file=sys.stderr)
            return 1
        # counterexamples in canary mode are the expected outcome
        failed = any(
            v["verdict"] == "counterexample"
            for v in results
            if "caught" not in v
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
