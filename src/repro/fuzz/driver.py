"""Parallel differential-fuzzing driver and CLI.

``python -m repro.fuzz --seed N --iters K --jobs J`` generates K programs
from deterministic per-iteration seeds, pushes each through the full oracle
stack (:func:`repro.fuzz.oracles.run_oracles`) on the campaign kernel's
serial-or-pool loop (:func:`repro.core.campaign.run_cells`), shrinks any
failure, and writes a replayable artifact to the corpus directory.
Results arrive in iteration order, so failures are reported
deterministically whatever ``--jobs`` is.

Per-iteration seeds are derived purely from ``(base_seed, index)``, so the
parent process can regenerate any worker's failing program without shipping
ASTs across the process boundary — workers return small picklable
summaries only.

``--verify`` folds ``repro.verify`` into the campaign loop: every
oracle-clean program is additionally pushed through bounded symbolic
equivalence checking, and any counterexample is concretized into the same
corpus directory as the fuzz failures (``verify-*.json``) — one corpus
economy, and tier-1 replays the new entries like any other artifact.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.campaign import iteration_seed, run_cells
from repro.fuzz.corpus import save_counterexample, save_program
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import run_oracles
from repro.fuzz.shrink import Shrinker

#: default artifact directory, relative to the repo root
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "corpus"


@dataclass
class IterationResult:
    """Picklable per-iteration outcome returned by workers."""

    index: int
    seed: int
    ok: bool
    misspeculations: int = 0
    levels: int = 0
    summary: str = ""
    counterexamples: int = 0  # symbolic counterexamples (--verify mode)


def _verify_counterexamples(program, k: int) -> list:
    """Bounded symbolic verification of one program; counterexample verdicts.

    The fuzz oracles only ever test the concrete input vectors the
    generator drew; verification covers *all* inputs up to width ``k``, so
    it can convict programs the oracles wave through.
    """
    from repro.verify.checker import list_targets, verify_function

    found = []
    for function in list_targets(program.source):
        verdict = verify_function(
            program.source,
            function,
            inputs_profile=program.inputs_profile,
            inputs_run=program.inputs_run,
            expander_enabled=program.expander_enabled,
            name=f"seed{program.seed}-{function}",
            k=k,
        )
        if verdict["verdict"] == "counterexample":
            found.append(verdict)
    return found


def _run_one(task: tuple) -> IterationResult:
    index, seed, verify_k = task
    program = generate_program(seed)
    report = run_oracles(program)
    counterexamples = 0
    if verify_k and report.ok:
        counterexamples = len(_verify_counterexamples(program, verify_k))
    return IterationResult(
        index=index,
        seed=seed,
        ok=report.ok,
        misspeculations=sum(report.misspeculations.values()),
        levels=len(report.outputs),
        summary=report.summary(),
        counterexamples=counterexamples,
    )


def _same_failure(signature: tuple):
    """Predicate: candidate reproduces the *same class* of failure.

    Bare ``not report.ok`` lets the shrinker wander onto unrelated failures —
    e.g. a loop condition simplified to ``1`` turns the bug under
    investigation into a step-limit timeout that also "fails".
    """

    def predicate(candidate) -> bool:
        return run_oracles(candidate).signature() == signature

    return predicate


def _handle_failure(
    result: IterationResult, corpus_dir: Path, shrink: bool
) -> Path:
    """Regenerate the failing program in-process, shrink it, save artifact."""
    program = generate_program(result.seed)
    if shrink:
        shrinker = Shrinker(_same_failure(run_oracles(program).signature()))
        program = shrinker.shrink(program)
        print(
            f"  shrunk {shrinker.stats.initial_lines} -> "
            f"{shrinker.stats.final_lines} lines "
            f"({shrinker.stats.predicate_calls} oracle runs)",
            flush=True,
        )
    name = f"failure-seed{result.seed}"
    return save_program(program, corpus_dir / f"{name}.json", name=name)


def fuzz(
    base_seed: int,
    iters: int,
    jobs: int = 1,
    *,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    verbose: bool = True,
    verify_k: int = 0,
) -> int:
    """Run the campaign; returns the number of failing iterations.

    ``verify_k > 0`` additionally pushes every oracle-clean program through
    bounded symbolic verification at that input width; counterexamples
    count as failures and are concretized into ``corpus_dir``.
    """
    corpus_dir = Path(corpus_dir) if corpus_dir else DEFAULT_CORPUS_DIR
    tasks = [(i, iteration_seed(base_seed, i), verify_k) for i in range(iters)]
    started = time.monotonic()
    failures: list = []
    convicted: list = []
    total_misspecs = 0

    def bookkeep(done: int, _total: int, result: IterationResult) -> None:
        nonlocal total_misspecs
        total_misspecs += result.misspeculations
        if not result.ok:
            failures.append(result)
            print(
                f"[{done}/{iters}] FAIL seed={result.seed}: {result.summary}",
                flush=True,
            )
        elif result.counterexamples:
            convicted.append(result)
            print(
                f"[{done}/{iters}] COUNTEREXAMPLE seed={result.seed}: "
                f"{result.counterexamples} function(s) refuted at k={verify_k}",
                flush=True,
            )
        elif verbose and done % 10 == 0:
            print(f"[{done}/{iters}] ok", flush=True)

    run_cells(tasks, _run_one, jobs=jobs, progress=bookkeep)

    elapsed = time.monotonic() - started
    rate = iters / elapsed if elapsed > 0 else float("inf")
    verified = f", {len(convicted)} symbolic counterexamples" if verify_k else ""
    print(
        f"{iters} programs, {len(failures)} failures{verified}, "
        f"{total_misspecs} misspeculations observed, "
        f"{elapsed:.1f}s ({rate:.2f} prog/s)",
        flush=True,
    )

    for failure in failures:
        path = _handle_failure(failure, corpus_dir, shrink)
        print(f"  artifact: {path}", flush=True)
    for result in convicted:
        # regenerate in-process (same economy as failures) and concretize
        program = generate_program(result.seed)
        for verdict in _verify_counterexamples(program, verify_k):
            path = save_counterexample(verdict, corpus_dir)
            print(f"  artifact: {path}", flush=True)
    return len(failures) + len(convicted)


def replay(path: Path) -> int:
    """Re-run one saved artifact through the oracle stack."""
    from repro.fuzz.corpus import load_program

    try:
        program = load_program(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifact {path}: {exc}", file=sys.stderr)
        return 2
    report = run_oracles(program)
    print(f"{path}: {report.summary()}")
    if report.error:
        print(report.error)
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzer: random MiniC programs vs. the "
        "reference evaluator, IR interpreter, and machine simulator across "
        "BASELINE/BITSPEC/THUMB configurations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign base seed")
    parser.add_argument("--iters", type=int, default=100, help="programs to run")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--corpus-dir",
        type=Path,
        default=None,
        help=f"artifact directory (default: {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="save failing programs unshrunk",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="push every oracle-clean program through bounded symbolic "
        "verification (repro.verify); counterexamples are concretized "
        "into the corpus directory as verify-*.json",
    )
    parser.add_argument(
        "--verify-k",
        type=int,
        default=6,
        help="input bit-width bound for --verify (default 6)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="ARTIFACT",
        help="re-run one saved corpus artifact instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        return replay(args.replay)

    failures = fuzz(
        args.seed,
        args.iters,
        jobs=max(args.jobs, 1),
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        verify_k=args.verify_k if args.verify else 0,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
