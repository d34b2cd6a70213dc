"""The seeded campaign kernel behind ``repro.faults``, ``repro.chaos``,
the ``repro.fuzz`` driver, and — through
:func:`repro.bench.executor.run_matrix` — ``repro.bench`` and
``repro.dse``.

A campaign is a grid of cells.  Each cell gets a deterministic seed,
runs once, and is classified into one of a few domain categories.  The
kernel owns every part of that loop that is not domain knowledge:

* :func:`enumerate_cells` — cells are the product of the axes, repeated;
  cell *i* carries ``iteration_seed(seed, i)``, so a cell's seed depends
  only on the campaign seed and its position in the grid;
* :func:`run_cells` — the serial-or-pool run loop with a progress hook
  (the only batch process pool in the repo);
* :func:`guarded` — the uniform ``status: error`` record for a cell
  whose runner raises;
* :func:`summarize` — the per-axis category histogram plus the
  ``cells`` and ``errors`` counts;
* :func:`render_table` — the fixed-column text table;
* :func:`finish` — the CLI tail: write ``--json``, print the table,
  exit non-zero on the gate count or on errored cells.

Each campaign keeps its categories, its cell runner, its gate field and
its document layout.
"""

from __future__ import annotations

import itertools
import multiprocessing
import sys
from typing import Callable, Optional, Sequence

from repro.core.documents import write_document


def iteration_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed per-iteration seed (splitmix64 step)."""
    x = (base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


def enumerate_cells(axes: Sequence[Sequence], seed: int, repeat: int) -> list:
    """``(*axis values, cell seed)`` for every cell of the grid, each
    combination of axis values repeated ``repeat`` times in a row."""
    grid = itertools.product(*axes, range(repeat))
    return [(*cell[:-1], iteration_seed(seed, i)) for i, cell in enumerate(grid)]


def run_cells(
    cells: list,
    run_cell: Callable,
    *,
    jobs: int = 1,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    progress=None,
) -> list:
    """``run_cell(cell)`` for every cell, in order, serially or on a
    ``jobs``-process pool; ``progress(done, total, record)`` after each.

    The pool hands out contiguous chunks of about a quarter of a worker's
    share, so neighbouring cells — which share a compile slice in DSE
    grids and a golden run in fault campaigns — mostly land on one worker.
    """
    pool = None
    if jobs > 1 and len(cells) > 1:
        pool = multiprocessing.get_context().Pool(
            processes=jobs, initializer=initializer, initargs=initargs
        )
        records = pool.imap(
            run_cell, cells, chunksize=max(1, len(cells) // (jobs * 4))
        )
    else:
        if initializer is not None:
            initializer(*initargs)
        records = map(run_cell, cells)
    results: list = []
    try:
        for done, record in enumerate(records, start=1):
            results.append(record)
            if progress is not None:
                progress(done, len(cells), record)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return results


def guarded(base: dict, body: Callable[[], dict]) -> dict:
    """Run one cell: ``body()``'s record merged with ``base`` and marked
    ``ok``, or ``base`` marked as an ``error`` cell if ``body`` raises."""
    try:
        record = body()
    except Exception as exc:
        return {
            **base,
            "status": "error",
            "category": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    record.update(base)
    record["status"] = "ok"
    return record


def summarize(cells: list, axis: str) -> dict:
    """``per_<axis>`` category histograms plus the cell and error counts."""
    histograms: dict = {}
    for cell in cells:
        histogram = histograms.setdefault(cell[axis], {})
        category = cell.get("category", "error")
        histogram[category] = histogram.get(category, 0) + 1
    return {
        f"per_{axis}": histograms,
        "cells": len(cells),
        "errors": sum(1 for c in cells if c.get("status") != "ok"),
    }


def render_table(
    title: str,
    axis: str,
    rows: Sequence[str],
    summary: dict,
    columns: Sequence[tuple],
    footer: str,
) -> str:
    """One line per row of ``rows``; ``columns`` are ``(header,
    category, width)`` and count that category in the row's histogram."""
    histograms = summary[f"per_{axis}"]
    width = max((len(row) for row in rows), default=10)
    header = f"{axis:<{width}}" + "".join(
        f"  {name:>{w}}" for name, _, w in columns
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        histogram = histograms.get(row, {})
        lines.append(
            f"{row:<{width}}"
            + "".join(f"  {histogram.get(c, 0):>{w}}" for _, c, w in columns)
        )
    if summary["errors"]:
        lines.append(f"errors: {summary['errors']}")
    lines.append(footer)
    return "\n".join(lines)


def finish(doc: dict, table: str, json_path, gate: int, failure: str) -> int:
    """The CLI tail: print the table, write the document to ``json_path``
    (when given), and return the exit code — 1 when ``gate`` is non-zero
    (``failure`` says why) or any cell errored, else 0."""
    print(table)
    if json_path is not None:
        write_document(json_path, doc)
        print(f"document written to {json_path}", file=sys.stderr)
    errors = doc["summary"]["errors"]
    if gate:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if errors:
        print(f"FAIL: {errors} campaign cell(s) errored", file=sys.stderr)
        return 1
    return 0
