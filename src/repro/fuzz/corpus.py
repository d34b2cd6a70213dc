"""Replayable fuzz artifacts.

A corpus entry is one JSON file fully describing a fuzz case: the MiniC
source, both input vectors, and the generator metadata needed to regenerate
or attribute it.  ``tests/corpus/`` holds the checked-in seed corpus that
tier-1 replays through the full oracle stack; the CLI driver writes newly
shrunk failures next to them as ``failure-*.json``, and symbolic
counterexamples (from ``repro.verify`` or the fuzz driver's ``--verify``
mode) land beside them as ``verify-*.json`` — one corpus economy, every
entry replayable by the same oracles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.documents import write_document
from repro.fuzz.generator import FuzzProgram

_FORMAT_VERSION = 1


def program_to_dict(program: FuzzProgram, name: str = "") -> dict:
    return {
        "format": _FORMAT_VERSION,
        "name": name,
        "seed": program.seed,
        "note": program.note,
        "expander_enabled": program.expander_enabled,
        "inputs_profile": program.inputs_profile,
        "inputs_run": program.inputs_run,
        "source": program.source,
    }


def program_from_dict(data: dict) -> FuzzProgram:
    return FuzzProgram(
        source=data["source"],
        inputs_profile=data.get("inputs_profile") or {},
        inputs_run=data.get("inputs_run") or {},
        seed=data.get("seed", -1),
        expander_enabled=data.get("expander_enabled", True),
        note=data.get("note", ""),
    )


def save_program(
    program: FuzzProgram, path: Union[str, Path], name: Optional[str] = None
) -> Path:
    path = Path(path)
    write_document(path, program_to_dict(program, name=name or path.stem))
    return path


def save_counterexample(verdict: dict, out_dir: Union[str, Path]) -> Path:
    """Concretize a ``repro.verify`` counterexample verdict into the corpus.

    The verdict's embedded program (source + the concrete inputs the
    symbolic checker found) becomes a replayable ``verify-*.json`` entry,
    indistinguishable from a shrunk fuzz failure to everything downstream.
    """
    program = program_from_dict(dict(verdict["program"], format=1, name=""))
    stem = verdict["name"].replace(":", "-").replace("/", "-")
    path = Path(out_dir) / f"verify-{stem}-k{verdict['k']}.json"
    return save_program(program, path, name=path.stem)


def load_program(path: Union[str, Path]) -> FuzzProgram:
    return program_from_dict(json.loads(Path(path).read_text()))


def iter_corpus(directory: Union[str, Path]) -> Iterator[tuple]:
    """Yield (path, FuzzProgram) for every entry, sorted by file name.

    A damaged entry — truncated JSON, a non-object document, or a record
    missing its ``source`` — is *skipped with a warning* rather than
    aborting the walk: one torn file written by a killed fuzz driver must
    not take the rest of the corpus down with it.
    """
    import warnings

    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict) or not isinstance(
                data.get("source"), str
            ):
                raise ValueError("not a corpus entry (missing 'source')")
            program = program_from_dict(data)
        except (ValueError, OSError, UnicodeDecodeError) as exc:
            warnings.warn(
                f"skipping corpus entry {path.name}: {exc}",
                stacklevel=2,
            )
            continue
        yield path, program
