"""The one document encoding and the one crash-safe publish path.

:mod:`repro.core.documents` is where every JSON artifact gets its bytes
and every published file gets its atomicity.  The load-bearing property
pinned here: a write interrupted at any point — here by a Ctrl-C while
the data is being fsync'd — leaves neither a temp file nor a partial
file under the final name, for the disk cache and for snapshots alike.
"""

import os

import pytest

from repro.arch.checkpoint import Snapshot
from repro.bench.cache import DiskCache
from repro.core.documents import atomic_write, canonical_json, write_document

from test_checkpoint import _corpus_binary, _machine


def test_canonical_json_is_sorted_indented_and_newline_terminated():
    assert canonical_json({"b": 1, "a": [1, "é"]}) == (
        '{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'
    )


def test_write_document_publishes_canonical_bytes(tmp_path):
    path = tmp_path / "nested" / "doc.json"
    write_document(path, {"z": 0, "a": {"y": 1}})
    assert path.read_text() == canonical_json({"a": {"y": 1}, "z": 0})
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


def test_atomic_write_keeps_the_old_file_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    atomic_write(path, b"old")

    def full_disk(_fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError):
        atomic_write(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def _interrupt(_fd):
    raise KeyboardInterrupt


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_interrupted_cache_put_leaves_nothing(tmp_path, monkeypatch):
    cache = DiskCache(tmp_path / "cache")
    monkeypatch.setattr(os, "fsync", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        cache.put("ab" * 32, {"value": 1})
    assert _files(tmp_path) == []
    monkeypatch.undo()
    cache.put("ab" * 32, {"value": 1})
    assert cache.get("ab" * 32) == {"value": 1}


def test_interrupted_snapshot_save_leaves_nothing(tmp_path, monkeypatch):
    binary, inputs = _corpus_binary("seed000")
    snapshot = _machine(binary, inputs, "fast").run(checkpoint_at=7)
    path = tmp_path / "run.snapshot"
    monkeypatch.setattr(os, "fsync", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        snapshot.save(str(path))
    assert _files(tmp_path) == []
    monkeypatch.undo()
    snapshot.save(str(path))
    assert Snapshot.load(str(path)).to_dict() == snapshot.to_dict()
