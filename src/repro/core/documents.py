"""Canonical JSON documents and the one crash-safe publish path.

Every JSON document the repo emits — bench, DSE, verify, faults and
chaos reports, fuzz-corpus entries, serve response bodies — uses one
encoding, :func:`canonical_json`: sorted keys, two-space indent, a
trailing newline, ASCII only.  Every byte is a pure function of the
document, which is what the byte-identity gates compare.

Every file the repo publishes under a final name goes through
:func:`atomic_write`: a temp file in the target's directory, written,
flushed and fsync'd, then renamed over the target.  A crash, a full disk
or a Ctrl-C at any point leaves either the old file or the new one under
the final name, never a torn one, and the temp file is removed on the
way out.  Temp files are named ``.tmp-*<suffix>`` so
:class:`repro.bench.cache.DiskCache` can sweep the orphans a SIGKILL
leaves behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

# read once, single-threaded, at import: published files get the mode a
# plain open() would give them, not mkstemp's 0600
_UMASK = os.umask(0)
os.umask(_UMASK)


def canonical_json(doc) -> str:
    """The byte-stable text of a JSON document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def atomic_write(path, data: bytes) -> None:
    """Publish ``data`` under ``path`` all at once or not at all.

    ``os.fsync`` is looked up at call time, so a test or the chaos
    ``enospc`` scenario can patch it to inject a failing disk.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_UMASK)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_document(path, doc) -> None:
    """Atomically write ``doc`` as canonical JSON."""
    atomic_write(path, canonical_json(doc).encode())
