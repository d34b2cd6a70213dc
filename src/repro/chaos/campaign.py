"""The process-chaos campaign: seeded crash injection and classification.

Each cell of a campaign draws a deterministic seed from the campaign
kernel's splitmix64 stream (:func:`repro.core.campaign.iteration_seed`),
stages a scenario in a throwaway work directory, injects one
process-level failure, drives the corresponding recovery machinery, and
classifies the outcome:

====================  ========================================================
category              meaning
====================  ========================================================
``recovered``         full state restored; nothing acknowledged was lost and
                      no work had to be redone (snapshot resume, journal
                      heal, torn-tail drop of a never-acknowledged record)
``degraded``          the system converged to a correct state but redundant
                      work was required (a cache shard evicted and
                      recomputed, a journaled job re-executed, a failed
                      write retried)
``lost-work``         acknowledged work disappeared — a job the client was
                      told about no longer resolves
``corruption``        wrong bytes were served as if valid — the one category
                      the campaign gate forbids outright
====================  ========================================================

The scenarios:

* ``worker-kill`` — a worker process simulates to a seeded instruction
  boundary, saves a :class:`repro.arch.checkpoint.Snapshot`, and is
  SIGKILLed; the parent resumes from the snapshot and demands
  bit-identity with an uninterrupted run.
* ``shard-truncate`` / ``shard-bitflip`` — a
  :class:`repro.bench.cache.DiskCache` entry is torn at / flipped at a
  seeded byte; the cache must evict (checksum + schema validation) and
  recompute, never serve the damage.
* ``journal-tail-truncate`` / ``journal-bitflip`` — a serve job journal
  is damaged; the scan-and-recover fold must keep every acknowledged
  job resolvable (from the report cache or by re-enqueue).
* ``enospc`` — ``os.fsync`` raises ``ENOSPC`` mid-write (cache entry or
  snapshot save); the atomic write discipline must leave no partial
  artifact under the final name, and the retry must succeed.
* ``serve-restart`` — a live :class:`repro.serve.server.ReproServer` is
  stopped mid-burst with async jobs in flight and restarted on the same
  cache + journal; every job id must resolve with the byte-identical
  body a direct request produces.  A direct request that itself fails
  (say a 503 under load) leaves nothing to compare: the cell is
  ``degraded`` and records the first such status as ``direct_status``.

Determinism contract: the emitted document carries no wall-clock, pid,
port, or path — the same campaign seed yields byte-identical JSON on
every rerun (``tests/test_chaos.py`` pins this).  Racy quantities (how
many jobs happened to finish before a restart) are deliberately not
serialized; only the timing-independent classification is.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import random
import shutil
import signal
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core import campaign
from repro.core.documents import canonical_json as to_canonical_json

# -- classification outcomes --------------------------------------------------

RECOVERED = "recovered"
DEGRADED = "degraded"
LOST_WORK = "lost-work"
CORRUPTION = "corruption"

CATEGORIES = (RECOVERED, DEGRADED, LOST_WORK, CORRUPTION)

_SEVERITY = {c: i for i, c in enumerate(CATEGORIES)}

SCENARIOS = (
    "worker-kill",
    "shard-truncate",
    "shard-bitflip",
    "journal-tail-truncate",
    "journal-bitflip",
    "enospc",
    "serve-restart",
)

#: fuzz-generator seeds are folded into this range — the band the fuzz
#: suite exercises continuously
_PROGRAM_SEED_SPAN = 100_000


def _worse(a: str, b: str) -> str:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _cell_key(cell_seed: int, salt: str = "") -> str:
    return hashlib.sha256(f"chaos:{cell_seed}:{salt}".encode()).hexdigest()


# -- simulation helpers -------------------------------------------------------


def sims_identical(a, b) -> bool:
    """Bit-identity over everything two runs of one program can differ
    in: every SimResult field, the energy counters, the memory image."""
    for f in dataclasses.fields(type(a)):
        if f.name in ("counters", "memory", "obs", "ooo"):
            continue
        if getattr(a, f.name) != getattr(b, f.name):
            return False
    for f in dataclasses.fields(type(a.counters)):
        if getattr(a.counters, f.name) != getattr(b.counters, f.name):
            return False
    if a.memory is not None and b.memory is not None:
        if bytes(a.memory.data) != bytes(b.memory.data):
            return False
    return True


def _fuzz_binary(program_seed: int):
    from repro.core.pipeline import CompilerConfig, compile_binary
    from repro.fuzz.generator import generate_program

    program = generate_program(program_seed)
    binary = compile_binary(
        program.source,
        CompilerConfig.bitspec("max"),
        profile_inputs=program.inputs_profile,
    )
    return program, binary


def _machine(program, binary):
    from repro.arch.machine import Machine
    from repro.core.pipeline import set_global_inputs

    if program.inputs_run:
        set_global_inputs(binary.module, program.inputs_run)
    return Machine(binary.linked, binary.module, engine="fast")


# -- worker-kill --------------------------------------------------------------


def _victim(program_seed: int, cut: int, snapshot_path: str, ready_path: str):
    """The sacrificial worker: checkpoint, save, signal readiness, hold.

    Runs in a child process; the parent SIGKILLs it once ``ready_path``
    appears, so the kill point is deterministic in *machine state* (the
    snapshot is always durable when death arrives) even though it is
    not deterministic in wall-clock.
    """
    program, binary = _fuzz_binary(program_seed)
    snapshot = _machine(program, binary).run(checkpoint_at=cut)
    snapshot.save(snapshot_path)
    Path(ready_path).write_text("ready")
    while True:  # pragma: no cover — only ever exited by SIGKILL
        time.sleep(3600)


def _scenario_worker_kill(cell_seed: int, workdir: Path) -> dict:
    import multiprocessing

    from repro.arch.checkpoint import Snapshot

    rng = random.Random(cell_seed)
    program_seed = cell_seed % _PROGRAM_SEED_SPAN
    program, binary = _fuzz_binary(program_seed)
    golden = _machine(program, binary).run()
    cut = 1 + rng.randrange(max(golden.instructions - 1, 1))

    snapshot_path = workdir / "victim.snapshot"
    ready_path = workdir / "victim.ready"
    process = multiprocessing.Process(
        target=_victim,
        args=(program_seed, cut, str(snapshot_path), str(ready_path)),
    )
    process.start()
    deadline = time.monotonic() + 120.0
    while (
        not ready_path.exists()
        and process.is_alive()
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    if not ready_path.exists():
        process.kill()
        process.join()
        raise RuntimeError("victim never reached its checkpoint")
    os.kill(process.pid, signal.SIGKILL)
    process.join()

    snapshot = Snapshot.load(str(snapshot_path))
    resumed = _machine(program, binary).run(resume_from=snapshot)
    category = RECOVERED if sims_identical(resumed, golden) else CORRUPTION
    return {
        "category": category,
        "program_seed": program_seed,
        "cut": cut,
        "golden_instructions": golden.instructions,
        "killed": True,
        "resumed_from_snapshot": True,
    }


# -- cache-shard damage -------------------------------------------------------


def _scenario_shard_damage(cell_seed: int, workdir: Path, *, mode: str) -> dict:
    from repro.bench.cache import DiskCache

    rng = random.Random(cell_seed)
    cache = DiskCache(workdir / "cache")
    key = _cell_key(cell_seed)
    payload = {
        "value": rng.randrange(1 << 32),
        "items": [rng.randrange(100) for _ in range(8)],
    }
    cache.put(key, payload)
    path = cache._path(key)
    raw = bytearray(path.read_bytes())
    if mode == "truncate":
        cutoff = 1 + rng.randrange(len(raw) - 1)
        path.write_bytes(bytes(raw[:cutoff]))
        damage = {"damage": "truncate", "offset": cutoff}
    else:
        position = rng.randrange(len(raw))
        raw[position] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(raw))
        damage = {"damage": "bitflip", "offset": position}

    first = cache.get(key)
    if first is not None and first != payload:
        category = CORRUPTION  # damage served as a valid entry
    elif first == payload:
        category = RECOVERED  # the damage did not reach the payload
    else:
        # evicted: redo the work, then the entry must round-trip again
        cache.put(key, payload)
        category = DEGRADED if cache.get(key) == payload else LOST_WORK
    record = {"category": category, "evicted": first is None}
    record.update(damage)
    return record


# -- journal damage -----------------------------------------------------------

#: per-job lifecycle the staged journal encodes, in append order:
#: (reached-start, reached-complete, cacheable)
_JOURNAL_JOBS = (
    (False, False, True),   # acknowledged, never started
    (True, False, True),    # in flight at the crash
    (True, True, True),     # done, body in the report cache
    (True, True, False),    # done, uncacheable: envelope inline
)


def _stage_journal(cell_seed: int, workdir: Path):
    from repro.bench.cache import DiskCache
    from repro.serve.journal import JobJournal

    cache = DiskCache(workdir / "servecache")
    journal_path = workdir / "jobs.journal"
    journal = JobJournal(journal_path)
    keys = []
    for i, (started, completed, cacheable) in enumerate(_JOURNAL_JOBS):
        key = _cell_key(cell_seed, f"job{i}")
        keys.append(key)
        envelope = {
            "status": 200 if cacheable else 504,
            "kind": "report" if cacheable else "error",
            "body": {"key": key, "job": i},
            "cacheable": cacheable,
        }
        journal.submit(key, f"tenant-{i}", {"job": i})
        if started:
            journal.start(key)
        if completed:
            if cacheable:
                cache.put(key, envelope)
            journal.complete(
                key, cacheable=cacheable, envelope=envelope
            )
    journal.close()
    return journal_path, cache, keys


def _job_resolution(key: str, job: Optional[dict], cache) -> str:
    """How the server's recovery scan would leave this job."""
    if job is None:
        return "lost"
    if job["state"] == "done":
        if job["envelope"] is not None or cache.contains(key):
            return "resolves"
        return "lost"
    if cache.contains(key):
        return "resolves"  # the heal path: answer survived in the cache
    if job["request"] is not None:
        return "requeued"
    return "lost"


def _classify_journal(pristine, damaged, cache, *, tail: bool) -> str:
    """Worst-over-jobs classification of a damaged journal.

    ``tail`` marks tail truncation: a torn final record was never fully
    appended, so the action it recorded was never acknowledged to any
    client — losing it is a clean recovery, not lost work.
    """
    worst = RECOVERED
    for key, before_job in pristine.jobs.items():
        before = _job_resolution(key, before_job, cache)
        after = _job_resolution(key, damaged.jobs.get(key), cache)
        if after == "resolves":
            category = RECOVERED
        elif after == "requeued":
            category = RECOVERED if before == "requeued" else DEGRADED
        else:
            category = RECOVERED if tail else LOST_WORK
        worst = _worse(worst, category)
    return worst


def _scenario_journal_damage(
    cell_seed: int, workdir: Path, *, mode: str
) -> dict:
    from repro.serve.journal import scan

    rng = random.Random(cell_seed)
    journal_path, cache, _keys = _stage_journal(cell_seed, workdir)
    pristine = scan(journal_path)
    raw = bytearray(journal_path.read_bytes())
    if mode == "tail":
        last_line_start = bytes(raw[:-1]).rfind(b"\n") + 1
        tail_span = len(raw) - last_line_start
        chopped = 1 + rng.randrange(tail_span)
        journal_path.write_bytes(bytes(raw[: len(raw) - chopped]))
        damage = {"damage": "tail-truncate", "chopped": chopped}
    else:
        position = rng.randrange(len(raw) - 1)  # never the final newline
        if raw[position] == 0x0A:
            position += 1  # keep the line structure: flip content bytes
        raw[position] ^= 1 << rng.randrange(8)
        journal_path.write_bytes(bytes(raw))
        damage = {"damage": "bitflip", "offset": position}

    damaged = scan(journal_path)
    category = _classify_journal(
        pristine, damaged, cache, tail=(mode == "tail")
    )
    record = {
        "category": category,
        "records_before": pristine.records,
        "records_after": damaged.records,
        "dropped": damaged.dropped,
        "torn_tail": damaged.torn_tail,
    }
    record.update(damage)
    return record


# -- disk-full ----------------------------------------------------------------


def _fsync_enospc(_fd):
    raise OSError(errno.ENOSPC, "No space left on device")


def _scenario_enospc(cell_seed: int, workdir: Path) -> dict:
    from repro.bench.cache import DiskCache

    rng = random.Random(cell_seed)
    target = ("cache", "snapshot")[rng.randrange(2)]
    real_fsync = os.fsync

    if target == "cache":
        cache = DiskCache(workdir / "cache")
        key = _cell_key(cell_seed)
        payload = {"value": rng.randrange(1 << 32)}
        os.fsync = _fsync_enospc
        try:
            failed = False
            try:
                cache.put(key, payload)
            except OSError:
                failed = True
        finally:
            os.fsync = real_fsync
        first = cache.get(key)
        if first is not None and first != payload:
            category = CORRUPTION  # a torn write got published
        else:
            cache.put(key, payload)  # the retry, disk space back
            category = (
                DEGRADED if cache.get(key) == payload else LOST_WORK
            )
        return {
            "category": category,
            "target": target,
            "write_failed": failed,
            "published_while_full": first is not None,
        }

    # snapshot target: an interrupted Snapshot.save must leave nothing
    from repro.arch.checkpoint import Snapshot, SnapshotError

    program_seed = cell_seed % _PROGRAM_SEED_SPAN
    program, binary = _fuzz_binary(program_seed)
    golden = _machine(program, binary).run()
    cut = 1 + rng.randrange(max(golden.instructions - 1, 1))
    snapshot = _machine(program, binary).run(checkpoint_at=cut)
    path = workdir / "run.snapshot"
    os.fsync = _fsync_enospc
    try:
        failed = False
        try:
            snapshot.save(str(path))
        except OSError:
            failed = True
    finally:
        os.fsync = real_fsync
    published = path.exists()
    if published:
        try:
            Snapshot.load(str(path))
            category = CORRUPTION  # a partial save parsed as a snapshot
        except SnapshotError:
            category = DEGRADED
    else:
        snapshot.save(str(path))  # the retry
        resumed = _machine(program, binary).run(
            resume_from=Snapshot.load(str(path))
        )
        category = (
            DEGRADED if sims_identical(resumed, golden) else CORRUPTION
        )
    return {
        "category": category,
        "target": target,
        "program_seed": program_seed,
        "cut": cut,
        "write_failed": failed,
        "published_while_full": published,
    }


# -- serve restart ------------------------------------------------------------


def _scenario_serve_restart(cell_seed: int, workdir: Path) -> dict:
    import asyncio

    from repro.fuzz.generator import generate_program
    from repro.serve.client import http_request, submit_report
    from repro.serve.server import ReproServer, ServeConfig

    base_seed = cell_seed % _PROGRAM_SEED_SPAN
    docs = []
    for i in range(3):
        program = generate_program(base_seed + i)
        docs.append(
            {
                "tenant": "chaos",
                "source": program.source,
                "config": {"preset": "bitspec-max"},
                "inputs": {
                    "profile": program.inputs_profile,
                    "run": program.inputs_run,
                },
                "report": {"attribution": True, "pareto": False},
            }
        )
    config = ServeConfig(
        port=0,
        workers=0,
        cache_dir=str(workdir / "servecache"),
        journal_path=str(workdir / "jobs.journal"),
        quota_capacity=0.0,
        max_queue=16,
    )

    async def drive():
        server = ReproServer(config)
        await server.start()
        job_ids = []
        for doc in docs:
            response = await http_request(
                "127.0.0.1", server.port, "POST", "/v1/jobs", doc
            )
            if response.status == 202:
                job_ids.append(response.json()["job_id"])
        await server.stop()  # mid-burst: jobs at best still executing

        server = ReproServer(config)
        await server.start()
        try:
            lost, bodies = 0, {}
            deadline = time.monotonic() + 120.0
            for job_id in job_ids:
                body = None
                while time.monotonic() < deadline:
                    response = await http_request(
                        "127.0.0.1",
                        server.port,
                        "GET",
                        f"/v1/jobs/{job_id}/report",
                    )
                    if response.status == 200:
                        body = response.body
                        break
                    if response.status == 404:
                        break
                    await asyncio.sleep(0.02)
                if body is None:
                    lost += 1
                else:
                    bodies[job_id] = body
            # only two 200 bodies can disagree: a direct answer that is
            # an error (a 503 or a timeout under load) proves nothing
            # about the recovered body
            mismatches, direct_status = 0, None
            for doc, job_id in zip(docs, job_ids):
                if job_id not in bodies:
                    continue
                direct = await submit_report(
                    "127.0.0.1", server.port, doc
                )
                if direct.status != 200:
                    if direct_status is None:
                        direct_status = direct.status
                elif direct.body != bodies[job_id]:
                    mismatches += 1
            return len(job_ids), lost, mismatches, direct_status
        finally:
            await server.stop()

    submitted, lost, mismatches, direct_status = asyncio.run(drive())
    if mismatches or submitted < len(docs):
        category = CORRUPTION if mismatches else LOST_WORK
    elif lost:
        category = LOST_WORK
    elif direct_status is not None:
        category = DEGRADED
    else:
        category = RECOVERED
    cell = {
        "category": category,
        "jobs": len(docs),
        "lost": lost,
        "byte_mismatches": mismatches,
    }
    if direct_status is not None:
        cell["direct_status"] = direct_status
    return cell


# -- the campaign -------------------------------------------------------------

_RUNNERS = {
    "worker-kill": _scenario_worker_kill,
    "shard-truncate": lambda seed, wd: _scenario_shard_damage(
        seed, wd, mode="truncate"
    ),
    "shard-bitflip": lambda seed, wd: _scenario_shard_damage(
        seed, wd, mode="bitflip"
    ),
    "journal-tail-truncate": lambda seed, wd: _scenario_journal_damage(
        seed, wd, mode="tail"
    ),
    "journal-bitflip": lambda seed, wd: _scenario_journal_damage(
        seed, wd, mode="bitflip"
    ),
    "enospc": _scenario_enospc,
    "serve-restart": _scenario_serve_restart,
}


def run_cell(scenario: str, cell_seed: int, workdir=None) -> dict:
    """Stage, injure, recover, classify one cell."""
    owned = workdir is None
    if owned:
        workdir = tempfile.mkdtemp(prefix="chaos-")
    try:
        return campaign.guarded(
            {"scenario": scenario, "cell_seed": cell_seed},
            lambda: _RUNNERS[scenario](cell_seed, Path(workdir)),
        )
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)


def summarize(cells: list) -> dict:
    summary = campaign.summarize(cells, "scenario")
    summary["corruptions"] = sum(1 for c in cells if c.get("category") == CORRUPTION)
    summary["lost_work"] = sum(1 for c in cells if c.get("category") == LOST_WORK)
    return summary


def run_campaign(
    *,
    scenarios: Sequence[str] = SCENARIOS,
    seed: int = 0,
    per_scenario: int = 2,
    progress=None,
) -> dict:
    """Run the grid; returns the campaign document (canonical-JSON-able)."""
    cells = campaign.run_cells(
        campaign.enumerate_cells((scenarios,), seed, per_scenario),
        lambda cell: run_cell(*cell),
        progress=progress,
    )
    return {
        "seed": seed,
        "per_scenario": per_scenario,
        "scenarios": list(scenarios),
        "cells": cells,
        "summary": summarize(cells),
    }


# -- rendering ----------------------------------------------------------------

_COLUMNS = (
    ("recovered", RECOVERED, 9),
    ("degraded", DEGRADED, 8),
    ("lost", LOST_WORK, 5),
    ("corrupt", CORRUPTION, 7),
)


def render_campaign(doc: dict) -> str:
    """Human-readable classification table for the CLI."""
    summary = doc["summary"]
    title = (
        f"process-chaos campaign — seed {doc['seed']}, {summary['cells']} cells"
    )
    footer = f"corruptions: {summary['corruptions']}"
    return campaign.render_table(
        title, "scenario", doc["scenarios"], summary, _COLUMNS, footer
    )
