"""Fan-out over the (workload × config × seed) matrix.

Each task is one :func:`repro.eval.harness.run` invocation, run as one
cell of the campaign kernel (:func:`repro.core.campaign.run_cells`),
serially or on its process pool.  Workers share nothing in memory but
everything on disk: every worker installs the same
:class:`RunDiskCache`, so a task computed by one worker is a cache hit for
every later process (the property the whole bench design rests on —
results are pure event counts, so cross-process reuse is sound).

Failure policy: after the pass, the tasks that raised or exceeded their
timeout run again on the kernel (:data:`RETRIES` round), and a task still
failing is *degraded* — reported as ``status="failed"`` in the outcome
list instead of aborting the campaign.  A retry round waits an exponential
backoff with *deterministic* jitter (:func:`_backoff_delay` hashes the
round + task label, so two campaigns over the same matrix pause
identically — no wall-clock entropy in reproducible runs).  Per-task
timeouts are enforced inside the worker with ``SIGALRM`` (POSIX;
elsewhere tasks run untimed rather than unexecuted); the alarm scope
(:func:`_task_alarm`) is re-entrancy safe — it restores both the prior
handler *and* whatever remained of an outer ``ITIMER_REAL``, so a bench
task nested under another alarm-based timeout cannot silently disarm it.
"""

from __future__ import annotations

import hashlib
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.bench.cache import install_disk_cache
from repro.core.campaign import run_cells
from repro.core.pipeline import CompilerConfig

#: first-retry backoff ceiling (seconds); doubles per round up to the cap
BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0

#: retry rounds after the first pass; a task still failing is degraded
RETRIES = 1


@dataclass(frozen=True)
class BenchTask:
    """One cell of the evaluation matrix (picklable)."""

    workload: str
    config: CompilerConfig
    profile_kind: str = "test"
    profile_seed: int = 0
    run_kind: str = "test"
    run_seed: int = 0
    #: simulation engine ("legacy" / "fast" / "ooo"; None = default
    #: resolution).  The in-order engines are bit-identical, so
    #: among them this changes *how* the cell simulates, never what it
    #: reports; "ooo" reports its own cycles and energy.
    engine: Optional[str] = None

    def label(self) -> str:
        tag = f"{self.workload}/{self.config.name}"
        if (self.profile_kind, self.profile_seed, self.run_kind, self.run_seed) != (
            "test", 0, "test", 0
        ):
            tag += (
                f"[p={self.profile_kind}:{self.profile_seed},"
                f"r={self.run_kind}:{self.run_seed}]"
            )
        if self.engine is not None:
            tag += f"@{self.engine}"
        return tag


@dataclass
class TaskOutcome:
    """Picklable per-task result row (also serialized into BENCH_*.json)."""

    workload: str
    config_name: str
    profile_kind: str
    profile_seed: int
    run_kind: str
    run_seed: int
    engine: Optional[str] = None
    status: str = "ok"  # 'ok' | 'failed'
    #: served from a cache (disk or in-process memo) rather than simulated
    cached: bool = False
    sim_seconds: float = 0.0
    attempts: int = 1
    instructions: int = 0
    cycles: int = 0
    misspeculations: int = 0
    energy_pj: float = 0.0
    error: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class MatrixStats:
    """Aggregates over one :func:`run_matrix` campaign."""

    wall_seconds: float = 0.0
    tasks: int = 0
    ok: int = 0
    failed: int = 0
    retried: int = 0
    cache_hits: int = 0
    sim_seconds: float = 0.0
    instructions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.tasks if self.tasks else 0.0

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.wall_seconds if self.wall_seconds else 0.0


class _TaskTimeout(Exception):
    pass


def _alarm_handler(signum, frame):
    raise _TaskTimeout()


def _backoff_delay(round_index: int, key: str) -> float:
    """Backoff before retry round ``round_index`` (0-based), in seconds.

    Exponential in the round number, capped at :data:`BACKOFF_CAP`, with
    deterministic jitter in ``[base/2, base]`` derived by hashing the
    round + ``key`` — identical campaigns back off identically, while
    different tasks still de-synchronize.
    """
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** round_index))
    digest = hashlib.sha256(f"{round_index}:{key}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
    return base * (0.5 + 0.5 * fraction)


@contextmanager
def _task_alarm(seconds: Optional[float]):
    """Arm ``SIGALRM`` to raise :class:`_TaskTimeout` after ``seconds``.

    Re-entrancy safe: on exit the prior handler is restored *and*, if an
    outer ``ITIMER_REAL`` was pending when we armed ours, it is re-armed
    with its remaining time (minus what this scope consumed).  An outer
    deadline that expired while the inner scope ran fires immediately on
    exit instead of being lost.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    prior_remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prior_remaining > 0.0:
            elapsed = time.monotonic() - started
            signal.setitimer(
                signal.ITIMER_REAL, max(prior_remaining - elapsed, 1e-6)
            )


def _execute(task: BenchTask, *, timeout: Optional[float] = None) -> TaskOutcome:
    """Run one task under a ``timeout``-second alarm; never raises.

    ``cached`` is what the lookup saw: the in-process memo already held
    the record, or the installed disk cache counted a hit during the run
    (a corrupt entry is evicted and counted as a miss, not a hit).
    """
    from repro.eval import harness

    outcome = TaskOutcome(
        workload=task.workload,
        config_name=task.config.name,
        profile_kind=task.profile_kind,
        profile_seed=task.profile_seed,
        run_kind=task.run_kind,
        run_seed=task.run_seed,
        engine=task.engine,
    )
    run_args = dict(
        profile_kind=task.profile_kind,
        profile_seed=task.profile_seed,
        run_kind=task.run_kind,
        run_seed=task.run_seed,
        engine=task.engine,
    )
    disk = harness.get_disk_cache()
    hits = disk.stats.hits if disk is not None else 0
    started = time.perf_counter()
    try:
        memoized = harness.is_memoized(task.workload, task.config, **run_args)
        with _task_alarm(timeout):
            record = harness.run(task.workload, task.config, **run_args)
        outcome.sim_seconds = time.perf_counter() - started
        outcome.cached = memoized or (disk is not None and disk.stats.hits > hits)
        outcome.instructions = record.sim.instructions
        outcome.cycles = record.sim.cycles
        outcome.misspeculations = record.sim.misspeculations
        outcome.energy_pj = record.total_energy
    except _TaskTimeout:
        outcome.sim_seconds = time.perf_counter() - started
        outcome.status = "failed"
        outcome.error = f"timeout after {timeout:.0f}s"
    except Exception as exc:  # degrade, never kill the campaign
        outcome.sim_seconds = time.perf_counter() - started
        outcome.status = "failed"
        outcome.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    return outcome


def run_matrix(
    tasks: Sequence[BenchTask],
    *,
    jobs: int = 1,
    cache_dir=None,
    timeout: Optional[float] = 120.0,
    progress=None,
) -> tuple[list[TaskOutcome], MatrixStats]:
    """Execute the matrix; returns per-task outcomes + campaign stats.

    ``progress`` is an optional callable ``(done, total, outcome)`` invoked
    as results arrive (the CLI's live ticker); a retried task reports
    again, with ``done == total``, once its retry lands.
    """
    tasks = list(tasks)
    stats = MatrixStats(tasks=len(tasks))
    started = time.monotonic()
    fan_out = partial(
        run_cells,
        run_cell=partial(_execute, timeout=timeout),
        jobs=jobs,
        initializer=install_disk_cache if cache_dir is not None else None,
        initargs=(cache_dir,),
    )
    outcomes = fan_out(tasks, progress=progress)
    for round_index in range(RETRIES):
        failed = [i for i, o in enumerate(outcomes) if o.status == "failed"]
        if not failed:
            break
        stats.retried += len(failed)
        time.sleep(_backoff_delay(round_index, tasks[failed[0]].label()))
        for index, retry in zip(failed, fan_out([tasks[i] for i in failed])):
            prior = outcomes[index]
            retry.attempts = prior.attempts + 1
            if retry.status == "failed" and prior.error:
                retry.error = f"{prior.error}; retry: {retry.error}"
            outcomes[index] = retry
            if progress is not None:
                progress(len(tasks), len(tasks), retry)

    stats.wall_seconds = time.monotonic() - started
    for outcome in outcomes:
        if outcome.status == "ok":
            stats.ok += 1
            stats.instructions += outcome.instructions
        else:
            stats.failed += 1
        if outcome.cached:
            stats.cache_hits += 1
        stats.sim_seconds += outcome.sim_seconds
    return outcomes, stats
