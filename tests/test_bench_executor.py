"""Executor tests: fan-out, retry-once-then-degrade, timeouts, stats.

Parallelism here is exercised for *correctness* (ordering, retry plumbing,
cross-process cache sharing), not speed — CI machines may have any core
count.  The speedup claims live in the BENCH_*.json artifacts produced by
the bench-smoke CI job.
"""

import gc
import types

import pytest

from repro.bench.executor import BenchTask, run_matrix
from repro.core.pipeline import CompilerConfig
from repro.eval import harness


@pytest.fixture(autouse=True)
def _isolate_caches():
    harness.clear_caches()
    yield
    harness.set_disk_cache(None)
    harness.clear_caches()


def _task(workload="crc32", config=None, **kw):
    return BenchTask(
        workload=workload, config=config or CompilerConfig.baseline(), **kw
    )


def test_sequential_matrix_ok(tmp_path):
    tasks = [_task("crc32"), _task("bitcount")]
    outcomes, stats = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    assert [o.workload for o in outcomes] == ["crc32", "bitcount"]
    assert stats.ok == 2 and stats.failed == 0 and stats.retried == 0
    assert all(o.status == "ok" and o.instructions > 0 for o in outcomes)
    assert stats.instructions == sum(o.instructions for o in outcomes)


def test_unknown_workload_degrades_with_one_retry(tmp_path):
    tasks = [_task("crc32"), _task("no-such-workload")]
    outcomes, stats = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    good, bad = outcomes
    assert good.status == "ok"
    assert bad.status == "failed"
    assert bad.attempts == 2, "failed task must be retried exactly once"
    assert "retry:" in bad.error
    assert stats.failed == 1 and stats.retried == 1
    assert stats.ok == 1, "one bad cell must not sink the campaign"


def test_timeout_degrades_instead_of_hanging():
    # 1 ms: fires mid-compile long before the simulation could finish.
    outcomes, stats = run_matrix(
        [_task("sha", CompilerConfig.bitspec("avg"))],
        jobs=1,
        cache_dir=None,
        timeout=0.001,
    )
    (outcome,) = outcomes
    assert outcome.status == "failed"
    assert "timeout" in outcome.error
    assert outcome.attempts == 2
    assert stats.failed == 1


def test_warm_rerun_is_all_cache_hits(tmp_path):
    tasks = [_task("crc32"), _task("crc32", CompilerConfig.bitspec("max"))]
    _, cold = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    assert cold.cache_hits == 0

    harness.clear_caches()  # simulate a fresh process; disk survives
    outcomes, warm = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    assert warm.cache_hits == len(tasks)
    assert warm.hit_rate == 1.0
    assert all(o.cached and o.status == "ok" for o in outcomes)
    # cached outcomes still carry the full metrics row
    assert all(o.instructions > 0 and o.energy_pj > 0 for o in outcomes)


def _reachable_memories(roots) -> list:
    """Every FlatMemory reachable from ``roots`` through data (code,
    types and modules are not followed)."""
    from repro.interp.memory import FlatMemory

    opaque = (type, types.ModuleType, types.FunctionType, types.CodeType,
              types.BuiltinFunctionType, types.MethodType)
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, FlatMemory):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_memo_keeps_no_memory_image(tmp_path):
    """A memo hit looks like a disk hit: no record keeps its machine's
    4 MiB memory image alive."""
    tasks = [_task("crc32"), _task("crc32", CompilerConfig.bitspec("max"))]
    run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    assert not _reachable_memories(
        [harness._SIM_CACHE, harness._ARCH_RUNS, harness._RUN_CACHE]
    )
    memo = [harness.run(t.workload, t.config) for t in tasks]

    harness.clear_caches()  # a fresh process: every record comes from disk
    run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    disk = [harness.run(t.workload, t.config) for t in tasks]
    assert [r.sim.memory is None for r in memo] == [True, True]
    assert [r.sim.memory is None for r in disk] == [True, True]


def test_garbled_entry_is_not_a_cache_hit(tmp_path):
    """``cached`` is what the lookup saw: a corrupt entry is evicted and
    recomputed, so only the intact cell reports a hit."""
    from repro.bench.cache import RunDiskCache
    from repro.workloads import get_workload

    tasks = [_task("crc32"), _task("bitcount")]
    run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    cache = RunDiskCache(tmp_path / "c")
    path = cache._path(
        cache._run_key(
            get_workload("crc32").source, tasks[0].config, "test", 0, "test", 0
        )
    )
    assert path.is_file()
    path.write_bytes(b"garbage")

    harness.clear_caches()
    outcomes, warm = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "c")
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert [o.cached for o in outcomes] == [False, True]
    assert warm.cache_hits == 1


def test_parallel_matrix_matches_sequential(tmp_path):
    """Same outcomes (modulo wall-clock) whether fanned out or not."""
    tasks = [
        _task(w, c)
        for w in ("crc32", "bitcount")
        for c in (CompilerConfig.baseline(), CompilerConfig.bitspec("max"))
    ]
    seq, _ = run_matrix(tasks, jobs=1, cache_dir=tmp_path / "seq")
    par, stats = run_matrix(tasks, jobs=2, cache_dir=tmp_path / "par")
    assert stats.failed == 0
    assert [o.workload for o in par] == [o.workload for o in seq]
    for a, b in zip(par, seq):
        assert (a.workload, a.config_name, a.status) == (
            b.workload,
            b.config_name,
            b.status,
        )
        assert (a.instructions, a.cycles, a.misspeculations) == (
            b.instructions,
            b.cycles,
            b.misspeculations,
        )
        assert a.energy_pj == pytest.approx(b.energy_pj)


def test_parallel_retry_plumbing(tmp_path):
    tasks = [_task("no-such-workload"), _task("crc32")]
    outcomes, stats = run_matrix(tasks, jobs=2, cache_dir=tmp_path / "c")
    assert outcomes[0].status == "failed" and outcomes[0].attempts == 2
    assert outcomes[1].status == "ok"
    assert stats.retried == 1


def test_progress_callback_sees_every_task(tmp_path):
    seen = []
    run_matrix(
        [_task("crc32"), _task("bitcount")],
        jobs=1,
        cache_dir=tmp_path / "c",
        progress=lambda done, total, o: seen.append((done, total, o.workload)),
    )
    assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]


def test_task_label():
    assert _task("crc32").label() == "crc32/baseline"
    assert (
        _task("crc32", run_seed=3).label() == "crc32/baseline[p=test:0,r=test:3]"
    )


# ---------------------------------------------------------------------------
# retry backoff: exponential, capped, deterministically jittered
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_and_bounded():
    from repro.bench.executor import BACKOFF_BASE, BACKOFF_CAP, _backoff_delay

    for round_index in range(8):
        base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** round_index)
        delay = _backoff_delay(round_index, "crc32/baseline")
        assert delay == _backoff_delay(round_index, "crc32/baseline")
        assert base / 2 <= delay <= base
    # jitter de-synchronizes different tasks at the same round
    assert _backoff_delay(0, "a") != _backoff_delay(0, "b")
    # ... and the cap holds forever
    assert _backoff_delay(50, "x") <= BACKOFF_CAP


def test_retry_sleeps_with_backoff(monkeypatch, tmp_path):
    from repro.bench import executor

    naps = []
    monkeypatch.setattr(executor.time, "sleep", naps.append)
    outcomes, stats = run_matrix(
        [_task("no-such-workload")], jobs=1, cache_dir=tmp_path / "c"
    )
    assert outcomes[0].attempts == 2
    assert naps == [executor._backoff_delay(0, _task("no-such-workload").label())]


# ---------------------------------------------------------------------------
# SIGALRM re-entrancy: _task_alarm must compose with outer deadlines
# ---------------------------------------------------------------------------


import signal
import time

from repro.bench.executor import _TaskTimeout, _task_alarm


class _OuterDeadline(Exception):
    pass


def _raise_outer(signum, frame):
    raise _OuterDeadline()


@pytest.fixture
def _clean_alarm():
    prior = signal.getsignal(signal.SIGALRM)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, prior)


def test_task_alarm_fires_and_restores(_clean_alarm):
    outer = signal.signal(signal.SIGALRM, _raise_outer)
    with pytest.raises(_TaskTimeout):
        with _task_alarm(0.02):
            time.sleep(0.5)
    # prior handler restored, no timer left ticking
    assert signal.getsignal(signal.SIGALRM) is _raise_outer
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
    signal.signal(signal.SIGALRM, outer)


def test_task_alarm_restores_outer_timer_remaining(_clean_alarm):
    """A bench task nested under an outer ITIMER_REAL deadline must not
    disarm it: on scope exit the outer timer is re-armed with (roughly)
    its remaining time."""
    signal.signal(signal.SIGALRM, _raise_outer)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    with _task_alarm(0.01):
        try:
            time.sleep(0.05)
        except _TaskTimeout:
            pass
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0.0 < remaining <= 30.0
    assert signal.getsignal(signal.SIGALRM) is _raise_outer


def test_task_alarm_expired_outer_deadline_still_fires(_clean_alarm):
    """An outer deadline that lapses while the inner alarm owns ITIMER_REAL
    is not lost — it is re-armed (epsilon) on exit and fires promptly."""
    signal.signal(signal.SIGALRM, _raise_outer)
    signal.setitimer(signal.ITIMER_REAL, 0.03)
    with pytest.raises(_OuterDeadline):
        with _task_alarm(30.0):
            time.sleep(0.08)  # outer would have fired here; inner owns timer
        time.sleep(0.5)  # re-armed with epsilon: fires immediately


def test_task_alarm_nests_within_itself(_clean_alarm):
    """Two stacked _task_alarm scopes: the inner timeout fires without
    killing the outer scope's deadline."""
    with pytest.raises(_TaskTimeout):
        with _task_alarm(0.5):
            with pytest.raises(_TaskTimeout):
                with _task_alarm(0.02):
                    time.sleep(0.2)
            time.sleep(2.0)  # outer deadline (0.5s minus elapsed) fires here


def test_task_alarm_none_is_a_no_op(_clean_alarm):
    sentinel = signal.signal(signal.SIGALRM, _raise_outer)
    with _task_alarm(None):
        pass
    assert signal.getsignal(signal.SIGALRM) is _raise_outer
    signal.signal(signal.SIGALRM, sentinel)
