"""Bounded worker pool: an async facade over a ``multiprocessing.Pool``.

Jobs execute one ``apply_async`` call each in a pool of at most
``workers`` processes — serve's own pool, not the batch campaign kernel
bench runs on.  The one piece shared with bench is the executor's
re-entrancy-safe ``SIGALRM`` scope
(:func:`repro.bench.executor._task_alarm`), under which each job runs, so
a pathological program cannot wedge a worker forever.  A timeout or an
unexpected worker crash degrades to a structured, **uncacheable** error
envelope (504 / 500): transient outcomes must never poison the
content-addressed report cache.

``workers=0`` selects *inline* mode: jobs run on the event loop's
default thread-pool executor in-process.  That keeps tests and
single-user dev servers free of process-spawn latency; per-job alarms
are unavailable off the main thread, so inline jobs run untimed (the
trade-off is documented in docs/serve.md).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import traceback
from typing import Optional

from repro.bench.executor import _TaskTimeout, _task_alarm
from repro.serve.report import error_envelope, execute_request

_WORKER_TIMEOUT: Optional[float] = None


def _init_worker(timeout: Optional[float]) -> None:
    global _WORKER_TIMEOUT
    _WORKER_TIMEOUT = timeout


def _guarded_execute(canonical: dict, key: str, timeout: Optional[float]) -> dict:
    """Run one job; always returns an envelope, never raises."""
    try:
        with _task_alarm(timeout):
            return execute_request(canonical, key)
    except _TaskTimeout:
        return error_envelope(
            "execution-timeout",
            504,
            f"job exceeded the {timeout:.0f}s worker timeout",
            cacheable=False,
        )
    except Exception as exc:
        return error_envelope(
            "internal-error",
            500,
            "".join(traceback.format_exception_only(type(exc), exc)).strip(),
            cacheable=False,
        )


def _pool_execute(canonical: dict, key: str) -> dict:
    return _guarded_execute(canonical, key, _WORKER_TIMEOUT)


def _inline_execute(canonical: dict, key: str) -> dict:
    # thread context: SIGALRM is main-thread-only, so no alarm here
    return _guarded_execute(canonical, key, None)


class WorkerPool:
    """Async ``execute()`` over a bounded process pool (or inline threads)."""

    def __init__(self, workers: int = 1, timeout: Optional[float] = 120.0) -> None:
        self.workers = workers
        self.timeout = timeout
        self._pool = None
        if workers > 0:
            ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(timeout,),
            )

    async def execute(self, canonical: dict, key: str) -> dict:
        """Run one job off the event loop; resolves to its envelope."""
        loop = asyncio.get_running_loop()
        if self._pool is None:
            return await loop.run_in_executor(
                None, _inline_execute, canonical, key
            )
        future: asyncio.Future = loop.create_future()

        def _done(result):
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(result)
            )

        def _fail(exc):
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_exception(exc)
            )

        self._pool.apply_async(
            _pool_execute, (canonical, key), callback=_done, error_callback=_fail
        )
        return await future

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
