"""The asyncio multi-tenant compile-and-simulate job server.

One :class:`ReproServer` owns four cooperating pieces:

* an **HTTP front door** — a minimal HTTP/1.1 implementation over
  asyncio streams (stdlib only), one connection per request;
* a **quota gate** (:mod:`repro.serve.quota`) charging every submission
  against its tenant's token bucket at ingress;
* a **coalescing layer**: submissions content-address to a request key
  (:func:`repro.serve.schema.request_key`); a key already in flight
  joins the existing execution's future instead of enqueuing a twin, so
  N identical concurrent submissions cost exactly one compile+simulate
  (observable as ``coalesced`` in ``/v1/stats`` — the load test's gate);
* the **shared storage tier**: completed cacheable envelopes persist in
  a content-addressed :class:`repro.bench.cache.DiskCache`, so a warm
  replay (same process or a fresh server on the same directory) returns
  the byte-identical body without touching the worker pool.

With a ``journal_path`` configured, a fifth piece makes the async-job
lifecycle **durable**: every admission, start, and completion is
append-fsynced to a write-ahead journal (:mod:`repro.serve.journal`),
and :meth:`ReproServer.start` replays it — completed jobs keep
resolving with byte-identical bodies, incomplete ones are re-enqueued.

Backpressure is queue-depth based: when ``max_queue`` executions are in
flight, new *work* is rejected 503 (``queue-full``) — cache hits and
coalesced joins still succeed, because they add no load.  The
determinism contract (docs/serve.md) covers response **bodies**; the
``X-Repro-Source`` header (``executed`` / ``cache`` / ``coalesced``) and
``/v1/stats`` are deliberately outside it.
"""

from __future__ import annotations

import asyncio
import json
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.documents import canonical_json
from repro.serve.pool import WorkerPool
from repro.serve.quota import QuotaRegistry
from repro.serve.report import error_envelope
from repro.serve.schema import (
    REQUEST_SCHEMA,
    RequestValidationError,
    request_key,
    validate_request,
)

#: every error code the server can emit → its HTTP status.
#: docs/serve.md documents each one; tests/test_docs.py enforces that.
ERROR_CODES = {
    "invalid-json": 400,
    "invalid-request": 400,
    "not-found": 404,
    "job-not-found": 404,
    "method-not-allowed": 405,
    "job-pending": 409,
    "payload-too-large": 413,
    "compile-error": 422,
    "input-error": 422,
    "execution-error": 422,
    "quota-exceeded": 429,
    "internal-error": 500,
    "queue-full": 503,
    "execution-timeout": 504,
}

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_JOB_PATH = re.compile(r"^/v1/jobs/([0-9a-f]{64})(/report)?$")


def canonical_body(doc: dict) -> bytes:
    """A response body: the document's canonical JSON, whose every byte
    is a pure function of the document — what makes the byte-identical
    replay gate meaningful."""
    return canonical_json(doc).encode()


@dataclass
class ServeConfig:
    """Everything a :class:`ReproServer` can be told at construction."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    #: worker processes; 0 = inline thread mode (tests / dev)
    workers: int = 1
    #: per-job SIGALRM timeout in seconds (process workers only)
    timeout: Optional[float] = 120.0
    #: content-addressed report cache directory (None disables persistence)
    cache_dir: Optional[str] = None
    #: in-flight execution cap — beyond it, new work gets 503 queue-full
    max_queue: int = 16
    #: per-tenant token-bucket size (<= 0 disables quotas)
    quota_capacity: float = 60.0
    #: per-tenant bucket refill rate, tokens/second
    quota_refill: float = 20.0
    #: largest accepted request body
    max_body_bytes: int = 1 << 20
    #: completed async-job records kept in memory (oldest evicted first)
    max_jobs: int = 1024
    #: write-ahead job journal file (None disables durability); see
    #: :mod:`repro.serve.journal`
    journal_path: Optional[str] = None


@dataclass
class ServeStats:
    """Monotonic counters behind ``GET /v1/stats``."""

    requests: int = 0
    reports: int = 0
    executed: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    validation_rejections: int = 0
    quota_rejections: int = 0
    backpressure_rejections: int = 0
    compile_rejections: int = 0
    #: completed jobs re-registered from the journal at startup
    recovered_jobs: int = 0
    #: incomplete jobs re-enqueued from the journal at startup
    requeued_jobs: int = 0
    per_tenant: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data = dict(self.__dict__)
        data["per_tenant"] = dict(sorted(self.per_tenant.items()))
        return data


class ReproServer:
    """The service; ``await start()``, then ``await serve_forever()``."""

    def __init__(self, config: ServeConfig, *, clock=None) -> None:
        self.config = config
        self.stats = ServeStats()
        self.quotas = QuotaRegistry(
            config.quota_capacity, config.quota_refill, clock=clock
        )
        self.pool = WorkerPool(workers=config.workers, timeout=config.timeout)
        self.cache = None
        if config.cache_dir is not None:
            from repro.bench.cache import DiskCache

            self.cache = DiskCache(config.cache_dir)
        #: request key → asyncio.Future resolving to the envelope
        self._inflight: dict = {}
        #: async-job records: key → {"status", "tenant", "envelope"|None}
        self._jobs: OrderedDict = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self.journal = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._recover_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    def _recover_journal(self) -> None:
        """Replay the write-ahead journal before the listener binds.

        Completed jobs are re-registered so their ids keep resolving
        (cacheable bodies replay byte-identically from the report cache;
        uncacheable envelopes ride in the journal itself).  Incomplete
        jobs — submitted or started, but never completed — are
        re-enqueued verbatim, bypassing the quota gate they already
        passed before the crash.
        """
        if self.config.journal_path is None:
            return
        from repro.serve.journal import JobJournal, scan

        recovered = scan(self.config.journal_path)
        self.journal = JobJournal(self.config.journal_path)
        self.journal.truncate_to_valid()
        for key, job in recovered.jobs.items():
            tenant = job["tenant"] or "anonymous"
            if job["state"] == "done":
                self._record_job(key, tenant)
                record = self._jobs[key]
                record["status"] = "done"
                if job["envelope"] is not None:
                    record["envelope"] = job["envelope"]
                self.stats.recovered_jobs += 1
            elif job["request"] is not None:
                self._requeue(key, job["request"], tenant)

    def _requeue(self, key: str, canonical: dict, tenant: str) -> None:
        if key in self._inflight:
            return
        if self.cache is not None and self.cache.contains(key):
            # crashed between the cache write and the complete record:
            # the answer survived; heal the journal instead of re-running
            self._record_job(key, tenant)
            self._jobs[key]["status"] = "done"
            self.journal.complete(key, cacheable=True)
            self.stats.recovered_jobs += 1
            return
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._record_job(key, tenant)
        loop.create_task(self._run_job(key, canonical, future))
        self.stats.requeued_jobs += 1

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for future in self._inflight.values():
            if not future.done():
                future.cancel()
        self.pool.close()
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # -- the submission pipeline ----------------------------------------------

    def _error(self, code: str, message: str, **extra) -> dict:
        return error_envelope(code, ERROR_CODES[code], message, **extra)

    async def submit(self, doc, *, wait: bool = True) -> dict:
        """The full ingress pipeline; returns the response envelope.

        ``wait=False`` is the async-jobs path: the envelope is a 202 job
        ticket instead of the report, and the job id is the request key
        (submissions are idempotent — resubmitting returns the same id).
        """
        self.stats.requests += 1
        try:
            canonical = validate_request(doc)
        except RequestValidationError as exc:
            self.stats.validation_rejections += 1
            return self._error(
                "invalid-request",
                "request failed schema validation",
                details=exc.errors,
            )
        tenant = canonical["tenant"]
        self.stats.per_tenant[tenant] = self.stats.per_tenant.get(tenant, 0) + 1

        decision = self.quotas.charge(tenant)
        if not decision.allowed:
            self.stats.quota_rejections += 1
            return self._error(
                "quota-exceeded",
                f"tenant {tenant!r} is over its request quota",
                retry_after_seconds=decision.retry_after,
            )

        key = request_key(canonical)
        envelope, future, source = self._lookup_or_start(key, canonical)
        if not wait:
            return self._job_ticket(key, envelope, future, source)
        if future is not None:
            envelope = await asyncio.shield(future)
        if envelope["kind"] == "error" and envelope["status"] == 422:
            self.stats.compile_rejections += 1
        if envelope["kind"] == "report":
            self.stats.reports += 1
        return dict(envelope, source=source)

    def _lookup_or_start(self, key: str, canonical: dict):
        """(envelope | None, future | None, source) — the coalescing core.

        Exactly one of envelope/future is non-None: an envelope means the
        answer already exists (cache hit or an ingress rejection); a
        future means an execution is in flight — freshly started
        (``source == "executed"``) or joined (``"coalesced"``).
        """
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.coalesced += 1
            return None, inflight, "coalesced"
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached, None, "cache"
        job = self._jobs.get(key)
        if job is not None and job.get("envelope") is not None:
            # uncacheable outcome (timeout/internal) remembered in memory
            self.stats.cache_hits += 1
            return job["envelope"], None, "cache"
        if len(self._inflight) >= self.config.max_queue:
            self.stats.backpressure_rejections += 1
            return (
                self._error(
                    "queue-full",
                    f"{len(self._inflight)} executions in flight "
                    f"(max_queue={self.config.max_queue}); retry later",
                    cacheable=False,
                ),
                None,
                "rejected",
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._record_job(key, canonical["tenant"])
        if self.journal is not None:
            # write-ahead: the admission is durable before it is scheduled
            self.journal.submit(key, canonical["tenant"], canonical)
        loop.create_task(self._run_job(key, canonical, future))
        return None, future, "executed"

    async def _run_job(self, key: str, canonical: dict, future) -> None:
        if self.journal is not None:
            self.journal.start(key)
        try:
            envelope = await self.pool.execute(canonical, key)
        except Exception as exc:  # worker infrastructure failure
            envelope = self._error(
                "internal-error", f"worker failure: {exc}", cacheable=False
            )
        self.stats.executed += 1
        cached = bool(envelope.get("cacheable")) and self.cache is not None
        if cached:
            self.cache.put(key, envelope)
        if self.journal is not None:
            # after the cache write: a crash in between re-enqueues the
            # job, which deterministically re-produces the same body
            self.journal.complete(key, cacheable=cached, envelope=envelope)
        job = self._jobs.get(key)
        if job is not None:
            job["status"] = "done"
            if not cached:
                job["envelope"] = envelope
        self._inflight.pop(key, None)
        if not future.done():
            future.set_result(envelope)

    def _record_job(self, key: str, tenant: str) -> None:
        if key not in self._jobs:
            while len(self._jobs) >= self.config.max_jobs:
                self._jobs.popitem(last=False)
            self._jobs[key] = {"status": "pending", "tenant": tenant, "envelope": None}

    def _job_ticket(self, key: str, envelope, future, source: str) -> dict:
        if (
            envelope is not None
            and envelope["kind"] == "error"
            and envelope["status"] != 422
        ):
            # ingress rejections (quota/backpressure) pass straight through
            return dict(envelope, source=source)
        status = "pending" if future is not None else "done"
        return {
            "status": 202,
            "kind": "job",
            "body": {"job_id": key, "status": status},
            "cacheable": False,
            "source": source,
        }

    def job_status(self, key: str) -> dict:
        if key in self._inflight:
            return {"status": 200, "kind": "job", "body": {"job_id": key, "status": "pending"}, "cacheable": False}
        job = self._jobs.get(key)
        known = job is not None or (
            self.cache is not None and self.cache.contains(key)
        )
        if not known:
            return self._error("job-not-found", f"no job {key}")
        return {
            "status": 200,
            "kind": "job",
            "body": {"job_id": key, "status": "done"},
            "cacheable": False,
        }

    def job_report(self, key: str) -> dict:
        if key in self._inflight:
            return self._error(
                "job-pending", f"job {key} is still executing", cacheable=False
            )
        job = self._jobs.get(key)
        if job is not None and job.get("envelope") is not None:
            return job["envelope"]
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        return self._error("job-not-found", f"no completed job {key}")

    # -- the HTTP front door --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            envelope, extra_headers = await self._handle_request(reader)
        except Exception as exc:
            envelope = self._error("internal-error", str(exc), cacheable=False)
            extra_headers = {}
        try:
            await self._write_response(writer, envelope, extra_headers)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_request(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return self._error("invalid-request", "empty request"), {}
        parts = request_line.split()
        if len(parts) < 2:
            return self._error("invalid-request", f"malformed request line: {request_line!r}"), {}
        method, path = parts[0].upper(), parts[1]

        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            return self._error(
                "payload-too-large",
                f"body of {length} bytes exceeds {self.config.max_body_bytes}",
            ), {}
        if length:
            body = await reader.readexactly(length)

        return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path), {}
            return {"status": 200, "kind": "health", "body": {"status": "ok"}, "cacheable": False}, {}
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed(method, path), {}
            body_doc = self.stats.as_dict()
            body_doc["inflight"] = len(self._inflight)
            body_doc["quota_tokens"] = self.quotas.snapshot()
            if self.cache is not None:
                body_doc["cache"] = dict(self.cache.stats.__dict__)
            return {"status": 200, "kind": "stats", "body": body_doc, "cacheable": False}, {}
        if path == "/v1/schema":
            if method != "GET":
                return self._method_not_allowed(method, path), {}
            return {"status": 200, "kind": "schema", "body": REQUEST_SCHEMA, "cacheable": False}, {}
        if path == "/v1/reports" or path == "/v1/jobs":
            if method != "POST":
                return self._method_not_allowed(method, path), {}
            try:
                doc = json.loads(body.decode() or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                self.stats.requests += 1
                return self._error("invalid-json", f"body is not valid JSON: {exc}"), {}
            envelope = await self.submit(doc, wait=(path == "/v1/reports"))
            headers = {}
            if "source" in envelope:
                headers["X-Repro-Source"] = envelope["source"]
            if envelope["kind"] == "report":
                headers["X-Repro-Key"] = envelope["body"].get("key", "")
            return envelope, headers
        match = _JOB_PATH.match(path)
        if match:
            if method != "GET":
                return self._method_not_allowed(method, path), {}
            key, want_report = match.group(1), bool(match.group(2))
            return (self.job_report(key) if want_report else self.job_status(key)), {}
        return self._error("not-found", f"no such endpoint: {method} {path}"), {}

    def _method_not_allowed(self, method: str, path: str) -> dict:
        return self._error(
            "method-not-allowed", f"{method} is not supported on {path}",
            cacheable=False,
        )

    async def _write_response(self, writer, envelope: dict, extra_headers: dict) -> None:
        body = canonical_body(envelope["body"])
        status = envelope["status"]
        reason = _REASONS.get(status, "Unknown")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
            **extra_headers,
        }
        head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        ) + "\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
