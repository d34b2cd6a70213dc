"""repro.serve — async multi-tenant compile-and-simulate service.

A tenant POSTs MiniC source plus a schema-validated config document and
receives a deterministic report: energy, cycles, event counts,
observability attribution, and Pareto position against the DSE smoke
grid.  Everything is stdlib: the HTTP layer is asyncio streams, the
execution tier is a bounded async worker pool, and the shared
storage tier is the bench content-addressed disk cache.

The load-bearing invariant is the **determinism contract**: a response
body is a pure function of the request document.  Same request, warm or
cold, any engine, any tenant — byte-identical bytes.  ``python -m
repro.serve load-test`` drives the server with PR 1's fuzz generator and
fails if a single byte drifts or if N identical concurrent submissions
compile more than once (request coalescing).

Layering, bottom to top:

- :mod:`repro.serve.schema` — request validation + the content address
  (``request_key``) that doubles as the job id.
- :mod:`repro.serve.report` — pure request → report-envelope execution.
- :mod:`repro.serve.pool` — bounded worker pool (multiprocessing or
  inline threads) with per-job timeouts.
- :mod:`repro.serve.quota` — per-tenant token buckets.
- :mod:`repro.serve.server` — the asyncio HTTP front end: cache,
  coalescing, backpressure, jobs API.
- :mod:`repro.serve.client` / :mod:`repro.serve.loadtest` — stdlib
  client and the three-phase fuzz load test.

See docs/serve.md for the full API reference and error taxonomy.
"""

from repro.serve.report import execute_request
from repro.serve.schema import (
    REPORT_SCHEMA,
    REQUEST_SCHEMA,
    RequestValidationError,
    request_key,
    validate_request,
)
from repro.serve.server import ERROR_CODES, ReproServer, ServeConfig

__all__ = [
    "ERROR_CODES",
    "REPORT_SCHEMA",
    "REQUEST_SCHEMA",
    "ReproServer",
    "RequestValidationError",
    "ServeConfig",
    "execute_request",
    "request_key",
    "validate_request",
]
