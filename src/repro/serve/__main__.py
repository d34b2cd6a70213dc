"""``python -m repro.serve`` — serve / submit / load-test.

Examples::

    # start the service on port 8437 with 4 workers and a shared cache
    python -m repro.serve serve --port 8437 --workers 4 --cache-dir .servecache

    # submit one program and pretty-print the deterministic report
    python -m repro.serve submit --url http://127.0.0.1:8437 \\
        --source program.c --preset bitspec-max --tenant alice

    # self-hosted fuzz-driven load test: 200 distinct programs, then the
    # byte-identity replay and the coalescing burst; SERVE_<date>.json
    python -m repro.serve load-test --programs 200 --concurrency 16

Exit codes: ``serve`` exits 0 on clean shutdown; ``submit`` exits 0 iff
the response is 2xx; ``load-test`` exits 0 iff every gate passed.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import sys
import tempfile
from pathlib import Path

from repro.core.documents import write_document
from repro.serve.client import parse_url, request_sync
from repro.serve.server import ReproServer, ServeConfig


def _cmd_serve(args) -> int:
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout=args.timeout or None,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        max_queue=args.max_queue,
        quota_capacity=args.quota_capacity,
        quota_refill=args.quota_refill,
        journal_path=str(args.journal) if args.journal else None,
    )

    async def _run():
        server = ReproServer(config)
        await server.start()
        print(
            f"repro.serve listening on http://{config.host}:{server.port} "
            f"({config.workers} worker(s), cache="
            f"{config.cache_dir or 'disabled'}, journal="
            f"{config.journal_path or 'disabled'})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


def _cmd_submit(args) -> int:
    host, port = parse_url(args.url)
    if args.request:
        doc = json.loads(Path(args.request).read_text())
    else:
        if not args.source:
            print("submit: need --source FILE or --request FILE", file=sys.stderr)
            return 2
        source = (
            sys.stdin.read()
            if args.source == "-"
            else Path(args.source).read_text()
        )
        doc = {
            "tenant": args.tenant,
            "source": source,
            "config": {"preset": args.preset},
            "report": {
                "attribution": not args.no_attribution,
                "pareto": not args.no_pareto,
            },
        }
    path = "/v1/jobs" if args.asynchronous else "/v1/reports"
    response = request_sync(host, port, "POST", path, doc, timeout=args.timeout)
    sys.stdout.write(response.body.decode())
    source_header = response.headers.get("x-repro-source")
    if source_header:
        print(f"# X-Repro-Source: {source_header}", file=sys.stderr)
    return 0 if response.status < 300 else 1


def _cmd_load_test(args) -> int:
    from repro.serve.loadtest import run_load_test

    def progress(phase, index, response):
        if args.quiet:
            return
        tag = response.headers.get("x-repro-source", "?")
        print(f"[{phase} {index}] {response.status} {tag}", flush=True)

    async def _run() -> dict:
        if args.url:
            host, port = parse_url(args.url)
            return await run_load_test(
                host,
                port,
                programs=args.programs,
                seed=args.seed,
                concurrency=args.concurrency,
                duplicates=args.duplicates,
                pareto=args.pareto,
                progress=progress,
            )
        cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="servecache-")
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            workers=args.workers,
            timeout=args.timeout or None,
            cache_dir=str(cache_dir),
            max_queue=max(args.concurrency, args.duplicates) + 4,
            quota_capacity=0.0,  # throughput run: quotas off
            journal_path=str(Path(cache_dir) / "jobs.journal"),
        )
        state = {"server": ReproServer(config)}
        await state["server"].start()

        async def _restart():
            # the durability phase: drop the server mid-burst, then come
            # back up on the same cache dir + journal
            await state["server"].stop()
            state["server"] = ReproServer(config)
            await state["server"].start()
            return "127.0.0.1", state["server"].port

        try:
            return await run_load_test(
                "127.0.0.1",
                state["server"].port,
                programs=args.programs,
                seed=args.seed,
                concurrency=args.concurrency,
                duplicates=args.duplicates,
                pareto=args.pareto,
                restart=None if args.no_restart else _restart,
                progress=progress,
            )
        finally:
            await state["server"].stop()

    report = asyncio.run(_run())
    output = args.json or Path(
        f"SERVE_{datetime.date.today().isoformat()}.json"
    )
    write_document(output, report)

    warm = report["warm"]
    coalescing = report["coalescing"]
    print(
        f"cold: {report['cold']['requests']} requests, "
        f"{report['cold']['failed']} failed, {report['cold']['seconds']}s; "
        f"warm: {warm['byte_mismatches']} byte mismatches, "
        f"{warm['re_executed']} re-executions, {warm['seconds']}s; "
        f"burst: {coalescing['executed_delta']} execution(s) for "
        f"{coalescing['duplicates']} identical submissions",
        flush=True,
    )
    if "restart" in report:
        restart = report["restart"]
        print(
            f"restart: {restart['jobs']} async jobs through a mid-burst "
            f"restart, {restart['lost']} lost, "
            f"{restart['byte_mismatches']} byte mismatches "
            f"({restart['requeued_jobs']} requeued, "
            f"{restart['recovered_jobs']} recovered)",
            flush=True,
        )
    print(f"body digest {report['body_digest']}", flush=True)
    print(f"wrote {output}", flush=True)
    print("PASS" if report["ok"] else "FAIL", flush=True)
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async multi-tenant compile-and-simulate service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8437)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="per-job worker timeout in seconds (0 disables)")
    serve.add_argument("--cache-dir", type=Path, default=Path(".servecache"),
                       help="content-addressed report cache (shared tier)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="in-flight execution cap before 503 queue-full")
    serve.add_argument("--quota-capacity", type=float, default=60.0,
                       help="per-tenant token-bucket size (0 disables quotas)")
    serve.add_argument("--quota-refill", type=float, default=20.0,
                       help="tokens per second per tenant")
    serve.add_argument("--journal", type=Path, default=None,
                       help="write-ahead job journal file: async jobs "
                            "survive a restart (default: disabled)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit one request document")
    submit.add_argument("--url", default="http://127.0.0.1:8437")
    submit.add_argument("--source", default=None,
                        help="MiniC source file ('-' = stdin)")
    submit.add_argument("--request", default=None,
                        help="full JSON request document file (overrides --source)")
    submit.add_argument("--preset", default="bitspec-max")
    submit.add_argument("--tenant", default="cli")
    submit.add_argument("--no-attribution", action="store_true")
    submit.add_argument("--no-pareto", action="store_true")
    submit.add_argument("--async", dest="asynchronous", action="store_true",
                        help="POST /v1/jobs and print the job ticket")
    submit.add_argument("--timeout", type=float, default=300.0)
    submit.set_defaults(func=_cmd_submit)

    load = sub.add_parser(
        "load-test",
        help="fuzz-driven load test + zero-nondeterminism gate",
    )
    load.add_argument("--url", default=None,
                      help="drive an already-running server (default: self-host)")
    load.add_argument("--programs", type=int, default=200,
                      help="distinct fuzz programs (default: 200)")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--concurrency", type=int, default=16)
    load.add_argument("--duplicates", type=int, default=16,
                      help="identical concurrent submissions in the burst phase")
    load.add_argument("--pareto", action="store_true",
                      help="enable the Pareto section on every 10th request")
    load.add_argument("--workers", type=int, default=2,
                      help="self-hosted server worker processes")
    load.add_argument("--timeout", type=float, default=120.0)
    load.add_argument("--cache-dir", type=Path, default=None,
                      help="self-hosted cache dir (default: fresh temp dir)")
    load.add_argument("--json", type=Path, default=None,
                      help="report path (default: SERVE_<date>.json)")
    load.add_argument("--no-restart", action="store_true",
                      help="skip the mid-burst durability restart phase")
    load.add_argument("--quiet", action="store_true")
    load.set_defaults(func=_cmd_load_test)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
