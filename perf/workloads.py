"""The five benchmark workloads, and the child process that runs one job.

Every shipped CLI invocation starts cold, so each repeat of a workload's
job runs in a fresh interpreter with empty caches.  A job is sized to a
few seconds on a 2-core host so that a run repeats it at least three
times: on a shared host single operations slow down at random by up to
half, and a median over repeats filters that out.  Set-up (imports,
input generation, cache directory, server start) is timed apart from
the job.

Run by ``bench.py`` as ``python3 perf/workloads.py SPEC_JSON``; the child
writes its measurements to ``<spec.dir>/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"


def digest(obj) -> str:
    """SHA-256 over the canonical JSON of a deterministic output."""
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(obj.encode()).hexdigest()


def _cell_job(tasks, cache_dir, outputs=lambda outcomes: {}):
    from repro.bench.executor import run_matrix

    def job():
        outcomes, _stats = run_matrix(tasks, jobs=1, cache_dir=cache_dir)
        rows = [
            [o.workload, o.config_name, o.run_seed, o.status,
             o.instructions, o.cycles, o.misspeculations, o.energy_pj]
            for o in outcomes
        ]
        return {
            "attempted": len(outcomes),
            "failed": sum(o.status != "ok" for o in outcomes),
            "problems": [f"{o.workload}/{o.config_name}: {o.error}" for o in outcomes if o.error],
            "digest": digest(rows),
            "outputs": outputs(outcomes),
        }

    return job


# -- roster-cold --------------------------------------------------------------

#: roster programs covering the heavy layers: squeeze (dijkstra), regalloc
#: (sha), profile and execute (susan-edges), small kernels (crc32, fft)
ROSTER = ("crc32", "fft", "dijkstra", "sha", "susan-edges")


def energy_saving_pct(outcomes) -> dict:
    """The paper's headline: 100·(1 − geomean(E_bitspec-max / E_baseline))."""
    energy = {(o.workload, o.config_name): o.energy_pj for o in outcomes}
    # a failed cell reports 0 pJ; the run is already incorrect, so skip it
    logs = [
        math.log(energy[(w, "bitspec-max")] / base)
        for (w, config), base in energy.items()
        if config == "baseline" and base > 0 and energy[(w, "bitspec-max")] > 0
    ]
    if not logs:
        return {}
    return {"energy_saving_pct": 100.0 * (1.0 - math.exp(sum(logs) / len(logs)))}


def _roster_setup(seed, workdir):
    from repro.bench.__main__ import CONFIG_FACTORIES, DEFAULT_CONFIGS
    from repro.bench.executor import BenchTask

    configs = [CONFIG_FACTORIES[name]() for name in DEFAULT_CONFIGS]
    tasks = [
        BenchTask(workload=w, config=c, run_seed=seed, engine="fast")
        for w in ROSTER for c in configs
    ]
    return _cell_job(tasks, workdir / "cache", energy_saving_pct), None


# -- dse-sweep ----------------------------------------------------------------


def _dse_setup(seed, workdir):
    from repro.dse.runner import run_sweep
    from repro.dse.space import SpecSpace

    space = SpecSpace(slice_width=(8, 32), l1_kb=(4, 8, 16))

    def job():
        result = run_sweep(
            space, ("crc32", "sha"), preset="custom", jobs=1, cache_dir=workdir / "cache",
        )
        document = result.to_json()
        return {
            "attempted": len(result.rows),
            "failed": sum(r.status != "ok" for r in result.rows),
            "problems": [f"{r.point.label()}/{r.workload}: {r.error}" for r in result.rows if r.error],
            "digest": digest(document),
            "outputs": {},
        }

    return job, None


# -- seeds-compiled -----------------------------------------------------------

SEEDS_PROGRAMS = ("crc32", "bitcount", "susan-edges")
SEEDS_PER_IMAGE = 16


def _seeds_setup(seed, workdir):
    from repro.arch.machine import ENGINES
    from repro.bench.__main__ import CONFIG_FACTORIES
    from repro.bench.executor import BenchTask

    # without the compiled engine the same flow runs on the default one,
    # so deleting the engine shows up as whatever it was winning
    engine = "compiled" if "compiled" in ENGINES else None
    config = CONFIG_FACTORIES["bitspec-max"]()
    tasks = [
        BenchTask(workload=w, config=config, run_seed=seed + i, engine=engine)
        for w in SEEDS_PROGRAMS for i in range(SEEDS_PER_IMAGE)
    ]
    return _cell_job(tasks, cache_dir=None), None


# -- serve-closed -------------------------------------------------------------

#: distinct fuzz programs served; every 4th request repeats an earlier one
SERVE_PROGRAMS = 20
SERVE_CLIENTS = 2


def serve_requests(seed: int) -> list:
    """Indices into the program pool: a seeded order of the programs with
    every 4th request a repeat of an earlier one."""
    rng = random.Random(seed)
    fresh = list(range(SERVE_PROGRAMS))
    rng.shuffle(fresh)
    order: list = []
    for index in fresh:
        order.append(index)
        if len(order) % 4 == 3:
            order.append(rng.choice(order))
    return order


def _serve_setup(seed, workdir):
    import asyncio

    from repro.serve.client import submit_report
    from repro.serve.loadtest import build_traffic
    from repro.serve.server import ReproServer, ServeConfig

    # a fixed pool of fuzz programs: the seed picks order and repeats, so
    # every seed does the same work and the spread is the system's own
    docs = build_traffic(SERVE_PROGRAMS, 0)
    order = serve_requests(seed)
    loop = asyncio.new_event_loop()
    server = ReproServer(ServeConfig(workers=1, cache_dir=str(workdir / "cache")))
    loop.run_until_complete(server.start())

    async def drive():
        responses = [None] * len(order)
        latencies = [0.0] * len(order)
        pending = iter(range(len(order)))

        async def client():
            for i in pending:
                started = time.perf_counter()
                responses[i] = await submit_report("127.0.0.1", server.port, docs[order[i]])
                latencies[i] = time.perf_counter() - started

        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        return responses, latencies

    def job():
        responses, latencies = loop.run_until_complete(drive())
        problems = [f"request {i}: HTTP {r.status}" for i, r in enumerate(responses) if r.status != 200]
        first: dict = {}
        for i, r in enumerate(responses):
            if first.setdefault(order[i], r.body) != r.body:
                problems.append(f"request {i}: body differs from its first answer")
        stats = server.stats
        return {
            "attempted": len(responses),
            "failed": sum(r.status != 200 for r in responses),
            "problems": problems,
            "digest": digest("".join(hashlib.sha256(r.body).hexdigest() for r in responses)),
            # the base of serve.front.pct: request time outside the worker
            "request_s": sum(latencies),
            "outputs": {
                "executed": stats.executed,
                "cache_hits": stats.cache_hits,
                "coalesced": stats.coalesced,
            },
        }

    def teardown():
        loop.run_until_complete(server.stop())
        loop.close()

    return job, teardown


# -- verify-corpus ------------------------------------------------------------

#: tests/corpus entries: 20 functions, 17 proved (two of them over 65,536
#: lanes, in seed022) and 3 bound-exceeded; the slowest entries are left
#: out to keep a repeat near 4 s
VERIFY_ENTRIES = (
    "regression-shl-slice-carry", "seed000", "seed003", "seed004", "seed009",
    "seed011", "seed022", "seed023", "verify-canary-bs-op-swap-k8",
    "verify-canary-bs-trunc-drop-k8", "verify-canary-handler-misroute-k8",
    "verify-canary-imm-off-by-one-k8", "verify-canary-sxt-drop-k8",
)


def _verify_setup(seed, workdir):
    from repro.verify.__main__ import main as verify_main

    corpus = workdir / "corpus"
    corpus.mkdir()
    for stem in VERIFY_ENTRIES:
        shutil.copyfile(CORPUS / f"{stem}.json", corpus / f"{stem}.json")
    report_path = workdir / "verify.json"

    def job():
        with contextlib.redirect_stdout(io.StringIO()):
            verify_main(["--json", str(report_path), "--corpus", str(corpus), "--k", "8"])
        text = report_path.read_text()
        summary = json.loads(text)["summary"]
        verified = sum(summary.values())
        return {
            "attempted": verified,
            "failed": summary["counterexample"] + summary["error"],
            "problems": [f"{summary['counterexample']} counterexample(s)"] if summary["counterexample"] else [],
            "digest": digest(text),
            "outputs": {
                "proved": summary["proved"],
                "verified": verified,
                "proved_frac": summary["proved"] / verified,
            },
        }

    return job, None


class Workload:
    def __init__(self, name, why, setup, seeded=True):
        self.name = name
        self.why = why
        self.setup = setup
        #: False when the inputs do not depend on the seed
        self.seeded = seeded


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "roster-cold",
            "5 roster programs x baseline/bitspec-max/thumb into an empty disk "
            "cache: profile, squeeze, regalloc, execute and cache puts, with no "
            "profile shared between cells",
            _roster_setup,
        ),
        Workload(
            "dse-sweep",
            "a width x L1-size DSE sweep on crc32 and sha: 2 of 3 cells differ "
            "only in l1_kb, which the compiler never reads, so profile and "
            "compile work repeats",
            _dse_setup, seeded=False,
        ),
        Workload(
            "seeds-compiled",
            "3 hot-loop programs x 16 run seeds on the compiled engine: the one "
            "flow that re-runs an image often enough for translation to pay off",
            _seeds_setup,
        ),
        Workload(
            "serve-closed",
            "2 closed-loop clients, 1 pool worker, 20 fuzz programs with every "
            "4th request a repeat: HTTP, queueing, worker round trip, cache "
            "gets beside puts",
            _serve_setup,
        ),
        Workload(
            "verify-corpus",
            "bounded symbolic checking of 20 corpus functions at k=8: the only "
            "workload that runs the symbolic executor",
            _verify_setup, seeded=False,
        ),
    )
}


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children covers the serve pool worker,
    # which has been reaped by teardown
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_job(spec: dict) -> dict:
    """Set up and time one job; ``spec`` comes from ``bench.py``."""
    workdir = Path(spec["dir"])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(dump_dir=workdir).install()
    job, teardown = WORKLOADS[spec["workload"]].setup(spec["seed"], workdir)
    ready = time.monotonic()
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    outcome = job()
    end = time.perf_counter()
    if teardown is not None:
        teardown()
    result = {
        "setup_s": ready - spec["spawned"],
        "wall_s": end - start,
        "peak_rss_mb": _peak_rss_mb(),
        **outcome,
    }
    if tracer is not None:
        summary = tracer.summary(window=(start, end))
        dumps = tracing.load_dumps(workdir)
        # the serve worker is traced only because it is forked from this
        # process; under another start method its layers would read 0
        if outcome["outputs"].get("executed") and not dumps:
            result["problems"].append("the serve worker wrote no spans")
        for other in dumps:
            tracing.merge(summary, other)
        summary["missing"] = sorted(tracer.missing)
        result["trace"] = summary
    return result


def main(argv) -> int:
    spec = json.loads(argv[0])
    sys.path.insert(0, str(SRC))
    result = run_job(spec)
    (Path(spec["dir"]) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
