"""Tests of the benchmark's own arithmetic and wiring: ``pytest perf -q``."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF.parent / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("compile", "compile_binary", 0.0, 10.0, -1),
        ("frontend", "build_module", 1.0, 3.0, 0),
        ("profile", "collect", 3.0, 8.0, 0),
        ("frontend", "build_module", 4.0, 5.0, 2),  # grandchild of compile
        ("execute", "Machine.run", 12.0, 15.0, -1),
    ]
    summary = tracing.summarize(spans)
    assert summary["self_s"] == pytest.approx(
        {"compile": 3.0, "frontend": 3.0, "profile": 4.0, "execute": 3.0}
    )
    assert summary["calls"] == {"compile_binary": 1, "build_module": 2, "collect": 1, "Machine.run": 1}
    # self times of a tree add up to its root's duration
    assert sum(summary["self_s"].values()) == pytest.approx(13.0)
    assert summary["covered_s"] == pytest.approx(13.0)


def test_coverage_merges_overlaps_and_clips_to_window():
    spans = [
        ("pool", "execute", 0.0, 4.0, -1),
        ("pool", "execute", 2.0, 6.0, -1),  # concurrent request
        ("serve", "validate_request", 8.0, 9.0, -1),
        ("serve", "validate_request", 8.5, 8.7, 2),
    ]
    assert tracing.summarize(spans)["covered_s"] == pytest.approx(7.0)
    assert tracing.summarize(spans, window=(1.0, 8.5))["covered_s"] == pytest.approx(5.5)


def test_merge_adds_worker_summary():
    into = tracing.summarize([("report", "_pool_execute", 0.0, 1.0, -1)], {"cache.hits": 1})
    other = tracing.summarize([("report", "_pool_execute", 0.0, 2.0, -1)], {"cache.hits": 2})
    tracing.merge(into, other)
    assert into["self_s"]["report"] == pytest.approx(3.0)
    assert into["calls"]["_pool_execute"] == 2
    assert into["counters"]["cache.hits"] == 3


# -- the tracer on a synthetic module -------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perf_fake_layers")
    module.__spec__ = importlib.util.spec_from_loader("perf_fake_layers", loader=None)
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n"
        "class Thing:\n"
        "    @classmethod\n"
        "    def make(cls, x):\n"
        "        return inner(x)\n"
        "    async def wait(self, x):\n"
        "        return x\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, "perf_fake_layers", module)
    return module


def test_tracer_records_nested_spans_and_uninstalls(fake_module):
    original = fake_module.outer
    targets = (
        ("a", "perf_fake_layers:outer", None),
        ("b", "perf_fake_layers:inner", lambda r: {"seen": r}),
        ("c", "perf_fake_layers:Thing.make", None),
        ("d", "perf_fake_layers:Thing.wait", None),
    )
    tracer = tracing.Tracer().install(targets)
    try:
        assert fake_module.outer(1) == 4
        assert fake_module.Thing.make(5) == 6
        assert asyncio.run(fake_module.Thing().wait(7)) == 7
    finally:
        tracer.uninstall()
    assert fake_module.outer is original
    names = [(layer, parent) for layer, _name, _s, _e, parent in tracer.spans]
    assert names == [("a", -1), ("b", 0), ("c", -1), ("b", 2), ("d", -1)]
    assert tracer.counters["seen"] == 8
    summary = tracer.summary()
    assert set(summary["self_s"]) == {"a", "b", "c", "d"}
    assert summary["calls"]["Thing.make"] == 1


def test_every_wrap_target_resolves_on_this_tree():
    for layer, spec, _note in tracing.TARGETS:
        found = tracing.resolve(spec)
        assert found is not None, f"{layer}: {spec} is missing"
        owner, attr, raw = found
        assert callable(getattr(owner, attr)), spec


def test_renamed_function_fails_loudly():
    with pytest.raises(tracing.TargetError):
        tracing.resolve("repro.core.pipeline:build_module_renamed")
    with pytest.raises(tracing.TargetError):
        tracing.Tracer().install((("frontend", "repro.core.pipeline:no_such_stage", None),))


def test_absent_module_reports_layer_as_null():
    targets = (
        ("translate", "repro.arch.compiled_deleted:get_image", None),
        ("gone", "repro_gone_package.module:f", None),
    )
    with pytest.warns(UserWarning) as warned:
        tracer = tracing.Tracer().install(targets)
    assert tracer.missing == {"translate", "gone"}
    assert sorted(str(w.message).split(":")[0] for w in warned) == ["layer gone", "layer translate"]
    traced = [{
        "wall_s": 1.0,
        "trace": {**tracing.summarize([]), "missing": sorted(tracer.missing)},
    }]
    lay = bench.layers(traced, plain=[{"wall_s": 0.8}])
    assert lay["self_s"]["translate"] is None
    metrics = bench.per_layer(lay, {})
    assert metrics["translate.pct"] == 0.0
    assert metrics["trace_overhead.pct"] == pytest.approx(25.0)


# -- statistics -----------------------------------------------------------------


def _alternating(base, n=10, step=0.01):
    return [base * (1 + step * ((i % 3) - 1)) for i in range(n)]


def test_compare_improved_needs_nine_tenths_of_ten_pairs():
    parent = _alternating(10.0)
    assert bench.classify(parent, _alternating(8.0), "lower", 0.1) == "improved"
    # higher-is-better metrics flip the direction
    assert bench.classify(parent, _alternating(12.0), "higher", 0.1) == "improved"
    # eight pairs cannot claim a gain, however large
    assert bench.classify(parent[:8], _alternating(8.0, 8), "lower", 0.1) == "unchanged"
    # losing two of ten pairs is not nine tenths
    change = _alternating(8.0)
    change[0] = change[1] = 20.0
    assert bench.classify(parent, change, "lower", 0.5) == "unchanged"


def test_compare_worse_beyond_the_bound():
    parent = _alternating(10.0)
    assert bench.classify(parent, _alternating(11.5), "lower", 0.1) == "worse"
    assert bench.classify(parent, _alternating(8.5), "higher", 0.1) == "worse"
    # inside the bound, but every pair resolves the slowdown
    assert bench.classify(parent, _alternating(10.5), "lower", 0.1) == "slower"
    assert bench.classify(parent, _alternating(9.5), "higher", 0.1) == "slower"
    # a shift smaller than the parent's own quartile distance is noise
    assert bench.classify(parent, _alternating(10.05), "lower", 0.1) == "unchanged"
    # fewer than ten pairs cannot resolve a slowdown inside the bound
    assert bench.classify(parent[:8], _alternating(10.5, 8), "lower", 0.1) == "unchanged"


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.0, 12.0]
    change = [9.0, 12.5, 9.5, 11.0, 8.0, 12.0, 9.0, 11.0, 8.5, 11.5]
    assert bench.spread(parent) > 0.1
    assert bench.classify(parent, change, "lower", 0.1) == "unresolved"
    # unless every change run beats every parent run
    assert bench.classify(parent, [7.0] * 4, "lower", 0.1) == "unchanged"


def test_compare_rows_per_workload_and_metric():
    def run(wall, names=("w", "v")):
        return {"workloads": {name: {"end_to_end": {
            "setup_s": 0.1, "wall_s": wall, "peak_rss_mb": 100.0,
        }} for name in names}}

    parent = [run(10.0 + 0.01 * i) for i in range(10)]
    change = [run(13.0 + 0.01 * i) for i in range(10)]
    rows = bench.compare(parent, change, ["w", "v"])
    verdicts = {(w, metric): verdict for w, metric, verdict, _p, _c in rows}
    assert verdicts == {
        (w, m): v
        for w in ("w", "v")
        for m, v in (("setup_s", "unchanged"), ("wall_s", "worse"), ("peak_rss_mb", "unchanged"))
    }
    # a workload left out of any run cannot be cleared of a regression
    change[3] = run(10.0, names=("w",))
    rows = bench.compare(parent, change, ["w", "v"])
    assert {verdict for w, _m, verdict, _p, _c in rows if w == "v"} == {"missing"}
    assert {verdict for w, _m, verdict, _p, _c in rows if w == "w"} != {"missing"}
    assert {r[2] for r in bench.compare([], change, ["w"])} == {"missing"}


# -- digests and definitions ------------------------------------------------------


def test_check_digests_flags_a_tampered_digest():
    baseline = json.loads(bench.BASELINE.read_text())
    recorded = baseline["digests"]
    results = {
        name: {"seed": entry["seed"], "results_sha256": entry["results_sha256"]}
        for name, entry in recorded.items()
    }
    assert bench.check_digests(results, baseline) == []
    results["dse-sweep"]["results_sha256"] = "0" * 64
    assert [m.split(":")[0] for m in bench.check_digests(results, baseline)] == ["dse-sweep"]
    # a seeded workload is only checked at its recorded seed
    results["roster-cold"] = {"seed": recorded["roster-cold"]["seed"] + 1, "results_sha256": "x"}
    assert len(bench.check_digests(results, baseline)) == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perf"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench.PER_LAYER
    ]
    bounds = {name: bound for name, _u, _b, bound in bench.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


def test_serve_requests_repeat_every_fourth_and_follow_the_seed():
    order = workloads.serve_requests(7)
    assert order == workloads.serve_requests(7)
    assert order != workloads.serve_requests(8)
    assert sorted(set(order)) == list(range(workloads.SERVE_PROGRAMS))
    for i in range(3, len(order), 4):
        assert order[i] in order[:i]
    assert len(order) - len(set(order)) == len(order) // 4
