"""Property tests for the content-addressed on-disk result cache.

Three families:

* **round-trip** — a cache hit reconstructs a RunRecord equal to the one
  that was stored (every SimResult field, every counter, every energy
  component);
* **key separation** — changing any *single* ingredient of the cache key
  (source text, a config field, profile/run selectors, the energy-model
  stamp) misses rather than aliasing;
* **robustness** — corrupt, foreign or stale-format entries are evicted on
  read, never raised.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.energy import EnergyCounters
from repro.arch.machine import SimResult
from repro.bench import cache as bench_cache
from repro.bench.cache import (
    DiskCache,
    RunDiskCache,
    energy_model_stamp,
    install_disk_cache,
    run_key,
)
from repro.core.pipeline import CompilerConfig
from repro.eval import harness
from repro.workloads import get_workload

WORKLOAD = "crc32"
SOURCE = get_workload(WORKLOAD).source


@pytest.fixture
def disk_cache(tmp_path):
    cache = install_disk_cache(tmp_path / "cache")
    try:
        yield cache
    finally:
        harness.set_disk_cache(None)
        harness.clear_caches()


def _records_equal(a, b) -> bool:
    if (a.workload, a.correct) != (b.workload, b.correct):
        return False
    for f in dataclasses.fields(SimResult):
        if f.name == "memory":
            continue  # the image is deliberately not persisted
        if getattr(a.sim, f.name) != getattr(b.sim, f.name):
            if f.name == "counters":
                for cf in dataclasses.fields(EnergyCounters):
                    if getattr(a.sim.counters, cf.name) != getattr(
                        b.sim.counters, cf.name
                    ):
                        return False
                continue
            return False
    if a.energy.as_dict() != b.energy.as_dict():
        return False
    if (a.dts_energy is None) != (b.dts_energy is None):
        return False
    if a.dts_energy is not None and (
        a.dts_energy.as_dict() != b.dts_energy.as_dict()
    ):
        return False
    return abs(a.total_energy - b.total_energy) < 1e-9


# ---------------------------------------------------------------------------
# round-trip
# ---------------------------------------------------------------------------


def test_hit_returns_equal_record(disk_cache):
    config = CompilerConfig.bitspec("max")
    original = harness.run(WORKLOAD, config)
    assert disk_cache.stats.puts == 1

    # A fresh process is simulated by clearing the in-memory memoizer.
    harness.clear_caches()
    cached = harness.run(WORKLOAD, config)
    assert disk_cache.stats.hits == 1
    assert cached is not original
    assert cached.binary is None  # binaries are not persisted
    assert _records_equal(cached, original)


def test_dts_record_round_trips(disk_cache):
    config = CompilerConfig.dts_bitspec("max")
    original = harness.run(WORKLOAD, config)
    harness.clear_caches()
    cached = harness.run(WORKLOAD, config)
    assert cached.dts_energy is not None
    assert _records_equal(cached, original)


def test_incorrect_runs_are_not_persisted(disk_cache, monkeypatch):
    workload = get_workload(WORKLOAD)
    monkeypatch.setattr(
        type(workload), "expected_output", lambda self, inputs: ["bogus"]
    )
    with pytest.raises(AssertionError):
        harness.run(WORKLOAD, CompilerConfig.baseline())
    assert disk_cache.stats.puts == 0


# ---------------------------------------------------------------------------
# key separation — any single ingredient change must miss
# ---------------------------------------------------------------------------


def _store_one(cache) -> CompilerConfig:
    config = CompilerConfig.bitspec("max")
    harness.run(WORKLOAD, config)
    harness.clear_caches()
    return config


def test_source_change_misses(disk_cache):
    config = _store_one(disk_cache)
    assert disk_cache.contains_run(SOURCE, config, "test", 0, "test", 0)
    assert not disk_cache.contains_run(
        SOURCE + "\n", config, "test", 0, "test", 0
    )


@pytest.mark.parametrize(
    "change",
    [
        {"bitmask_elision": False},
        {"compare_elimination": False},
        {"invert_handler_weights": True},
        {"middle_end": "2cfg-min"},
        {"isa": "ARM"},
        {"voltage_scaling": "timesqueezing"},
    ],
    ids=lambda c: next(iter(c)),
)
def test_config_field_change_misses(disk_cache, change):
    config = _store_one(disk_cache)
    mutated = dataclasses.replace(config, **change)
    assert disk_cache.contains_run(SOURCE, config, "test", 0, "test", 0)
    assert not disk_cache.contains_run(SOURCE, mutated, "test", 0, "test", 0)


@pytest.mark.parametrize(
    "change",
    [
        {"slice_width": 16},
        {"squeeze_ops": ("add", "sub")},
        {"min_hotness": 0.25},
        {"confidence_margin": 1},
        {"dts_alpha": 1.6},
        {"dts_bitwidth_aware": True},
        {"l1_kb": 4},
        {"l1_ways": 2},
        {"l2_kb": 128},
        {"l2_ways": 4},
    ],
    ids=lambda c: next(iter(c)),
)
def test_dse_knob_change_misses(disk_cache, change):
    """Every DSE sweep knob is a semantic cache-key ingredient."""
    config = _store_one(disk_cache)
    mutated = dataclasses.replace(config, **change)
    assert disk_cache.contains_run(SOURCE, config, "test", 0, "test", 0)
    assert not disk_cache.contains_run(SOURCE, mutated, "test", 0, "test", 0)


def test_config_name_is_cosmetic(disk_cache):
    """Renaming a config must NOT miss — the name is display-only."""
    config = _store_one(disk_cache)
    renamed = dataclasses.replace(config, name="same-thing-other-label")
    assert disk_cache.contains_run(SOURCE, renamed, "test", 0, "test", 0)


@pytest.mark.parametrize(
    "selector",
    [
        ("alt", 0, "test", 0),
        ("test", 1, "test", 0),
        ("test", 0, "alt", 0),
        ("test", 0, "test", 1),
    ],
    ids=["profile_kind", "profile_seed", "run_kind", "run_seed"],
)
def test_input_selector_change_misses(disk_cache, selector):
    config = _store_one(disk_cache)
    assert not disk_cache.contains_run(SOURCE, config, *selector)


def test_energy_model_version_bump_misses(disk_cache, monkeypatch):
    config = _store_one(disk_cache)
    monkeypatch.setattr(bench_cache, "ENERGY_MODEL_VERSION", 9999)
    fresh = RunDiskCache(disk_cache.root)  # stamps are per-instance
    assert not fresh.contains_run(SOURCE, config, "test", 0, "test", 0)


@settings(max_examples=30, deadline=None)
@given(
    which=st.sampled_from(
        ["source", "profile_kind", "profile_seed", "run_kind", "run_seed", "stamp"]
    ),
    salt=st.integers(min_value=1, max_value=10**6),
)
def test_any_single_perturbation_changes_key(which, salt):
    config = CompilerConfig.bitspec("max")
    base = dict(
        source=SOURCE,
        profile_kind="test",
        profile_seed=0,
        run_kind="test",
        run_seed=0,
        energy_stamp=energy_model_stamp(),
    )
    mutated = dict(base)
    if which == "source":
        mutated["source"] = SOURCE + f"\n// {salt}"
    elif which == "stamp":
        mutated["energy_stamp"] = f"stamp-{salt}"
    elif which.endswith("_seed"):
        mutated[which] = salt
    else:
        mutated[which] = f"kind-{salt}"

    def key(ingredients):
        src = ingredients.pop("source")
        return run_key(src, config, **ingredients)

    assert key(dict(base)) != key(dict(mutated))
    assert key(dict(base)) == key(dict(base))  # and keys are deterministic


# ---------------------------------------------------------------------------
# robustness — corruption is evicted, not raised
# ---------------------------------------------------------------------------


def _entry_path(cache, key):
    return cache._path(key)


@pytest.mark.parametrize(
    "garbage",
    [
        "not json at all {",
        '"a bare string"',
        json.dumps({"format": 999, "key": "k", "payload": {}}),
        json.dumps({"format": 1, "key": "WRONG", "payload": {}}),
        json.dumps({"format": 1, "key": "k", "payload": "not-a-dict"}),
    ],
    ids=["syntax", "non-dict", "stale-format", "key-mismatch", "bad-payload"],
)
def test_corrupted_entry_is_evicted(tmp_path, garbage):
    cache = DiskCache(tmp_path)
    key = "ab" + "0" * 62
    path = _entry_path(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(garbage.replace('"k"', f'"{key}"') if '"k"' in garbage else garbage)

    assert cache.get(key) is None  # no exception
    assert not path.exists(), "corrupt entry should have been unlinked"
    assert cache.stats.evictions == 1
    assert cache.stats.hits == 0


def test_previous_entry_format_is_evicted(disk_cache):
    """A format-2 entry (pre-DSE schema: sims without ``slice_width``)
    under today's key must be evicted and recomputed, never deserialized —
    the ENTRY_FORMAT bump is what protects warm caches from schema
    changes."""
    config = _store_one(disk_cache)
    key = disk_cache._run_key(SOURCE, config, "test", 0, "test", 0)
    path = _entry_path(disk_cache, key)
    entry = json.loads(path.read_text())
    assert entry["format"] == bench_cache.ENTRY_FORMAT == 6
    entry["format"] = 2
    del entry["payload"]["sim"]["slice_width"]  # the format-2 shape
    path.write_text(json.dumps(entry))

    record = harness.run(WORKLOAD, config)  # must recompute, not raise
    assert record.correct
    assert disk_cache.stats.evictions == 1
    assert disk_cache.stats.puts == 2
    # the re-stored entry is the current format again with the new field
    entry = json.loads(path.read_text())
    assert entry["format"] == bench_cache.ENTRY_FORMAT
    assert entry["payload"]["sim"]["slice_width"] == 8


def test_corrupted_entry_recovers_end_to_end(disk_cache):
    """After eviction the harness recomputes and re-stores transparently."""
    config = _store_one(disk_cache)
    key = disk_cache._run_key(SOURCE, config, "test", 0, "test", 0)
    _entry_path(disk_cache, key).write_text("garbage")

    record = harness.run(WORKLOAD, config)  # must not raise
    assert record.correct
    assert disk_cache.stats.evictions == 1
    assert disk_cache.stats.puts == 2  # original store + re-store
    # and the re-stored entry is valid again
    harness.clear_caches()
    assert harness.run(WORKLOAD, config).binary is None


def test_put_then_get_round_trips_payload(tmp_path):
    cache = DiskCache(tmp_path)
    key = "cd" + "f" * 62
    payload = {"nested": {"a": [1, 2, 3]}, "x": 1.5}
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert len(cache) == 1


@pytest.mark.parametrize(
    "run_engine, digest",
    [
        (None, "369211b38492e05a3f12839fb7f77d0a499f9bb36de58502f381349dbd6a21ab"),
        ("ooo", "d2278556079bc058896cfba0bec40b4cd11b63835c46cdf70744ed05268cdc82"),
    ],
)
def test_record_payload_bytes_are_pinned(run_engine, digest):
    """Entry bytes are the cache's format: a payload derived differently
    but equal in content must serialize to the same bytes, or warm caches
    written at ENTRY_FORMAT 6 would silently stop hitting.  (A change to
    what the run itself computes moves these digests on purpose.)"""
    record = harness.run(WORKLOAD, CompilerConfig.bitspec("max"), engine=run_engine)
    payload = bench_cache.record_to_payload(record)
    assert (payload["sim"]["ooo"] is not None) == (run_engine == "ooo")
    blob = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert bench_cache.ENTRY_FORMAT == 6


# ---------------------------------------------------------------------------
# torn writes — what a SIGKILL'd writer process leaves behind
# ---------------------------------------------------------------------------


def test_truncated_shard_is_evicted_not_served(tmp_path):
    """A shard cut mid-document (power loss / SIGKILL between write and
    rename on a filesystem that published it anyway) evicts cleanly."""
    cache = DiskCache(tmp_path)
    key = "ee" + "1" * 62
    cache.put(key, {"value": list(range(64))})
    path = _entry_path(cache, key)
    raw = path.read_bytes()
    for cut in (1, len(raw) // 2, len(raw) - 2):
        path.write_bytes(raw[:cut])
        assert cache.get(key) is None
        assert not path.exists()
        cache.put(key, {"value": list(range(64))})
    assert cache.stats.evictions == 3


def test_bitflipped_shard_fails_checksum_and_evicts(tmp_path):
    """Parseable-but-wrong payloads are caught by the ``sha`` field —
    including flips that only change a digit inside the payload."""
    cache = DiskCache(tmp_path)
    key = "ee" + "2" * 62
    cache.put(key, {"value": 12345})
    path = _entry_path(cache, key)
    raw = path.read_bytes()
    flipped = raw.replace(b"12345", b"12245")
    assert flipped != raw
    path.write_bytes(flipped)
    assert cache.get(key) is None
    assert cache.stats.evictions == 1


def test_invalid_utf8_shard_is_evicted_not_raised(tmp_path):
    """A bit flip can produce invalid UTF-8; that is corruption, not a
    crash — the decode happens inside the eviction guard."""
    cache = DiskCache(tmp_path)
    key = "ee" + "3" * 62
    cache.put(key, {"value": 1})
    path = _entry_path(cache, key)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] = 0xFF
    path.write_bytes(bytes(raw))
    assert cache.get(key) is None
    assert cache.stats.evictions == 1


def test_orphan_tmp_files_are_swept_on_open(tmp_path):
    """Stale ``.tmp-*`` files from a killed writer are removed on the
    next cache open; young ones (a live concurrent writer) are kept."""
    import os
    import time

    shard_dir = tmp_path / "ee"
    shard_dir.mkdir(parents=True)
    stale = shard_dir / ".tmp-stale.json"
    stale.write_text("{partial")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    young = shard_dir / ".tmp-young.json"
    young.write_text("{partial")

    DiskCache(tmp_path)
    assert not stale.exists(), "stale orphan should be swept"
    assert young.exists(), "young temp may belong to a live writer"


def _killable_writer(root, key, barrier):
    """Writer child: signal readiness, then put in a tight loop forever —
    the parent SIGKILLs it at an arbitrary point mid-put."""
    cache = DiskCache(root)
    barrier.wait()
    i = 0
    while True:
        cache.put(key, {"round": i, "pad": "y" * 8192})
        i += 1


def test_killed_writer_never_publishes_torn_entry(tmp_path):
    """SIGKILL a writer mid-put-loop; the published shard (if any) must
    be a complete, checksum-valid payload — the atomic temp-file +
    fsync + rename discipline means a kill can only lose the in-flight
    write, never tear the published one."""
    import multiprocessing
    import os
    import signal
    import time

    key = "ff" + "a" * 62
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    writer = ctx.Process(target=_killable_writer, args=(tmp_path, key, barrier))
    writer.start()
    barrier.wait()
    deadline = time.time() + 30
    while not (tmp_path / "ff").is_dir() and time.time() < deadline:
        time.sleep(0.005)
    time.sleep(0.05)  # let a few put rounds land
    os.kill(writer.pid, signal.SIGKILL)
    writer.join(timeout=30)

    cache = DiskCache(tmp_path)
    payload = cache.get(key)  # must never raise
    if payload is not None:
        assert len(payload["pad"]) == 8192, "torn payload served"
        assert payload["round"] >= 0
    assert cache.stats.evictions == 0


# ---------------------------------------------------------------------------
# concurrency — two writers racing on the same shard
# ---------------------------------------------------------------------------


def _hammer_put(root, key, tag, rounds, barrier):
    """Writer process: repeatedly store a distinguishable payload."""
    cache = DiskCache(root)
    barrier.wait()
    for i in range(rounds):
        cache.put(key, {"writer": tag, "round": i, "pad": "x" * 4096})


def test_same_shard_writer_race_never_tears(tmp_path):
    """Two processes racing ``put`` on the *same key* (hence the same
    shard file) while a reader polls: every read must be ``None`` or one
    writer's complete payload — never an exception, never a torn mix.
    Atomicity comes from temp-file + ``os.replace``; this pins it."""
    import multiprocessing

    key = "ab" + "c" * 62
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(3)
    writers = [
        ctx.Process(target=_hammer_put, args=(tmp_path, key, tag, 60, barrier))
        for tag in ("first", "second")
    ]
    for w in writers:
        w.start()
    reader = DiskCache(tmp_path)
    barrier.wait()
    observed = set()
    for _ in range(300):
        payload = reader.get(key)  # must never raise
        if payload is not None:
            assert payload["writer"] in ("first", "second")
            assert len(payload["pad"]) == 4096, "torn read"
            observed.add(payload["writer"])
    for w in writers:
        w.join(timeout=60)
        assert w.exitcode == 0
    assert reader.stats.evictions == 0, "a racing write must never corrupt"
    final = reader.get(key)
    assert final is not None and final["round"] == 59
    # no stray temp files left behind by either writer
    leftovers = list(tmp_path.rglob(".tmp-*"))
    assert leftovers == []


def test_concurrent_distinct_keys_all_land(tmp_path):
    """Writers on different keys of one cache directory don't interfere."""
    import multiprocessing

    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    keys = ["aa" + f"{i:062x}" for i in range(2)]
    procs = [
        ctx.Process(target=_hammer_put, args=(tmp_path, key, key[:4], 25, barrier))
        for key in keys
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    cache = DiskCache(tmp_path)
    for key in keys:
        payload = cache.get(key)
        assert payload is not None and payload["round"] == 24
