"""Content-addressed on-disk result cache.

Simulations here are pure functions of their inputs — every metric is a
deterministic event count — so a result may be reused across processes,
sessions and machines *provided* the cache key covers everything that can
change semantics: the workload source text, the full compiler
configuration (via :meth:`CompilerConfig.fingerprint`), the profile and
run input selectors, and a version stamp over the energy/DTS model
constants.  Change any one ingredient and the key (hence the cache entry)
changes; see ``tests/test_bench_cache.py`` for the property tests.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per record,
published with :func:`repro.core.documents.atomic_write` so concurrent
bench workers never observe torn entries and a power loss mid-write
cannot publish an empty or partial file under the final name.  A
corrupt, truncated, or stale-format file is *evicted* on read, never
raised; ``.tmp-*`` orphans left by a killed writer are swept on the
next cache open.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from repro.core.documents import atomic_write

#: Bump manually on semantic changes to the simulation that are not
#: captured by the constants hashed into :func:`energy_model_stamp`.
ENERGY_MODEL_VERSION = 1

#: On-disk entry schema version; mismatches are treated as corruption.
#: 2: payloads carry ``pass_stats`` (repro.passes.stats snapshots).
#: 3: sims carry ``slice_width`` and configs carry the DSE knobs
#:    (slice width, squeeze-op set, hotness/confidence thresholds, DTS
#:    alpha/awareness, cache geometry) in their fingerprints.
#: 4: configs carry ``max_spec_regions`` (graceful-degradation budget)
#:    in their fingerprints.
#: 5: keys carry the ``timing`` partition ("inorder" or "ooo:<geometry>")
#:    and sims the OoO structure counters + stats — in-order records
#:    stay interchangeable across the three bit-identical engines while
#:    ooo records never alias them (nor each other across geometries).
#: 6: entries carry a payload checksum (``sha``): a bit-flipped or
#:    torn-but-parseable payload is detected and evicted instead of
#:    being served as a valid result (the chaos campaign's
#:    zero-corruption gate depends on this).
ENTRY_FORMAT = 6


def energy_model_stamp() -> str:
    """Version stamp over every constant the energy numbers depend on.

    Hashes the per-event costs and the DTS model's defaults, so editing
    ``arch/energy.py`` or ``arch/dts.py`` invalidates all cached results
    automatically — no stale figures after a model tweak.
    """
    from repro.arch.dts import DTSModel
    from repro.arch.energy import COSTS

    basis = {
        "version": ENERGY_MODEL_VERSION,
        "costs": COSTS,
        "dts": dataclasses.asdict(DTSModel()),
    }
    blob = json.dumps(basis, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_key(
    source: str,
    config,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    energy_stamp: Optional[str] = None,
    timing: str = "inorder",
) -> str:
    """The content address of one (source × config × inputs) simulation.

    ``timing`` partitions on the cycle/energy model
    (:func:`repro.arch.machine.timing_model`): the two in-order engines
    share records because they are bit-identical, but an ooo-engine run
    has its own cycles and counters and must never serve an in-order
    lookup (or vice versa).
    """
    basis = {
        "entry_format": ENTRY_FORMAT,
        "source": source,
        "config": config.fingerprint(),
        "profile": [profile_kind, profile_seed],
        "run": [run_kind, run_seed],
        "energy": energy_stamp or energy_model_stamp(),
        "timing": timing,
    }
    blob = json.dumps(basis, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def payload_digest(payload: dict) -> str:
    """Checksum stored alongside every entry's payload (format 6+)."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class DiskCache:
    """Key → JSON-payload store with corruption eviction."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove ``.tmp-*`` files a killed writer never renamed.

        Only files older than an hour are touched: a young temp file may
        belong to a concurrent live writer about to rename it.
        """
        import time

        cutoff = time.time() - 3600.0
        for tmp in self.root.glob("*/.tmp-*.json"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            # decode inside the eviction guard: a bit-flipped shard can
            # be invalid UTF-8, which is corruption, not a crash
            entry = json.loads(raw.decode())
            if (
                not isinstance(entry, dict)
                or entry.get("format") != ENTRY_FORMAT
                or entry.get("key") != key
                or not isinstance(entry.get("payload"), dict)
                or entry.get("sha") != payload_digest(entry["payload"])
            ):
                raise ValueError("malformed cache entry")
        except (ValueError, TypeError):
            # Corrupt / foreign / stale-format file: evict, don't crash.
            self.stats.evictions += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return entry["payload"]

    def put(self, key: str, payload: dict) -> None:
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "payload": payload,
            "sha": payload_digest(payload),
        }
        atomic_write(self._path(key), json.dumps(entry, sort_keys=True).encode())
        self.stats.puts += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


# -- RunRecord (de)serialization ----------------------------------------------

#: SimResult fields the payload leaves out: the memory image and the
#: per-pc observability sample
_SIM_SKIP = ("memory", "obs")

#: EnergyCounters fields keyed by register width (JSON keys are strings)
_BY_WIDTH = ("rf_reads_by_width", "rf_writes_by_width")


def _sim_to_dict(sim) -> dict:
    counters = {f.name: getattr(sim.counters, f.name) for f in fields(sim.counters)}
    for name in _BY_WIDTH:
        counters[name] = {str(w): n for w, n in counters[name].items()}
    data = {f.name: getattr(sim, f.name) for f in fields(sim) if f.name not in _SIM_SKIP}
    data.update(
        output=list(sim.output),
        class_counts=dict(sim.class_counts),
        counters=counters,
        ooo=sim.ooo.as_dict() if sim.ooo is not None else None,
    )
    return data


def _sim_from_dict(data: dict):
    from repro.arch.energy import EnergyCounters
    from repro.arch.machine import SimResult

    counters = EnergyCounters(**data["counters"])
    for name in _BY_WIDTH:
        setattr(counters, name, {int(w): n for w, n in data["counters"][name].items()})
    sim = SimResult(
        **{
            **data,
            "output": list(data["output"]),
            "counters": counters,
            "class_counts": dict(data["class_counts"]),
            "ooo": None,
        }
    )
    if data.get("ooo") is not None:
        from repro.arch.ooo import OooStats

        sim.ooo = OooStats(**data["ooo"])
    return sim


def record_to_payload(record) -> dict:
    """RunRecord → JSON payload (drops the binary and the memory image)."""
    payload = {
        "workload": record.workload,
        "config_name": record.config.name,
        "correct": record.correct,
        "sim": _sim_to_dict(record.sim),
        "energy": record.energy.as_dict(),
        "dts_energy": record.dts_energy.as_dict() if record.dts_energy else None,
        "pass_stats": record.pass_stats,
    }
    return payload


def payload_to_record(payload: dict, config):
    """JSON payload → RunRecord (``binary`` is None on the cached path)."""
    from repro.arch.energy import EnergyBreakdown
    from repro.eval.harness import RunRecord

    dts = payload.get("dts_energy")
    return RunRecord(
        workload=payload["workload"],
        config=config,
        sim=_sim_from_dict(payload["sim"]),
        binary=None,
        correct=payload["correct"],
        energy=EnergyBreakdown(**payload["energy"]),
        dts_energy=EnergyBreakdown(**dts) if dts else None,
        pass_stats=payload.get("pass_stats") or {},
    )


class RunDiskCache(DiskCache):
    """The harness-facing view: RunRecords keyed by run ingredients."""

    def __init__(self, root) -> None:
        super().__init__(root)
        # One stamp per process: the model constants cannot change under us.
        self._stamp = energy_model_stamp()

    def _run_key(self, source, config, pk, ps, rk, rs, timing="inorder") -> str:
        return run_key(
            source,
            config,
            profile_kind=pk,
            profile_seed=ps,
            run_kind=rk,
            run_seed=rs,
            energy_stamp=self._stamp,
            timing=timing,
        )

    def contains_run(
        self, source, config, pk, ps, rk, rs, timing="inorder"
    ) -> bool:
        return self.contains(
            self._run_key(source, config, pk, ps, rk, rs, timing)
        )

    def lookup_run(self, source, config, pk, ps, rk, rs, timing="inorder"):
        payload = self.get(
            self._run_key(source, config, pk, ps, rk, rs, timing)
        )
        if payload is None:
            return None
        return payload_to_record(payload, config)

    def store_run(
        self, source, config, pk, ps, rk, rs, record, timing="inorder"
    ) -> None:
        self.put(
            self._run_key(source, config, pk, ps, rk, rs, timing),
            record_to_payload(record),
        )


def install_disk_cache(root) -> RunDiskCache:
    """Create a :class:`RunDiskCache` and install it under the harness."""
    from repro.eval import harness

    cache = RunDiskCache(root)
    harness.set_disk_cache(cache)
    return cache
