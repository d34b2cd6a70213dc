"""Serializable machine snapshots: interruptible simulation with a
proof-grade resume contract.

A :class:`Snapshot` freezes everything a run's future depends on at an
instruction-count boundary — architectural state (registers, flat
memory image, compare/carry flags, the load-use hazard latch), the full
cache-hierarchy state (per-set MRU tag order, hit/miss statistics, the
last-line fast path, DRAM access count), the out-stream, and the
engine's accumulated energy/event accounting — so that

    ``run(checkpoint_at=N)``  +  ``run(resume_from=snapshot)``

is *bit-identical* to one uninterrupted ``run()``: every SimResult
field, including cycles and energy counters, and the final memory
image (``tests/test_checkpoint.py`` pins this across the fuzz corpus
and the workload roster).  The DTS model needs no snapshot state: it is
a post-run scaling of class counts (:mod:`repro.arch.dts`).

Snapshots are engine-tagged.  The legacy interpreter accumulates
aggregate counters incrementally, while the predecoded fast path keeps
per-pc event arrays that only fold into aggregates at halt — the two
in-flight representations are not interconvertible mid-run, so a
snapshot resumes on the engine that took it (a mismatch raises
:class:`SnapshotError` instead of silently diverging).  The batching
engines degrade: requesting ``checkpoint_at``/``resume_from`` on the
``ooo`` engine, or on ``fast``'s translated tier, runs the predecoded
stepper whole-run, a rung of :meth:`repro.arch.machine.Machine.run`'s
engine ladder (docs/engines.md) — the in-order engines are
bit-identical, and the OoO engine keeps its committed
view through :func:`repro.arch.machine.committed_view`.

On-disk form: canonical JSON with the 4 MiB memory image (and the fast
engine's per-pc arrays) zlib-compressed and base64-armored, written
atomically (temp file + fsync + rename) so a crash mid-save never
leaves a half-written snapshot where a resumable one should be.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.arch.cache import CacheGeometry, MemoryHierarchy
from repro.core.documents import atomic_write

SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot cannot be taken, loaded, or resumed as requested."""


def program_fingerprint(linked) -> str:
    """A stable digest of a linked image, cached on the instance.

    Resuming a snapshot on a different binary would silently execute
    garbage; the fingerprint covers everything the machine reads from
    the image — the instruction stream (``MachineInst.__repr__`` is a
    full disassembly), layout scalars, and the mixed-world fallback
    set.
    """
    cached = getattr(linked, "_snapshot_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(
        repr(
            (
                linked.isa,
                linked.delta,
                linked.entry_index,
                linked.inst_bytes,
                linked.slice_width,
                sorted(linked.global_addresses.items()),
                sorted(linked.fallback_functions or ()),
                len(linked.insts),
            )
        ).encode()
    )
    for inst in linked.insts:
        h.update(repr(inst).encode())
        h.update(b"\n")
    digest = h.hexdigest()
    linked._snapshot_fingerprint = digest
    return digest


def _geometry_key(geometry: Optional[CacheGeometry]) -> list:
    g = geometry or CacheGeometry()
    return [g.l1_kb, g.l1_ways, g.l2_kb, g.l2_ways]


def _cache_state(cache) -> dict:
    return {
        "lines": [list(ways) for ways in cache._lines],
        "accesses": cache.stats.accesses,
        "misses": cache.stats.misses,
        "last_line": cache._last_line,
    }


def _restore_cache(cache, state: dict) -> None:
    if len(state["lines"]) != cache.sets:
        raise SnapshotError(
            f"{cache.name}: snapshot has {len(state['lines'])} sets, "
            f"geometry expects {cache.sets}"
        )
    cache._lines = [list(ways) for ways in state["lines"]]
    cache.stats.accesses = state["accesses"]
    cache.stats.misses = state["misses"]
    cache._last_line = state["last_line"]


def capture_hierarchy(hierarchy: MemoryHierarchy) -> dict:
    """Freeze a :class:`MemoryHierarchy` (tag order, stats, fast path)."""
    return {
        "icache": _cache_state(hierarchy.icache),
        "dcache": _cache_state(hierarchy.dcache),
        "l2": _cache_state(hierarchy.l2),
        "dram_accesses": hierarchy.dram_accesses,
    }


def restore_hierarchy(
    state: dict, geometry: Optional[CacheGeometry]
) -> MemoryHierarchy:
    hierarchy = MemoryHierarchy(geometry)
    _restore_cache(hierarchy.icache, state["icache"])
    _restore_cache(hierarchy.dcache, state["dcache"])
    _restore_cache(hierarchy.l2, state["l2"])
    hierarchy.dram_accesses = state["dram_accesses"]
    return hierarchy


@dataclass
class Snapshot:
    """A resumable machine state at an instruction-count boundary."""

    engine: str
    fingerprint: str
    #: instructions retired before the boundary (== resume position)
    instructions: int
    pc: int
    regs: list
    cmp_state: tuple
    carry: int
    last_load_reg: int
    output: list
    memory_data: bytes
    hierarchy: dict
    geometry: list
    slice_width: int
    #: engine-specific accounting: the legacy interpreter's running
    #: aggregates, or the fast path's per-pc event arrays
    state: dict
    version: int = SNAPSHOT_VERSION

    def check_resume(self, machine, engine: str) -> None:
        """Reject a resume that could not be bit-identical."""
        if self.version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {self.version} != {SNAPSHOT_VERSION}"
            )
        if engine != self.engine:
            raise SnapshotError(
                f"snapshot was taken on the {self.engine!r} engine and "
                f"cannot resume on {engine!r}: the engines' in-flight "
                f"accounting is not interconvertible"
            )
        if program_fingerprint(machine.linked) != self.fingerprint:
            raise SnapshotError(
                "snapshot was taken from a different linked program"
            )
        if _geometry_key(machine.geometry) != list(self.geometry):
            raise SnapshotError(
                f"snapshot cache geometry {self.geometry} != machine "
                f"geometry {_geometry_key(machine.geometry)}"
            )
        if machine.slice_width != self.slice_width:
            raise SnapshotError(
                f"snapshot slice width {self.slice_width} != machine "
                f"slice width {machine.slice_width}"
            )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON form (memory zlib+base64, sorted keys)."""
        return {
            "version": self.version,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
            "instructions": self.instructions,
            "pc": self.pc,
            "regs": list(self.regs),
            "cmp_state": list(self.cmp_state),
            "carry": self.carry,
            "last_load_reg": self.last_load_reg,
            "output": list(self.output),
            "memory_zb64": base64.b64encode(
                zlib.compress(bytes(self.memory_data), 6)
            ).decode("ascii"),
            "memory_len": len(self.memory_data),
            "hierarchy": self.hierarchy,
            "geometry": list(self.geometry),
            "slice_width": self.slice_width,
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Snapshot":
        try:
            memory = zlib.decompress(base64.b64decode(doc["memory_zb64"]))
            if len(memory) != doc["memory_len"]:
                raise SnapshotError(
                    f"memory image is {len(memory)} bytes, header says "
                    f"{doc['memory_len']}"
                )
            state = doc["state"]
            # JSON round-trips the int-keyed rf width maps as strings
            for key in ("rf_reads", "rf_writes"):
                if key in state:
                    state[key] = {int(k): v for k, v in state[key].items()}
            return cls(
                engine=doc["engine"],
                fingerprint=doc["fingerprint"],
                instructions=doc["instructions"],
                pc=doc["pc"],
                regs=list(doc["regs"]),
                cmp_state=tuple(doc["cmp_state"]),
                carry=doc["carry"],
                last_load_reg=doc["last_load_reg"],
                output=list(doc["output"]),
                memory_data=memory,
                hierarchy=doc["hierarchy"],
                geometry=list(doc["geometry"]),
                slice_width=doc["slice_width"],
                state=state,
                version=doc["version"],
            )
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError, zlib.error) as exc:
            raise SnapshotError(f"malformed snapshot document: {exc}") from exc

    def save(self, path: str) -> None:
        """Atomically write the snapshot (compact JSON)."""
        atomic_write(
            path,
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode(),
        )

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"cannot load snapshot {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise SnapshotError(f"cannot load snapshot {path}: not an object")
        return cls.from_dict(doc)


def make_snapshot(
    machine,
    engine: str,
    *,
    instructions: int,
    pc: int,
    regs: list,
    cmp_state: tuple,
    carry: int,
    last_load_reg: int,
    output: list,
    memory,
    hierarchy: MemoryHierarchy,
    state: dict,
) -> Snapshot:
    """Freeze the live loop state into an owning :class:`Snapshot`.

    Every mutable input is copied — the snapshot must stay valid if the
    caller keeps executing (e.g. taking several snapshots in one run).
    """
    return Snapshot(
        engine=engine,
        fingerprint=program_fingerprint(machine.linked),
        instructions=instructions,
        pc=pc,
        regs=list(regs),
        cmp_state=tuple(cmp_state),
        carry=carry,
        last_load_reg=last_load_reg,
        output=list(output),
        memory_data=bytes(memory.data),
        hierarchy=capture_hierarchy(hierarchy),
        geometry=_geometry_key(machine.geometry),
        slice_width=machine.slice_width,
        state=state,
    )
