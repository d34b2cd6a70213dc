"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` wraps each layer's
public functions where they are *called* (``repro.core.pipeline`` binds
``build_module`` at import, so the wrapper must replace that binding, not
the one in ``repro.passes.expander``).  Every call becomes a span with a
layer, a name, start and end times and the span that caused it.  Spans
stay in memory; :func:`summarize` turns them into per-layer self time.

A layer's *self time* is its spans' durations minus the part covered by
their child spans, so nested layers (``profile`` inside ``compile``
inside ``executor``) are never counted twice.

The serve worker is a forked copy of the server process, so it inherits
the wrappers.  A top-level span that closes in a process other than the
one that installed the tracer writes that process's summary to
``dump_dir``; :func:`merge` folds those summaries into the parent's.
"""

from __future__ import annotations

import collections
import functools
import importlib
import importlib.util
import inspect
import json
import os
import time
import warnings
from pathlib import Path


def _instructions(result) -> dict:
    # Machine.run returns a checkpoint Snapshot when asked to stop early
    return {"sim.instructions": getattr(result, "instructions", 0)}


def _cache_hit(result) -> dict:
    return {"cache.hits": int(result is not None)}


#: (layer, "module:qualname" of the name as its caller resolves it,
#: counter hook over the result or None)
TARGETS = (
    ("frontend", "repro.core.pipeline:build_module", None),
    ("cfg_prep", "repro.core.pipeline:prepare_cfg_module", None),
    ("profile", "repro.profiler.profile:BitwidthProfile.collect", None),
    ("squeeze", "repro.core.pipeline:compute_squeeze_plan", None),
    ("squeeze", "repro.core.pipeline:squeeze_function", None),
    ("squeeze", "repro.core.pipeline:verify_sir_function", None),
    ("opts", "repro.core.pipeline:run_speculative_opts", None),
    ("opts", "repro.core.pipeline:remove_unreachable_blocks", None),
    ("opts", "repro.core.pipeline:eliminate_dead_code", None),
    ("opts", "repro.core.pipeline:simplify_function", None),
    ("opts", "repro.core.pipeline:narrow_module", None),
    ("opts", "repro.core.pipeline:simplify_module", None),
    ("isel", "repro.core.pipeline:select_module", None),
    ("regalloc", "repro.backend.regalloc:RegisterAllocator.run", None),
    ("layout", "repro.core.pipeline:link_program", None),
    ("compile", "repro.eval.harness:compile_binary", None),
    ("compile", "repro.serve.report:compile_binary", None),
    ("compile", "repro.verify.checker:compile_binary", None),
    ("inputs", "repro.workloads.base:Workload.inputs", None),
    ("reference", "repro.workloads.base:Workload.expected_output", None),
    ("execute", "repro.arch.machine:Machine.run", _instructions),
    ("predecode", "repro.arch.predecode:predecode", None),
    ("predecode", "repro.arch.compiled:predecode", None),
    ("translate", "repro.arch.compiled:get_image", None),
    ("translate", "repro.arch.compiled:_build_image", None),
    ("fold", "repro.arch.predecode:fold_result", None),
    ("fold", "repro.arch.compiled:fold_result", None),
    ("attribution", "repro.obs.attribution:attribute", None),
    ("attribution", "repro.obs.attribution:check_conservation", None),
    ("cache", "repro.bench.cache:DiskCache.get", _cache_hit),
    ("cache", "repro.bench.cache:DiskCache.put", None),
    ("cache", "repro.bench.cache:RunDiskCache.contains_run", None),
    ("cache", "repro.bench.cache:RunDiskCache.lookup_run", None),
    ("cache", "repro.bench.cache:RunDiskCache.store_run", None),
    ("executor", "repro.bench.executor:run_matrix", None),
    ("executor", "repro.dse.runner:run_matrix", None),
    ("dse", "repro.dse.runner:SweepResult.to_document", None),
    ("serve", "repro.serve.server:validate_request", None),
    ("serve", "repro.serve.server:request_key", None),
    ("pool", "repro.serve.pool:WorkerPool.execute", None),
    ("report", "repro.serve.pool:_pool_execute", None),
    ("verify", "repro.verify.__main__:verify_function", None),
    ("symexec", "repro.verify.executor:SymbolicMachine.run", None),
    ("confirm", "repro.verify.checker:confirm_counterexample", None),
)


class TargetError(LookupError):
    """A wrap target names something its module no longer has."""


def resolve(spec: str):
    """``"module:Qual.name"`` → ``(owner, attr, raw)``, or None.

    None means the module itself is gone (a layer deleted by design).  A
    module that exists but lacks the name raises :class:`TargetError`: a
    renamed function must fail loudly, not silently zero its layer.
    """
    module_name, _, qualname = spec.partition(":")
    try:
        if importlib.util.find_spec(module_name) is None:
            return None
    except ModuleNotFoundError:  # a parent package is gone too
        return None
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr] if path else getattr(owner, attr)
    except (AttributeError, KeyError):
        raise TargetError(f"{spec}: {qualname} not found in {module_name}")
    return owner, attr, raw


class Tracer:
    """Records one span per call of every wrapped target."""

    def __init__(self, dump_dir=None) -> None:
        #: (layer, name, start, end, parent index or -1), in start order
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        #: layers whose every target module is absent
        self.missing: set = set()
        self.dump_dir = dump_dir
        self._stack: list = []
        self._patches: list = []
        self._pid = os.getpid()
        self._owner_pid = self._pid

    # -- install / uninstall --------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        resolved = []
        present = collections.defaultdict(bool)
        # resolve (and so import) every target before patching any, so a
        # module importing a name from another binds the original, not a
        # wrapper that would then be wrapped a second time
        for layer, spec, note in targets:
            found = resolve(spec)
            present[layer] |= found is not None
            if found is not None:
                resolved.append((layer, spec, note, found))
        self.missing = {layer for layer, ok in present.items() if not ok}
        for layer in sorted(self.missing):
            warnings.warn(f"layer {layer}: no target module exists; reported as null")
        for layer, spec, note, (owner, attr, raw) in resolved:
            name = spec.partition(":")[2]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(layer, name, raw.__func__, note))
            else:
                patched = self._wrap(layer, name, raw, note)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, note):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            # an awaited span overlaps other requests' spans on the event
            # loop, so it is recorded top-level and never becomes a parent
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans.append((layer, name, start, time.perf_counter(), -1))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._pid != os.getpid():  # first span in a forked child
                tracer._pid = os.getpid()
                tracer.reset()
                tracer._stack.clear()
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index] = (layer, name, start, time.perf_counter(), parent)
                tracer._stack.pop()
            if note is not None:
                tracer.counters.update(note(result))
            if parent < 0 and tracer._pid != tracer._owner_pid:
                tracer._dump()
            return result

        return wrapper

    def _dump(self) -> None:
        if self.dump_dir is None:
            return
        path = Path(self.dump_dir) / f"spans-{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(summarize(self.spans, self.counters)))
        os.replace(tmp, path)

    def summary(self, window=None) -> dict:
        return summarize(self.spans, self.counters, window)


def summarize(spans, counters=(), window=None) -> dict:
    """Per-layer self time, per-name call counts and span coverage.

    ``spans`` are ``(layer, name, start, end, parent)`` tuples, ``parent``
    the index of the enclosing span or -1.  ``covered_s`` is the length of
    the union of top-level spans clipped to ``window`` (start, end) when
    given: the part of the window some layer accounts for.
    """
    child = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    for (layer, name, start, end, parent), inner in zip(spans, child):
        self_s[layer] += (end - start) - inner
        calls[name] += 1
    top = sorted((s[2], s[3]) for s in spans if s[4] < 0)
    if window is not None:
        lo, hi = window
        top = [(max(a, lo), min(b, hi)) for a, b in top if b > lo and a < hi]
    covered = 0.0
    reach = float("-inf")
    for a, b in top:
        if b > reach:
            covered += b - max(a, reach)
            reach = b
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counters": dict(counters),
        "covered_s": covered,
    }


def merge(into: dict, other: dict) -> dict:
    """Add another process's summary (self time, calls, counters) to one."""
    for key in ("self_s", "calls", "counters"):
        for name, value in other[key].items():
            into[key][name] = into[key].get(name, 0) + value
    return into


def load_dumps(dump_dir) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(dump_dir).glob("spans-*.json"))]
