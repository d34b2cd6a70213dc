"""Request schema: validation, canonicalization, content addressing.

A serve request is one JSON document (the spirit of selfspec-calculator's
validated ``model.yaml`` / ``hardware.yaml`` contract): MiniC source text
plus a configuration section — either a named preset or explicit DSE
knobs — plus optional profile/run input bindings and report options.

:data:`REQUEST_SCHEMA` is the one statement of that contract — every
type, range, limit and default — and ``GET /v1/schema`` serves it as is.
:func:`validate_request` walks the document against it (:func:`_walk`)
and adds only the two rules no schema keyword expresses: a ``preset``
excludes explicit knobs, and the knobs must make a buildable
configuration (:func:`build_config`: cache geometry, knob interplay).  It
returns the document's *canonical* form: defaults filled in, knobs fully
resolved, deterministic field order.  Validation failures raise
:class:`RequestValidationError` carrying one structured
``{"path", "message"}`` entry per problem — the server surfaces them
verbatim in the 400 error body.

:func:`request_key` is the content address of a canonical request — a
SHA-256 over the source text, the **resolved**
:meth:`repro.core.pipeline.CompilerConfig.fingerprint` (so a preset and
its equivalent knob spelling share one cache entry), the input bindings,
the report options, the report schema version and the energy-model stamp
(:func:`repro.bench.cache.energy_model_stamp`).  It doubles as the job id:
identical submissions are idempotent by construction.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from dataclasses import fields, replace

from repro.arch.machine import ENGINES
from repro.arch.widths import SLICE_WIDTHS
from repro.core.pipeline import PRESETS, CompilerConfig, resolve_config
from repro.dse.space import OP_SETS, SpecPoint
from repro.profiler.profile import HEURISTICS
from repro.profiler.selection import SQUEEZABLE_BINOPS

#: bump when the report document layout changes — invalidates cached reports
REPORT_SCHEMA = 1

MAX_SOURCE_BYTES = 256 * 1024
MAX_INPUT_GLOBALS = 64
MAX_INPUT_VALUES = 4096
#: largest cache level a request may ask for (the simulator lists each set)
MAX_CACHE_KB = 4096

#: explicit-knob defaults: every :class:`repro.dse.space.SpecPoint` field
#: at its default (``squeeze_ops`` by its op-set name), plus the
#: compile-mode field serve adds on top
_KNOB_DEFAULTS = {f.name: f.default for f in fields(SpecPoint)} | {
    "squeeze_ops": "all",
    "max_spec_regions": 0,
}

#: the explicit knobs' constraints; each gets its default from _KNOB_DEFAULTS
_KNOBS = {
    "slice_width": {"enum": sorted(SLICE_WIDTHS)},
    "heuristic": {"enum": list(HEURISTICS)},
    "squeeze_ops": {
        "oneOf": [
            {"enum": sorted(OP_SETS)},
            {
                "type": "array",
                "minItems": 1,
                "items": {"enum": sorted(SQUEEZABLE_BINOPS)},
                # not a validation keyword: the list canonicalizes sorted-unique
                "sortedUnique": True,
            },
        ]
    },
    "min_hotness": {"type": "number", "minimum": 0.0, "maximum": 1.0},
    "confidence_margin": {"type": "integer", "minimum": 0, "maximum": 31},
    "dts": {"type": "boolean"},
    "dts_alpha": {"type": "number", "minimum": 1.0, "maximum": 3.0},
    "dts_bitwidth_aware": {"type": "boolean"},
    "l1_kb": {"type": "integer", "minimum": 1, "maximum": MAX_CACHE_KB},
    "l1_ways": {"type": "integer", "minimum": 1},
    "l2_kb": {"type": "integer", "minimum": 1, "maximum": MAX_CACHE_KB},
    "l2_ways": {"type": "integer", "minimum": 1},
    "max_spec_regions": {"type": "integer", "minimum": 0},
}

_INPUT_INT = {
    "type": "integer",
    "exclusiveMinimum": -(1 << 64),
    "exclusiveMaximum": 1 << 64,
}

#: one binding section: global name -> int | [int]
_INPUT_BINDINGS = {
    "type": "object",
    "default": {},
    "maxProperties": MAX_INPUT_GLOBALS,
    "propertyNames": {"type": "string", "pattern": r"^[A-Za-z_][A-Za-z0-9_]*$"},
    "additionalProperties": {
        "oneOf": [
            _INPUT_INT,
            {"type": "array", "maxItems": MAX_INPUT_VALUES, "items": _INPUT_INT},
        ]
    },
}

#: machine-readable schema document, served at ``GET /v1/schema`` and
#: mirrored prose-side in docs/serve.md.  Keywords are JSON Schema's, plus
#: ``maxBytes`` (UTF-8 length) and ``sortedUnique`` (canonical list form)
REQUEST_SCHEMA = {
    "schema": REPORT_SCHEMA,
    "type": "object",
    "required": ["source"],
    "additionalProperties": False,
    "properties": {
        "tenant": {
            "type": "string",
            "pattern": r"^[A-Za-z0-9_.-]{1,64}$",
            "default": "anonymous",
        },
        "source": {
            "type": "string",
            "description": "MiniC program text (must define main); not blank",
            "pattern": r"\S",
            "maxBytes": MAX_SOURCE_BYTES,
        },
        "engine": {
            "enum": [None, *ENGINES],
            "default": None,
            "description": "simulation engine preference; never partitions "
            "the cache and never changes the report body (the report's "
            "cycles/energy are defined under the in-order timing model; "
            "'ooo' additionally cross-checks the out-of-order engine's "
            "committed state before the body is emitted)",
        },
        "config": {
            "type": "object",
            "description": "either {'preset': name} or explicit knobs; "
            "'strict' is allowed in both spellings",
            "default": {"preset": "bitspec-max"},
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": list(PRESETS)},
                "strict": {"type": "boolean", "default": False},
                **{
                    name: {**node, "default": _KNOB_DEFAULTS[name]}
                    for name, node in _KNOBS.items()
                },
            },
        },
        "inputs": {
            "type": "object",
            "description": "global-name → int | [int] bindings",
            "default": {},
            "additionalProperties": False,
            "properties": {"profile": _INPUT_BINDINGS, "run": _INPUT_BINDINGS},
        },
        "report": {
            "type": "object",
            "default": {},
            "additionalProperties": False,
            "properties": {
                "attribution": {"type": "boolean", "default": True},
                "pareto": {"type": "boolean", "default": True},
                "top": {"type": "integer", "minimum": 1, "maximum": 100, "default": 10},
            },
        },
    },
}


class RequestValidationError(Exception):
    """The request document failed schema validation."""

    def __init__(self, errors: list) -> None:
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"{e['path']}: {e['message']}" for e in self.errors)
        )


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}

# each test says what must hold, so a NaN breaks every bound
_BOUNDS = (
    ("minimum", operator.ge),
    ("maximum", operator.le),
    ("exclusiveMinimum", operator.gt),
    ("exclusiveMaximum", operator.lt),
)
_SIZES = (("maxItems", operator.le), ("minItems", operator.ge), ("maxProperties", operator.le))


def _child(path: str, key) -> str:
    return f"{key}" if path == "$" else f"{path}.{key}"


def _fail(errors: list, path: str, node: dict, message: str):
    errors.append({"path": path, "message": message})
    return node.get("default")


def _walk(value, node: dict, path: str, errors: list):
    """Check ``value`` against schema ``node``; return its canonical form.

    Appends one ``{"path", "message"}`` per problem to ``errors``; a value
    that breaks its node stands in as the node's default.  Absent
    properties with a default are filled in (and walked), numbers become
    floats, and a ``oneOf`` takes the first branch that holds.
    """
    if "oneOf" in node:
        tried = []
        for branch in node["oneOf"]:
            found: list = []
            out = _walk(value, branch, path, found)
            if not found:
                return out
            tried.append(f"{found[0]['path'][len(path):]} {found[0]['message']}".lstrip())
        return _fail(errors, path, node, " or ".join(tried))
    kind = node.get("type")
    if kind is not None and not _TYPES[kind](value):
        return _fail(errors, path, node, f"expected {kind}, got {type(value).__name__}")
    if "enum" in node:
        if value not in node["enum"]:
            return _fail(errors, path, node, f"{value!r} is not one of {node['enum']}")
        value = node["enum"][node["enum"].index(value)]  # 8.0 names the point 8 does
    if kind == "string":
        if "pattern" in node and not re.search(node["pattern"], value):
            return _fail(errors, path, node, f"does not match {node['pattern']!r}")
        if "maxBytes" in node:
            try:  # json.loads lets in a lone surrogate, which is no UTF-8 text
                size = len(value.encode())
            except UnicodeEncodeError as exc:
                return _fail(errors, path, node, f"not UTF-8 text: {exc.reason}")
            if size > node["maxBytes"]:
                return _fail(errors, path, node, f"exceeds {node['maxBytes']} bytes")
    elif kind in ("integer", "number"):
        value = float(value) if kind == "number" else value
        for bound, holds in _BOUNDS:
            if bound in node and not holds(value, node[bound]):
                return _fail(errors, path, node, f"{value!r} breaks {bound} {node[bound]}")
    elif kind in ("array", "object"):
        for size, holds in _SIZES:
            if size in node and not holds(len(value), node[size]):
                return _fail(errors, path, node, f"{len(value)} entries break {size} {node[size]}")
        if kind == "array":
            failed = len(errors)
            items = [_walk(v, node["items"], f"{path}[{i}]", errors) for i, v in enumerate(value)]
            canonical = node.get("sortedUnique") and len(errors) == failed
            return sorted(set(items)) if canonical else items
        return _walk_object(value, node, path, errors)
    return value


def _walk_object(value: dict, node: dict, path: str, errors: list) -> dict:
    props = node.get("properties", {})
    extra = node.get("additionalProperties", True)
    unknown = [key for key in sorted(value, key=str) if key not in props]
    if unknown and extra is False:
        errors.append({"path": path, "message": f"unknown properties: {unknown}"})
    out = {}
    for key, sub in props.items():
        if key in value:
            out[key] = _walk(value[key], sub, _child(path, key), errors)
        elif key in node.get("required", ()):
            errors.append({"path": _child(path, key), "message": "required"})
        elif "default" in sub:
            out[key] = _walk(sub["default"], sub, _child(path, key), errors)
    for key in unknown if isinstance(extra, dict) else ():
        found: list = []
        _walk(key, node.get("propertyNames", {}), _child(path, key), found)
        errors += found
        if not found:
            out[key] = _walk(value[key], extra, _child(path, key), errors)
    return out


def _drop_knobs(config: dict) -> dict:
    return {k: v for k, v in config.items() if k not in _KNOB_DEFAULTS}


def validate_request(doc) -> dict:
    """Validate ``doc`` and return its canonical form.

    Raises :class:`RequestValidationError` with every problem found (not
    just the first) so a client can fix a bad document in one round trip.
    """
    errors: list = []
    config = doc.get("config") if isinstance(doc, dict) else None
    if isinstance(config, dict) and "preset" in config:
        # a preset binds every knob: explicit knobs beside it are refused
        # as a whole, never judged one by one
        knobs = sorted(set(config) & set(_KNOB_DEFAULTS))
        if knobs:
            errors.append({
                "path": "config",
                "message": f"'preset' and explicit knobs are mutually "
                f"exclusive (got knobs {knobs})",
            })
        doc = {**doc, "config": _drop_knobs(config)}
    canonical = _walk(doc, REQUEST_SCHEMA, "$", errors)
    if canonical is None:
        raise RequestValidationError(errors)
    config = canonical["config"]
    if "preset" in config:
        canonical["config"] = _drop_knobs(config)
    else:
        # cache geometry and knob interactions are validated by the config
        # dataclass itself — surface its complaint under the config path
        try:
            build_config(config)
        except Exception as exc:
            errors.append({"path": "config", "message": str(exc)})
    if errors:
        raise RequestValidationError(errors)
    return canonical


def build_config(config_section: dict) -> CompilerConfig:
    """Lower a canonical config section onto a :class:`CompilerConfig`."""
    if "preset" in config_section:
        return resolve_config(config_section["preset"])
    knobs = {k: v for k, v in config_section.items() if k in _KNOB_DEFAULTS}
    ops = knobs.get("squeeze_ops", "all")
    knobs["squeeze_ops"] = tuple(OP_SETS[ops]) if isinstance(ops, str) else tuple(ops)
    max_spec_regions = knobs.pop("max_spec_regions", 0)
    point = SpecPoint(**knobs)
    return replace(point.to_config(), max_spec_regions=max_spec_regions)


def request_key(canonical: dict) -> str:
    """Content address of one canonical request (also its job id).

    Covers everything that can change the response body: the source, the
    *resolved* config fingerprint (+ strictness), the input bindings, the
    report options, the report schema version and the energy-model stamp.
    Excludes the tenant — tenants submitting identical work share cache
    entries (the multi-tenant storage tier) — and the simulation engine:
    the in-order engines are bit-identical, and the ``ooo`` spelling only
    adds a committed-state cross-check without touching the body, so
    every spelling must hash to the same key and share one cache entry.
    """
    from repro.bench.cache import energy_model_stamp

    config = build_config(canonical["config"])
    fingerprint = config.fingerprint()
    # squeeze_ops is consumed as a set (pipeline builds a frozenset), so
    # order must not split the content address: preset spellings list it
    # in pipeline order, knob spellings alphabetically
    fingerprint["squeeze_ops"] = sorted(set(fingerprint["squeeze_ops"]))
    basis = {
        "report_schema": REPORT_SCHEMA,
        "source": canonical["source"],
        "config": fingerprint,
        "strict": canonical["config"].get("strict", False),
        "inputs": canonical["inputs"],
        "report": canonical["report"],
        "energy": energy_model_stamp(),
    }
    blob = json.dumps(basis, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
