"""Request schema: validation, canonicalization, content addressing.

A serve request is one JSON document (the spirit of selfspec-calculator's
validated ``model.yaml`` / ``hardware.yaml`` contract): MiniC source text
plus a configuration section — either a named preset or explicit DSE
knobs — plus optional profile/run input bindings and report options.

:func:`validate_request` checks the document against
:data:`REQUEST_SCHEMA` and returns its *canonical* form: defaults filled
in, knobs fully resolved, deterministic field order.  Validation failures
raise :class:`RequestValidationError` carrying one structured
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
import re
from dataclasses import replace

from repro.arch.machine import ENGINES
from repro.arch.widths import SLICE_WIDTHS
from repro.core.pipeline import PRESETS, CompilerConfig, resolve_config
from repro.dse.space import OP_SETS, SpecPoint
from repro.profiler.selection import SQUEEZABLE_BINOPS

#: bump when the report document layout changes — invalidates cached reports
REPORT_SCHEMA = 1

HEURISTICS = ("max", "avg", "min")

_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

MAX_SOURCE_BYTES = 256 * 1024
MAX_INPUT_GLOBALS = 64
MAX_INPUT_VALUES = 4096

#: sweepable knob defaults (mirrors :class:`repro.dse.space.SpecPoint`
#: plus the two compile-mode fields serve adds on top)
_KNOB_DEFAULTS = {
    "slice_width": 8,
    "heuristic": "max",
    "squeeze_ops": "all",
    "min_hotness": 0.0,
    "confidence_margin": 0,
    "dts": False,
    "dts_alpha": 1.3,
    "dts_bitwidth_aware": False,
    "l1_kb": 8,
    "l1_ways": 4,
    "l2_kb": 256,
    "l2_ways": 8,
    "max_spec_regions": 0,
}

#: machine-readable schema document, served at ``GET /v1/schema`` and
#: mirrored prose-side in docs/serve.md
REQUEST_SCHEMA = {
    "schema": REPORT_SCHEMA,
    "type": "object",
    "required": ["source"],
    "properties": {
        "tenant": {
            "type": "string",
            "pattern": _TENANT_RE.pattern,
            "default": "anonymous",
        },
        "source": {
            "type": "string",
            "description": "MiniC program text (must define main)",
            "maxBytes": MAX_SOURCE_BYTES,
        },
        "engine": {
            "enum": list(ENGINES),
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
            "properties": {
                "preset": {"enum": list(PRESETS)},
                "strict": {"type": "boolean", "default": False},
                "slice_width": {"enum": sorted(SLICE_WIDTHS)},
                "heuristic": {"enum": list(HEURISTICS)},
                "squeeze_ops": {
                    "oneOf": [
                        {"enum": sorted(OP_SETS)},
                        {"type": "array", "items": {"enum": sorted(SQUEEZABLE_BINOPS)}},
                    ]
                },
                "min_hotness": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                "confidence_margin": {"type": "integer", "minimum": 0, "maximum": 31},
                "dts": {"type": "boolean"},
                "dts_alpha": {"type": "number", "minimum": 1.0, "maximum": 3.0},
                "dts_bitwidth_aware": {"type": "boolean"},
                "l1_kb": {"type": "integer", "minimum": 1},
                "l1_ways": {"type": "integer", "minimum": 1},
                "l2_kb": {"type": "integer", "minimum": 1},
                "l2_ways": {"type": "integer", "minimum": 1},
                "max_spec_regions": {"type": "integer", "minimum": 0},
            },
        },
        "inputs": {
            "type": "object",
            "description": "global-name → int | [int] bindings",
            "properties": {
                "profile": {"type": "object"},
                "run": {"type": "object"},
            },
        },
        "report": {
            "type": "object",
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


def _err(errors: list, path: str, message: str) -> None:
    errors.append({"path": path, "message": message})


def _validate_inputs(section, path: str, errors: list) -> dict:
    if not isinstance(section, dict):
        _err(errors, path, f"expected an object, got {type(section).__name__}")
        return {}
    if len(section) > MAX_INPUT_GLOBALS:
        _err(errors, path, f"more than {MAX_INPUT_GLOBALS} input globals")
        return {}
    out = {}
    for name in sorted(section, key=str):
        value = section[name]
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            _err(errors, f"{path}.{name}", "not a valid global identifier")
            continue
        values = value if isinstance(value, list) else [value]
        if len(values) > MAX_INPUT_VALUES:
            _err(errors, f"{path}.{name}", f"more than {MAX_INPUT_VALUES} values")
            continue
        bad = [
            v for v in values
            if not isinstance(v, int) or isinstance(v, bool)
            or not (-(1 << 64) < v < (1 << 64))
        ]
        if bad:
            _err(
                errors,
                f"{path}.{name}",
                f"values must be integers with |v| < 2**64, got {bad[0]!r}",
            )
            continue
        out[name] = value if isinstance(value, list) else value
    return out


def _validate_config(section, errors: list) -> dict:
    path = "config"
    if not isinstance(section, dict):
        _err(errors, path, f"expected an object, got {type(section).__name__}")
        return {"preset": "bitspec-max", "strict": False}
    strict = section.get("strict", False)
    if not isinstance(strict, bool):
        _err(errors, f"{path}.strict", "expected a boolean")
        strict = False
    extra = set(section) - {"preset", "strict"} - set(_KNOB_DEFAULTS)
    if extra:
        _err(errors, path, f"unknown knobs: {sorted(extra)}")
    if "preset" in section:
        knobs = set(section) & set(_KNOB_DEFAULTS)
        if knobs:
            _err(
                errors,
                path,
                f"'preset' and explicit knobs are mutually exclusive "
                f"(got knobs {sorted(knobs)})",
            )
        preset = section["preset"]
        if not isinstance(preset, str) or preset not in PRESETS:
            _err(
                errors,
                f"{path}.preset",
                f"unknown preset {preset!r}; valid: {', '.join(PRESETS)}",
            )
            preset = "bitspec-max"
        return {"preset": preset, "strict": strict}

    knobs = dict(_KNOB_DEFAULTS)
    for knob in sorted(set(section) & set(_KNOB_DEFAULTS)):
        value = section[knob]
        kpath = f"{path}.{knob}"
        default = _KNOB_DEFAULTS[knob]
        if knob == "slice_width":
            if value not in SLICE_WIDTHS:
                _err(errors, kpath, f"{value!r} is not one of {sorted(SLICE_WIDTHS)}")
                continue
        elif knob == "heuristic":
            if value not in HEURISTICS:
                _err(errors, kpath, f"{value!r} is not one of {list(HEURISTICS)}")
                continue
        elif knob == "squeeze_ops":
            if isinstance(value, str):
                if value not in OP_SETS:
                    _err(errors, kpath, f"{value!r} is not one of {sorted(OP_SETS)}")
                    continue
            elif isinstance(value, list):
                bad = [op for op in value if op not in SQUEEZABLE_BINOPS]
                if bad or not value:
                    _err(
                        errors,
                        kpath,
                        f"ops must be a non-empty subset of "
                        f"{sorted(SQUEEZABLE_BINOPS)}, got {value!r}",
                    )
                    continue
                value = sorted(set(value))
            else:
                _err(errors, kpath, "expected an op-set name or a list of ops")
                continue
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                _err(errors, kpath, "expected a boolean")
                continue
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _err(errors, kpath, "expected a number")
                continue
            value = float(value)
            lo, hi = (1.0, 3.0) if knob == "dts_alpha" else (0.0, 1.0)
            if not (lo <= value <= hi):
                _err(errors, kpath, f"{value!r} outside [{lo}, {hi}]")
                continue
        else:  # int knobs
            if isinstance(value, bool) or not isinstance(value, int):
                _err(errors, kpath, "expected an integer")
                continue
            zero_ok = knob in ("max_spec_regions", "confidence_margin")
            if value < 0 or (not zero_ok and value < 1):
                _err(errors, kpath, f"{value!r} out of range")
                continue
            if knob == "confidence_margin" and value > 31:
                _err(errors, kpath, f"{value!r} out of range (0..31)")
                continue
        knobs[knob] = value
    knobs["strict"] = strict
    # cache geometry and knob interactions are validated by the config
    # dataclass itself — surface its complaint under the config path
    try:
        build_config(knobs)
    except RequestValidationError:
        raise
    except Exception as exc:
        _err(errors, path, str(exc))
    return knobs


def validate_request(doc) -> dict:
    """Validate ``doc`` and return its canonical form.

    Raises :class:`RequestValidationError` with every problem found (not
    just the first) so a client can fix a bad document in one round trip.
    """
    errors: list = []
    if not isinstance(doc, dict):
        raise RequestValidationError(
            [{"path": "$", "message": "request body must be a JSON object"}]
        )
    unknown = set(doc) - {"tenant", "source", "engine", "config", "inputs", "report"}
    if unknown:
        _err(errors, "$", f"unknown fields: {sorted(unknown)}")

    engine = doc.get("engine")
    if engine is not None and engine not in ENGINES:
        _err(
            errors,
            "engine",
            f"unknown engine {engine!r}; valid: {', '.join(ENGINES)}",
        )
        engine = None

    tenant = doc.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        _err(errors, "tenant", "must match " + _TENANT_RE.pattern)
        tenant = "anonymous"

    source = doc.get("source")
    if not isinstance(source, str) or not source.strip():
        _err(errors, "source", "required: non-empty MiniC source text")
        source = ""
    elif len(source.encode()) > MAX_SOURCE_BYTES:
        _err(errors, "source", f"exceeds {MAX_SOURCE_BYTES} bytes")

    config = _validate_config(doc.get("config", {"preset": "bitspec-max"}), errors)

    inputs_doc = doc.get("inputs", {})
    if not isinstance(inputs_doc, dict):
        _err(errors, "inputs", "expected an object with 'profile'/'run'")
        inputs_doc = {}
    stray = set(inputs_doc) - {"profile", "run"}
    if stray:
        _err(errors, "inputs", f"unknown sections: {sorted(stray)}")
    profile = _validate_inputs(inputs_doc.get("profile", {}), "inputs.profile", errors)
    run = _validate_inputs(inputs_doc.get("run", {}), "inputs.run", errors)

    report_doc = doc.get("report", {})
    if not isinstance(report_doc, dict):
        _err(errors, "report", "expected an object")
        report_doc = {}
    stray = set(report_doc) - {"attribution", "pareto", "top"}
    if stray:
        _err(errors, "report", f"unknown options: {sorted(stray)}")
    attribution = report_doc.get("attribution", True)
    pareto = report_doc.get("pareto", True)
    top = report_doc.get("top", 10)
    if not isinstance(attribution, bool):
        _err(errors, "report.attribution", "expected a boolean")
        attribution = True
    if not isinstance(pareto, bool):
        _err(errors, "report.pareto", "expected a boolean")
        pareto = True
    if isinstance(top, bool) or not isinstance(top, int) or not (1 <= top <= 100):
        _err(errors, "report.top", "expected an integer in 1..100")
        top = 10

    if errors:
        raise RequestValidationError(errors)
    return {
        "tenant": tenant,
        "source": source,
        "engine": engine,
        "config": config,
        "inputs": {"profile": profile, "run": run},
        "report": {"attribution": attribution, "pareto": pareto, "top": top},
    }


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
    adds a committed-state cross-check without touching the body, so all
    four spellings must hash to the same key and share one cache entry.
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
