"""Golden request corpus: what ``validate_request`` accepts and refuses.

``tests/golden/serve_requests.json`` pins the serve request contract on a
seeded corpus of request documents: a few load-test traffic documents
(:func:`repro.serve.loadtest.build_traffic`) as bases, and per case a list
of edits applied to one base — engine and report spellings, explicit knob
spellings, and malformed values at every path of the document.  Each case
records either

* ``key`` and ``canonical`` — the :func:`request_key` and the SHA-256
  (first 16 hex digits) of the canonical form's canonical JSON, or
* ``errors`` — the sorted set of error paths the rejection names.

So a change to how requests are validated (not what is accepted) keeps
every entry; a change to the contract shows up as a named case.
Regenerate intentionally with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_serve_requests.py

and review the JSON diff like any other code change.
"""

import copy
import hashlib
import json
import os
import random
from pathlib import Path

from repro.core.documents import canonical_json
from repro.core.pipeline import PRESETS
from repro.serve.schema import RequestValidationError, request_key, validate_request

GOLDEN = Path(__file__).parent / "golden" / "serve_requests.json"

#: one value per kind a JSON document can carry, plus the edge values of
#: every limit the contract states
VALUE_POOL = (
    None, True, False, 0, 1, -1, 2, 3, 7, 8, 31, 32, 64, 100, 101,
    2**63, 2**64 - 1, 2**64, -(2**64) + 1, -(2**64),
    0.0, 0.5, 1.0, 1.3, 2, 3.0, 3.5, -0.1, 8.0, 1e300,
    "", " ", "\n", "x", "max", "avg", "all", "arith", "noshift",
    "bitspec-max", "baseline", "thumb", "legacy", "fast", "compiled",
    "ooo", "warp", "alice", "a b", "a" * 65, "u32 x;\nvoid main() { }\n",
    [], [1, 2], [2**64], [True], ["add"], ["xor", "add", "add"], ["mul"], [""],
    {}, {"a": 1}, {"profile": {}}, {"preset": "baseline"},
)

KNOB_VALUES = {
    "slice_width": (4, 8, 16, 32),
    "heuristic": ("max", "avg", "min"),
    "squeeze_ops": ("all", "noshift", "arith", "logic", ["sub", "add"],
                    ["xor", "shl", "xor"], ["lshr"]),
    "min_hotness": (0, 0.0, 0.25, 1, 1.0),
    "confidence_margin": (0, 1, 3, 31),
    "dts": (True, False),
    "dts_alpha": (1, 1.0, 1.3, 2, 3.0),
    "dts_bitwidth_aware": (True, False),
    "l1_kb": (1, 2, 4, 8, 16, 3),
    "l1_ways": (1, 2, 4, 8, 3),
    "l2_kb": (64, 128, 256, 100),
    "l2_ways": (1, 4, 8, 16),
    "max_spec_regions": (0, 1, 5),
    "strict": (True, False),
}

#: every path of a request document an edit may target
PATHS = (
    ["tenant"], ["source"], ["engine"], ["config"], ["inputs"], ["report"],
    ["surprise"],
    ["config", "preset"], ["config", "strict"], ["config", "bogus_knob"],
    *(["config", knob] for knob in KNOB_VALUES if knob != "strict"),
    ["inputs", "profile"], ["inputs", "run"], ["inputs", "extra"],
    ["inputs", "profile", "g_new"], ["inputs", "run", "g_new"],
    ["inputs", "profile", "1bad"], ["inputs", "run", "a-b"],
    ["inputs", "run", ""], ["inputs", "profile", "_ok"],
    ["report", "attribution"], ["report", "pareto"], ["report", "top"],
    ["report", "verbose"],
)


def apply_edits(doc, edits):
    """``doc`` with ``edits`` applied: ``["set", path, value]`` binds a
    value (creating intermediate objects), ``["drop", path]`` removes a
    key, and an empty path replaces the whole document."""
    doc = copy.deepcopy(doc)
    for op, path, *value in edits:
        if not path:
            doc = copy.deepcopy(value[0])
            continue
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if op == "set":
            parent[path[-1]] = copy.deepcopy(value[0])
        else:
            parent.pop(path[-1], None)
    return doc


def expected(doc) -> dict:
    """What validation makes of ``doc``: its key and canonical digest, or
    its sorted error paths."""
    try:
        canonical = validate_request(doc)
    except RequestValidationError as exc:
        return {"errors": sorted({e["path"] for e in exc.errors})}
    blob = canonical_json(canonical).encode()
    return {
        "key": request_key(canonical),
        "canonical": hashlib.sha256(blob).hexdigest()[:16],
    }


#: cache geometry knobs: the corpus draws no integer above the schema's
#: 4096 KiB cap for these, so the recorded documents keep their cases
CACHE_KNOBS = ("l1_kb", "l1_ways", "l2_kb", "l2_ways")


def _pool_value(rng, path):
    while True:
        value = rng.choice(VALUE_POOL)
        huge = isinstance(value, int) and abs(value) > 4096
        if not (path[-1] in CACHE_KNOBS and huge):
            return value


def _knob_config(rng) -> dict:
    names = rng.sample(sorted(KNOB_VALUES), rng.randint(0, len(KNOB_VALUES)))
    return {name: rng.choice(KNOB_VALUES[name]) for name in names}


def _bad_bindings() -> list:
    """Documents that break one input limit each."""
    many = {f"g{i}": 0 for i in range(65)}
    long = [0] * 4097
    return [
        ["set", ["inputs", "profile"], many],
        ["set", ["inputs", "run", "g_long"], long],
        ["set", ["inputs", "run", "g_edge"], [2**64 - 1, -(2**64) + 1]],
        ["set", ["inputs", "profile", "g_big"], [0, 2**64]],
        ["set", ["inputs", "profile", "g_neg"], -(2**64)],
        ["set", ["inputs", "run", "9lives"], 1],
        ["set", ["inputs", "run", "g_bool"], [1, False]],
        ["set", ["inputs", "run", "g_float"], 1.0],
    ]


def build_corpus(seed: int = 0, bases: int = 6, mutations: int = 1100):
    """The seeded corpus: ``(base documents, [(base index, edits)])``."""
    from repro.serve.loadtest import build_traffic

    docs = build_traffic(bases, seed)
    rng = random.Random(seed)
    cases = [(i, []) for i in range(bases)]
    for i in range(bases):
        # the retired 'compiled' spelling stays, now as a rejection
        for engine in (None, "legacy", "fast", "compiled", "ooo"):
            cases.append((i, [["set", ["engine"], engine]]))
        cases.append((i, [["drop", ["report"]], ["drop", ["inputs"]], ["drop", ["tenant"]]]))
        cases.append((i, [["drop", ["config"]]]))
        cases.append((i, [["set", ["report"], {"top": rng.randint(1, 100), "pareto": False}]]))
    for preset in PRESETS:
        cases.append((rng.randrange(bases), [["set", ["config"], {"preset": preset}]]))
        strict = {"preset": preset, "strict": True}
        cases.append((rng.randrange(bases), [["set", ["config"], strict]]))
    for edit in _bad_bindings():
        cases.append((rng.randrange(bases), [edit]))
    for value in ([], "x", None, 1, [{"source": "x"}]):
        cases.append((0, [["set", [], value]]))
    # explicit knob spellings: every knob alone, then random subsets
    for name in KNOB_VALUES:
        for value in KNOB_VALUES[name]:
            cases.append((rng.randrange(bases), [["set", ["config"], {name: value}]]))
    for _ in range(150):
        cases.append((rng.randrange(bases), [["set", ["config"], _knob_config(rng)]]))
    # malformed (and sometimes well-formed) values at every path
    for _ in range(mutations):
        edits = []
        if rng.random() < 0.5:
            edits.append(["set", ["config"], _knob_config(rng)])
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            path = rng.choice(PATHS)
            if rng.random() < 0.15:
                edits.append(["drop", path])
            elif path[0] == "config" and path[-1] in KNOB_VALUES and rng.random() < 0.3:
                edits.append(["set", path, rng.choice(KNOB_VALUES[path[1]])])
            else:
                edits.append(["set", path, _pool_value(rng, path)])
        cases.append((rng.randrange(bases), edits))
    return docs, cases


def _record() -> dict:
    docs, cases = build_corpus()
    entries = [
        {"base": base, "edits": edits, **expected(apply_edits(docs[base], edits))}
        for base, edits in cases
    ]
    return {"bases": docs, "cases": entries}


def _load() -> dict:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(_record(), sort_keys=True, separators=(",", ":")) + "\n")
    return json.loads(GOLDEN.read_text())


def test_golden_request_corpus():
    golden = _load()
    cases = golden["cases"]
    assert len(cases) >= 1000
    assert any("key" in case for case in cases) and any("errors" in case for case in cases)
    drift = []
    for index, case in enumerate(cases):
        doc = apply_edits(golden["bases"][case["base"]], case["edits"])
        want = {k: case[k] for k in ("key", "canonical", "errors") if k in case}
        got = expected(doc)
        if got != want:
            drift.append(f"case {index} {case['edits']!r}: want {want}, got {got}")
    assert not drift, f"{len(drift)} cases drifted:\n" + "\n".join(drift[:20])
