"""Tests for repro.serve: schema, quotas, coalescing, byte-identity.

The server tests run the full asyncio stack (real sockets on an
ephemeral port) but in ``workers=0`` inline mode, so no worker processes
are spawned and the suite stays fast.  Each async scenario is a plain
sync test wrapping ``asyncio.run`` — no pytest-asyncio dependency.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.arch.cache import CacheGeometry
from repro.arch.machine import ENGINES
from repro.core.documents import canonical_json
from repro.dse.space import SpecPoint
from repro.serve.client import http_request, submit_report
from repro.serve.report import execute_request
from repro.serve.schema import (
    REQUEST_SCHEMA,
    RequestValidationError,
    build_config,
    request_key,
    validate_request,
)
from repro.serve.server import ERROR_CODES, ReproServer, ServeConfig, canonical_body

GOOD_SOURCE = """u32 in0;
u32 acc;

void main()
{
    acc = (in0 * 3) + 7;
    out(((u32)acc));
}
"""

BAD_SOURCE = "int main() { return 0; }\n"  # not MiniC: parse error


def good_doc(**overrides):
    doc = {
        "tenant": "alice",
        "source": GOOD_SOURCE,
        "config": {"preset": "bitspec-max"},
        "inputs": {"profile": {"in0": 5, "acc": 0}, "run": {"in0": 9, "acc": 0}},
        "report": {"attribution": True, "pareto": False},
    }
    doc.update(overrides)
    return doc


def serve_config(tmp_path, **overrides):
    defaults = dict(
        port=0,
        workers=0,
        cache_dir=str(tmp_path / "cache"),
        quota_capacity=0.0,  # quotas off unless a test turns them on
        max_queue=8,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _with_server(config, body, *, clock=None):
    server = ReproServer(config, clock=clock)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


# -- schema / request key ------------------------------------------------------


class TestSchema:
    def test_valid_document_canonicalizes(self):
        canonical = validate_request(good_doc())
        assert canonical["tenant"] == "alice"
        assert canonical["config"]["preset"] == "bitspec-max"
        assert canonical["report"]["top"] == 10  # default applied

    def test_missing_source_collects_error_path(self):
        doc = good_doc()
        del doc["source"]
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(doc)
        assert any(e["path"] == "source" for e in excinfo.value.errors)

    def test_multiple_errors_reported_together(self):
        doc = good_doc(tenant="bad tenant!", config={"preset": "no-such"})
        doc["report"] = {"top": 0}
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(doc)
        paths = {e["path"] for e in excinfo.value.errors}
        assert {"tenant", "config.preset", "report.top"} <= paths

    @pytest.mark.parametrize("preset", [["bitspec-max"], {"a": 1}, 7, "BITSPEC"])
    def test_non_preset_spellings_rejected(self, preset):
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(good_doc(config={"preset": preset}))
        assert [e["path"] for e in excinfo.value.errors] == ["config.preset"]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(RequestValidationError):
            validate_request(good_doc(surprise=1))

    def test_non_integer_inputs_rejected(self):
        doc = good_doc()
        doc["inputs"] = {"profile": {"in0": "five"}, "run": {}}
        with pytest.raises(RequestValidationError):
            validate_request(doc)

    def test_key_excludes_tenant(self):
        a = validate_request(good_doc(tenant="alice"))
        b = validate_request(good_doc(tenant="bob"))
        assert request_key(a) == request_key(b)

    def test_key_excludes_engine_spelling(self):
        keys = {
            request_key(validate_request(good_doc(engine=engine)))
            for engine in ENGINES
        }
        keys.add(request_key(validate_request(good_doc())))
        assert len(keys) == 1

    def test_unknown_engine_rejected(self):
        # the retired 'compiled' spelling is as unknown as a typo
        for engine in ("warp", "compiled"):
            with pytest.raises(RequestValidationError) as excinfo:
                validate_request(good_doc(engine=engine))
            assert [e["path"] for e in excinfo.value.errors] == ["engine"]
            assert str([None, *ENGINES]) in excinfo.value.errors[0]["message"]

    def test_key_dedupes_preset_and_knob_spellings(self):
        # the knob defaults ARE bitspec-max, so the fully-spelled-out
        # document must content-address to the same key as the preset
        preset = validate_request(good_doc())
        knobs = good_doc()
        knobs["config"] = {
            "slice_width": 8,
            "heuristic": "max",
            "squeeze_ops": "all",
            "min_hotness": 0.0,
            "confidence_margin": 0,
            "dts": False,
        }
        assert request_key(validate_request(knobs)) == request_key(preset)
        # the resolved configs are semantically identical (squeeze_ops is
        # a set; spelling order must not split the address)
        preset_cfg = build_config(preset["config"])
        knob_cfg = build_config(validate_request(knobs)["config"])
        assert set(preset_cfg.squeeze_ops) == set(knob_cfg.squeeze_ops)

    def test_key_differs_across_configs(self):
        a = validate_request(good_doc(config={"preset": "bitspec-max"}))
        b = validate_request(good_doc(config={"preset": "baseline"}))
        assert request_key(a) != request_key(b)

    def test_explicit_null_engine_accepted(self):
        canonical = validate_request(good_doc(engine=None))
        assert canonical["engine"] is None
        assert request_key(canonical) == request_key(validate_request(good_doc()))

    def test_schema_knobs_are_specpoint_fields(self):
        """A knob added to SpecPoint without a schema entry fails here."""
        knobs = set(REQUEST_SCHEMA["properties"]["config"]["properties"])
        spec = {f.name for f in dataclasses.fields(SpecPoint)}
        assert knobs == spec | {"preset", "strict", "max_spec_regions"}

    def test_schema_states_knob_defaults(self):
        """The all-defaults knob spelling is SpecPoint's default point."""
        props = REQUEST_SCHEMA["properties"]["config"]["properties"]
        point = SpecPoint().as_dict()
        point["squeeze_ops"] = "all"
        assert {k: props[k]["default"] for k in point} == point
        assert validate_request(good_doc(config={}))["config"] == {
            **point, "strict": False, "max_spec_regions": 0,
        }

    @pytest.mark.parametrize(
        "inputs, path, keyword, limit",
        [
            ({f"g{i}": 0 for i in range(65)}, "inputs.profile", "maxProperties", 64),
            ({"g": [0] * 4097}, "inputs.profile.g", "maxItems", 4096),
            ({"g": 1 << 64}, "inputs.profile.g", "exclusiveMaximum", 1 << 64),
            ({"g": [0, -(1 << 64)]}, "inputs.profile.g", "exclusiveMinimum", -(1 << 64)),
            ({"2g": 0}, "inputs.profile.2g", "pattern", r"^[A-Za-z_][A-Za-z0-9_]*$"),
        ],
        ids=["globals", "values", "max", "min", "name"],
    )
    def test_input_limits_rejected_and_stated(self, inputs, path, keyword, limit):
        doc = good_doc()
        doc["inputs"] = {"profile": inputs}
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(doc)
        assert [e["path"] for e in excinfo.value.errors] == [path]
        assert str(limit) in excinfo.value.errors[0]["message"]
        # GET /v1/schema serves the limit the rejection names
        served = json.loads(json.dumps(REQUEST_SCHEMA))
        bindings = served["properties"]["inputs"]["properties"]["profile"]
        value = bindings["additionalProperties"]["oneOf"]
        stated = [bindings, bindings["propertyNames"], *value, value[1]["items"]]
        assert any(node.get(keyword) == limit for node in stated)

    def test_limits_at_the_edge_accepted(self):
        doc = good_doc()
        doc["inputs"] = {
            "profile": {f"g{i}": (1 << 64) - 1 for i in range(64)},
            "run": {"in0": [-(1 << 64) + 1] * 4096},
        }
        canonical = validate_request(doc)
        assert len(canonical["inputs"]["profile"]) == 64

    @pytest.mark.parametrize(
        "source", ["", "  \n\t", "x" * (256 * 1024 + 1)], ids=["empty", "blank", "long"]
    )
    def test_source_limits(self, source):
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(good_doc(source=source))
        assert [e["path"] for e in excinfo.value.errors] == ["source"]

    @pytest.mark.parametrize("ops", [[], [["add"]], [{"op": "add"}], ["add", "mul"]])
    def test_bad_op_lists_are_rejected_not_raised(self, ops):
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(good_doc(config={"squeeze_ops": ops}))
        assert [e["path"] for e in excinfo.value.errors] == ["config.squeeze_ops"]

    def test_op_list_canonicalizes_sorted_unique(self):
        canonical = validate_request(good_doc(config={"squeeze_ops": ["xor", "add", "xor"]}))
        assert canonical["config"]["squeeze_ops"] == ["add", "xor"]

    def test_preset_refuses_knobs_without_judging_them(self):
        doc = good_doc(config={"preset": "baseline", "l1_kb": "not-a-size"})
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(doc)
        assert [e["path"] for e in excinfo.value.errors] == ["config"]
        assert "mutually exclusive" in excinfo.value.errors[0]["message"]

    def test_geometry_checked_by_config(self):
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(good_doc(config={"l1_kb": 3}))
        assert [e["path"] for e in excinfo.value.errors] == ["config"]

    @pytest.mark.parametrize("knob", ["l1_kb", "l2_kb"])
    def test_cache_sizes_bounded_before_any_cache_is_built(self, knob, monkeypatch):
        """A huge power-of-two size is refused at its own path by the
        schema, and a buildable one is checked by arithmetic alone."""
        import repro.arch.cache as cache

        def no_cache(*args, **kwargs):
            raise AssertionError("validation built a cache")

        monkeypatch.setattr(cache, "Cache", no_cache)
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(good_doc(config={knob: 1 << 62}))
        assert [e["path"] for e in excinfo.value.errors] == [f"config.{knob}"]
        stated = REQUEST_SCHEMA["properties"]["config"]["properties"][knob]
        assert str(stated["maximum"]) in excinfo.value.errors[0]["message"]
        assert validate_request(good_doc(config={knob: stated["maximum"]}))
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(**{knob: 12}).validate()

    def test_lone_surrogate_in_source_is_a_validation_error(self):
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(json.loads('{"source": "u32 x;\\ud800"}'))
        assert [e["path"] for e in excinfo.value.errors] == ["source"]

    def test_integral_float_knob_names_the_int_point(self):
        as_float = validate_request(good_doc(config={"slice_width": 8.0}))
        as_int = validate_request(good_doc(config={"slice_width": 8}))
        assert request_key(as_float) == request_key(as_int)
        assert canonical_json(as_float) == canonical_json(as_int)


# -- pure execution ------------------------------------------------------------


class TestExecuteRequest:
    def test_report_sections(self):
        canonical = validate_request(good_doc())
        envelope = execute_request(canonical, request_key(canonical))
        assert envelope["status"] == 200 and envelope["cacheable"]
        body = envelope["body"]
        assert body["result"]["output"] == [9 * 3 + 7]
        assert body["result"]["energy_total_pj"] > 0
        assert body["compile"]["isa"]
        assert "by_variable" in body["attribution"]
        assert body["attribution"]["conservation"] == "ok"

    def test_compile_error_is_cacheable_422(self):
        canonical = validate_request(good_doc(source=BAD_SOURCE))
        envelope = execute_request(canonical, request_key(canonical))
        assert envelope["status"] == 422 and envelope["cacheable"]
        error = envelope["body"]["error"]
        assert error["code"] == "compile-error"
        assert error["diagnostics"]

    def test_unknown_global_is_input_error(self):
        doc = good_doc()
        doc["inputs"]["run"] = {"nope": 1}
        canonical = validate_request(doc)
        envelope = execute_request(canonical, request_key(canonical))
        assert envelope["status"] == 422
        assert envelope["body"]["error"]["code"] == "input-error"

    def test_pareto_section_positions_request(self):
        doc = good_doc()
        doc["report"]["pareto"] = True
        canonical = validate_request(doc)
        envelope = execute_request(canonical, request_key(canonical))
        pareto = envelope["body"]["pareto"]
        assert len(pareto["grid"]) == 4  # the DSE smoke grid
        assert isinstance(pareto["position"]["on_front"], bool)

    def test_byte_identical_re_execution(self):
        canonical = validate_request(good_doc())
        key = request_key(canonical)
        first = canonical_body(execute_request(canonical, key)["body"])
        second = canonical_body(execute_request(canonical, key)["body"])
        assert first == second

    def test_envelope_byte_identical_across_engines(self):
        # every engine spelling shares one request key and must produce
        # byte-identical report bodies; 'ooo' additionally runs the live
        # committed-state cross-check, which must pass silently
        reference = validate_request(good_doc())
        key = request_key(reference)
        expected = canonical_body(execute_request(reference, key)["body"])
        for engine in ENGINES:
            canonical = validate_request(good_doc(engine=engine))
            envelope = execute_request(canonical, key)
            assert envelope["status"] == 200, engine
            assert canonical_body(envelope["body"]) == expected, engine

    def test_body_byte_identical_across_engines_without_attribution(self):
        # without attribution no engine spelling needs a per-pc sample;
        # 'legacy' then runs the interpreter and 'ooo' still runs in order
        report = {"attribution": False, "pareto": False}
        reference = validate_request(good_doc(report=report))
        key = request_key(reference)
        expected = canonical_body(execute_request(reference, key)["body"])
        for engine in ENGINES:
            canonical = validate_request(good_doc(engine=engine, report=report))
            envelope = execute_request(canonical, key)
            assert envelope["status"] == 200, engine
            assert canonical_body(envelope["body"]) == expected, engine


# -- the server ----------------------------------------------------------------


class TestServer:
    def test_submit_cache_and_coalescing(self, tmp_path):
        async def scenario(server):
            cold = await server.submit(good_doc())
            assert cold["status"] == 200 and cold["source"] == "executed"
            warm = await server.submit(good_doc())
            assert warm["source"] == "cache"
            assert canonical_body(warm["body"]) == canonical_body(cold["body"])

            # distinct tenants share the storage tier
            other = await server.submit(good_doc(tenant="bob"))
            assert other["source"] == "cache"

            assert server.stats.executed == 1
            assert server.stats.cache_hits == 2
            return cold

        asyncio.run(_with_server(serve_config(tmp_path), scenario))

    def test_n_identical_concurrent_submits_execute_once(self, tmp_path):
        async def scenario(server):
            results = await asyncio.gather(
                *(server.submit(good_doc()) for _ in range(8))
            )
            bodies = {canonical_body(r["body"]) for r in results}
            assert len(bodies) == 1
            assert all(r["status"] == 200 for r in results)
            assert server.stats.executed == 1
            assert server.stats.coalesced == 7

        asyncio.run(_with_server(serve_config(tmp_path), scenario))

    def test_byte_identical_across_restart(self, tmp_path):
        config = serve_config(tmp_path)

        async def first(server):
            return await server.submit(good_doc())

        async def second(server):
            envelope = await server.submit(good_doc())
            assert envelope["source"] == "cache"
            assert server.stats.executed == 0
            return envelope

        cold = asyncio.run(_with_server(config, first))
        warm = asyncio.run(_with_server(config, second))
        assert canonical_body(cold["body"]) == canonical_body(warm["body"])

    def test_validation_rejection_is_structured(self, tmp_path):
        async def scenario(server):
            envelope = await server.submit({"config": {"preset": "bitspec-max"}})
            assert envelope["status"] == 400
            assert envelope["body"]["error"]["code"] == "invalid-request"
            assert envelope["body"]["error"]["details"]
            assert server.stats.validation_rejections == 1

        asyncio.run(_with_server(serve_config(tmp_path), scenario))

    def test_quota_429_then_refill(self, tmp_path):
        now = [0.0]
        config = serve_config(tmp_path, quota_capacity=2.0, quota_refill=1.0)

        async def scenario(server):
            assert (await server.submit(good_doc()))["status"] == 200
            assert (await server.submit(good_doc()))["status"] == 200
            third = await server.submit(good_doc())
            assert third["status"] == 429
            error = third["body"]["error"]
            assert error["code"] == "quota-exceeded"
            assert error["retry_after_seconds"] > 0

            # quotas are per tenant: bob is unaffected by alice's burn
            assert (await server.submit(good_doc(tenant="bob")))["status"] == 200

            now[0] += 5.0  # refill alice's bucket
            assert (await server.submit(good_doc()))["status"] == 200
            assert server.stats.quota_rejections == 1

        asyncio.run(_with_server(config, scenario, clock=lambda: now[0]))

    def test_backpressure_503_when_queue_full(self, tmp_path):
        config = serve_config(tmp_path, max_queue=0)

        async def scenario(server):
            envelope = await server.submit(good_doc())
            assert envelope["status"] == 503
            assert envelope["body"]["error"]["code"] == "queue-full"
            assert server.stats.backpressure_rejections == 1

        asyncio.run(_with_server(config, scenario))

    def test_cache_hits_bypass_backpressure(self, tmp_path):
        config = serve_config(tmp_path)

        async def warm_up(server):
            await server.submit(good_doc())

        async def saturated(server):
            server.config.max_queue = 0  # no new work accepted ...
            envelope = await server.submit(good_doc())
            assert envelope["status"] == 200  # ... but cached answers flow
            assert envelope["source"] == "cache"

        asyncio.run(_with_server(config, warm_up))
        asyncio.run(_with_server(config, saturated))


class TestHttp:
    def test_end_to_end_report_and_errors(self, tmp_path):
        async def scenario(server):
            port = server.port
            health = await http_request("127.0.0.1", port, "GET", "/healthz")
            assert health.status == 200

            cold = await submit_report("127.0.0.1", port, good_doc())
            assert cold.status == 200
            assert cold.headers["x-repro-source"] == "executed"
            assert cold.headers["x-repro-key"] == cold.json()["key"]

            warm = await submit_report("127.0.0.1", port, good_doc())
            assert warm.headers["x-repro-source"] == "cache"
            assert warm.body == cold.body  # the byte-identity contract

            bad = await http_request(
                "127.0.0.1", port, "POST", "/v1/reports", ["not", "a", "dict"]
            )
            assert bad.status == 400
            assert bad.json()["error"]["code"] == "invalid-request"

            missing = await http_request("127.0.0.1", port, "GET", "/v1/nope")
            assert missing.status == 404
            assert missing.json()["error"]["code"] == "not-found"

            wrong_verb = await http_request("127.0.0.1", port, "POST", "/healthz")
            assert wrong_verb.status == 405

            schema = await http_request("127.0.0.1", port, "GET", "/v1/schema")
            assert schema.status == 200 and "source" in schema.json()["properties"]
            # served as is: every limit validate_request enforces
            assert schema.json() == json.loads(json.dumps(REQUEST_SCHEMA))

            stats = await http_request("127.0.0.1", port, "GET", "/v1/stats")
            doc = stats.json()
            assert doc["executed"] == 1 and doc["cache_hits"] == 1
            return cold

        asyncio.run(_with_server(serve_config(tmp_path), scenario))

    def test_invalid_json_body_is_400(self, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            payload = b"{not json"
            writer.write(
                b"POST /v1/reports HTTP/1.1\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + payload
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            status = int(raw.split(None, 2)[1])
            body = json.loads(raw.split(b"\r\n\r\n", 1)[1].decode())
            assert status == 400
            assert body["error"]["code"] == "invalid-json"

        asyncio.run(_with_server(serve_config(tmp_path), scenario))

    def test_jobs_endpoint_lifecycle(self, tmp_path):
        async def scenario(server):
            port = server.port
            ticket = await http_request(
                "127.0.0.1", port, "POST", "/v1/jobs", good_doc()
            )
            assert ticket.status == 202
            job_id = ticket.json()["job_id"]
            assert len(job_id) == 64

            # resubmission is idempotent: the same content address comes back
            again = await http_request(
                "127.0.0.1", port, "POST", "/v1/jobs", good_doc()
            )
            assert again.json()["job_id"] == job_id

            for _ in range(200):
                status = await http_request(
                    "127.0.0.1", port, "GET", f"/v1/jobs/{job_id}"
                )
                if status.json()["status"] == "done":
                    break
                await asyncio.sleep(0.05)
            assert status.json()["status"] == "done"

            report = await http_request(
                "127.0.0.1", port, "GET", f"/v1/jobs/{job_id}/report"
            )
            assert report.status == 200
            assert report.json()["key"] == job_id

            ghost = await http_request(
                "127.0.0.1", port, "GET", "/v1/jobs/" + "0" * 64
            )
            assert ghost.status == 404
            assert ghost.json()["error"]["code"] == "job-not-found"

        asyncio.run(_with_server(serve_config(tmp_path), scenario))


def test_error_codes_map_to_valid_statuses():
    for code, status in ERROR_CODES.items():
        assert 400 <= status <= 599, (code, status)
