"""Integration tests for pipeline tracing (golden trace shape).

A traced compile must export a Chrome trace whose per-pass spans agree
with the independently measured ``pass_timings``, whose per-block spans
match the program's CFG, and which survives the result round-trip and
the service envelope.
"""

import json

from repro.obs.trace import Tracer, use_tracer
from repro.service import CompileRequest, CompileService
from repro.toolchain import RetargetCache, Toolchain, default_registry


def _complete(trace):
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


def _spans_named(trace, name):
    return [e for e in _complete(trace) if e["name"] == name]


class TestGoldenTraceShape:
    def test_pass_spans_agree_with_pass_timings(self):
        session = Toolchain(cache=RetargetCache(directory=False)).session("demo")
        tracer = Tracer(name="test")
        result = session.compile_program(_kernel("fir_loop"), tracer=tracer)
        trace = result.trace
        assert trace is not None
        events = _complete(trace)
        assert _spans_named(trace, "compile"), "missing root compile span"
        for name, seconds in result.pass_timings.items():
            spans = _spans_named(trace, "pass:%s" % name)
            assert len(spans) == 1, "expected one span for pass %r" % name
            span_s = spans[0]["dur"] / 1e6
            # the pass timing is measured just outside the span; allow
            # 10% + 2ms of slack for the span-bookkeeping delta
            assert abs(span_s - seconds) <= 0.10 * seconds + 0.002, (
                "pass %s: span %.6fs vs timing %.6fs" % (name, span_s, seconds)
            )
        # the root span covers every pass span
        root = _spans_named(trace, "compile")[0]
        for event in events:
            assert event["ts"] >= root["ts"] - 1
            assert event["ts"] + event["dur"] <= root["ts"] + root["dur"] + 1

    def test_per_block_spans_match_the_cfg(self):
        session = Toolchain(cache=RetargetCache(directory=False)).session("demo")
        tracer = Tracer(name="test")
        result = session.compile_program(_kernel("fir_loop"), tracer=tracer)
        select_blocks = _spans_named(result.trace, "select:block")
        schedule_blocks = _spans_named(result.trace, "schedule:block")
        assert len(select_blocks) >= 2, "loop kernel must select multiple blocks"
        assert len(select_blocks) == len(schedule_blocks)
        # every block span is parented under its pass span, whose own
        # "blocks" attribute counts them
        select_pass = _spans_named(result.trace, "pass:select")[0]
        assert select_pass["args"]["blocks"] == len(select_blocks)
        for span in select_blocks:
            assert span["args"]["parent_id"] == select_pass["args"]["span_id"]

    def test_pass_spans_carry_metric_attributes(self):
        session = Toolchain(cache=RetargetCache(directory=False)).session("demo")
        tracer = Tracer(name="test")
        result = session.compile_program(_kernel("fir"), tracer=tracer)
        select = _spans_named(result.trace, "pass:select")[0]
        assert select["args"]["nodes_labelled"] > 0
        assert 0.0 <= select["args"]["memo_hit_rate"] <= 1.0
        opt = _spans_named(result.trace, "pass:opt")[0]
        assert "nodes_before" in opt["args"]
        compact = _spans_named(result.trace, "pass:compact")[0]
        assert compact["args"]["words"] == result.code_size

    def test_retarget_phases_traced_on_cold_cache(self):
        tracer = Tracer(name="test")
        with use_tracer(tracer):
            Toolchain(cache=RetargetCache(directory=False)).session("demo")
        trace = tracer.to_chrome_trace()
        names = {e["name"] for e in _complete(trace)}
        for phase in (
            "retarget:hdl_frontend",
            "retarget:netlist",
            "retarget:extraction",
            "retarget:expansion",
            "retarget:grammar",
            "retarget:tables",
            "tables:build",
        ):
            assert phase in names, "missing %s (got %s)" % (phase, sorted(names))
        extraction = _spans_named(trace, "retarget:extraction")[0]
        assert extraction["args"]["templates"] > 0

    def test_retarget_cache_hits_and_misses_are_instants(self):
        cache = RetargetCache(directory=False)
        hdl = default_registry().hdl_source("demo")
        tracer = Tracer(name="test")
        with use_tracer(tracer):
            _result, hit_first = cache.get_or_retarget(hdl)
            _result, hit_second = cache.get_or_retarget(hdl)
        assert (hit_first, hit_second) == (False, True)
        trace = tracer.to_chrome_trace()
        instants = [
            e["name"] for e in trace["traceEvents"] if e.get("ph") == "i"
        ]
        assert instants.count("retarget_cache:miss") == 1
        assert instants.count("retarget_cache:hit") == 1

    def test_untraced_compile_has_no_trace(self):
        session = Toolchain(cache=RetargetCache(directory=False)).session("demo")
        result = session.compile_program(_kernel("fir"))
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestTraceRoundTrip:
    def test_result_round_trips_the_trace(self):
        from repro.toolchain.results import CompilationResult

        session = Toolchain(cache=RetargetCache(directory=False)).session("demo")
        result = session.compile_program(_kernel("fir"), tracer=Tracer(name="t"))
        data = json.loads(json.dumps(result.to_dict()))
        restored = CompilationResult.from_dict(data)
        assert restored.trace == result.trace
        assert restored.trace["traceEvents"]

    def test_service_embeds_the_trace_for_traced_requests(self):
        service = CompileService()
        traced = service.run(
            CompileRequest(
                target="demo", kernel="fir", request_id="rid-t", trace=True
            )
        )
        plain = service.run(
            CompileRequest(target="demo", kernel="fir", request_id="rid-p")
        )
        assert traced.ok and plain.ok
        assert traced.result.trace is not None
        assert traced.result.trace["otherData"]["request_id"] == "rid-t"
        envelope = traced.to_dict()
        assert envelope["result"]["trace"]["traceEvents"]
        assert plain.result.trace is None
        assert "trace" not in plain.to_dict()["result"]

    def test_trace_request_field_round_trips(self):
        request = CompileRequest.from_dict(
            {"target": "demo", "kernel": "fir", "trace": True}
        )
        assert request.trace is True
        assert request.to_dict()["trace"] is True
        assert (
            CompileRequest.from_dict({"target": "demo", "kernel": "fir"}).trace
            is False
        )


def _kernel(name):
    from repro.dspstone import kernel_program

    return kernel_program(name)
