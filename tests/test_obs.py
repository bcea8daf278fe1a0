"""Unit tests for the observability toolkit (repro.obs).

Covers the tracer/span core (nesting, attributes, Chrome trace export,
the disabled null tracer), request-ID context propagation, structured
logging (formats, destinations, ambient request IDs) and the shared
metrics registry primitives.
"""

import io
import json
import threading

import pytest

from repro.obs import log
from repro.obs.context import (
    current_request_id,
    new_request_id,
    set_request_id,
    use_request_id,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    format_labels,
    format_value,
)
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    flame_summary,
    use_tracer,
)


@pytest.fixture(autouse=True)
def _reset_log_config(monkeypatch):
    """Every test starts from the unconfigured, env-free logging state."""
    monkeypatch.delenv("REPRO_LOG", raising=False)
    monkeypatch.delenv("REPRO_LOG_FILE", raising=False)
    log.reset()
    yield
    log.reset()


# ---------------------------------------------------------------------------
# tracing core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_parent_links(self):
        tracer = Tracer(name="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_s is not None
        assert outer.duration_s >= inner.duration_s

    def test_span_attributes_via_kwargs_and_set(self):
        tracer = Tracer(name="t")
        with tracer.span("work", phase="select") as span:
            span.set(nodes=42, rate=0.5)
        assert span.attributes == {"phase": "select", "nodes": 42, "rate": 0.5}

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer(name="t")
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_instants_are_recorded(self):
        tracer = Tracer(name="t")
        tracer.instant("cache:hit", key="abc")
        trace = tracer.to_chrome_trace()
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "cache:hit"
        assert instants[0]["args"]["key"] == "abc"

    def test_chrome_trace_shape(self):
        tracer = Tracer(name="t", request_id="rid-1")
        with tracer.span("compile", target="demo"):
            with tracer.span("pass:select"):
                pass
        trace = tracer.to_chrome_trace(process_name="unit test")
        events = trace["traceEvents"]
        # JSON-serializable end to end
        json.dumps(trace)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["request_id"] == "rid-1"
        meta = [e for e in events if e.get("ph") == "M"]
        assert meta and meta[0]["name"] == "process_name"
        assert meta[0]["args"]["name"] == "unit test"
        complete = [e for e in events if e.get("ph") == "X"]
        assert {e["name"] for e in complete} == {"compile", "pass:select"}
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["args"]["request_id"] == "rid-1"
        by_name = {e["name"]: e for e in complete}
        assert (
            by_name["pass:select"]["args"]["parent_id"]
            == by_name["compile"]["args"]["span_id"]
        )

    def test_spans_survive_exceptions(self):
        tracer = Tracer(name="t")
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        spans = tracer.spans()
        assert [s.name for s in spans] == ["doomed"]
        assert spans[0].duration_s is not None

    def test_threads_get_independent_stacks(self):
        tracer = Tracer(name="t")
        done = threading.Event()

        def worker():
            with tracer.span("thread-span"):
                pass
            done.set()

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {s.name: s for s in tracer.spans()}
        # the thread's span must NOT be parented under the main thread's
        assert by_name["thread-span"].parent_id is None
        assert by_name["thread-span"].thread_id != by_name["main-span"].thread_id


class TestNullTracer:
    def test_ambient_default_is_disabled(self):
        tracer = current_tracer()
        assert tracer is NULL_TRACER
        assert not tracer.enabled

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
        NULL_TRACER.instant("y")
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.to_chrome_trace() == {"traceEvents": []}

    def test_use_tracer_restores_previous(self):
        tracer = Tracer(name="t")
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER


class TestFlameSummary:
    def test_children_render_under_their_parent(self):
        tracer = Tracer(name="t")
        with tracer.span("compile"):
            with tracer.span("pass:select"):
                with tracer.span("select:block"):
                    pass
            with tracer.span("pass:opt"):
                pass
        text = flame_summary(tracer.to_chrome_trace())
        lines = text.splitlines()
        assert "span" in lines[0] and "count" in lines[0]
        names = [line.split()[0] for line in lines[1:]]
        assert names[0] == "compile"
        # select:block appears directly after pass:select, indented deeper
        select_at = names.index("pass:select")
        assert names[select_at + 1] == "select:block"
        select_line = lines[1 + select_at]
        block_line = lines[1 + select_at + 1]
        indent = lambda s: len(s) - len(s.lstrip())  # noqa: E731
        assert indent(block_line) > indent(select_line) > indent(lines[1])

    def test_empty_trace_renders_a_placeholder(self):
        text = flame_summary({"traceEvents": []})
        assert "empty trace" in text


# ---------------------------------------------------------------------------
# request-ID context
# ---------------------------------------------------------------------------


class TestRequestIdContext:
    def test_new_request_ids_are_unique_hex(self):
        a, b = new_request_id(), new_request_id()
        assert a != b
        int(a, 16)  # valid hex
        assert len(a) == 32

    def test_use_request_id_scopes_the_ambient_value(self):
        assert current_request_id() is None
        with use_request_id("outer"):
            assert current_request_id() == "outer"
            with use_request_id("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"
        assert current_request_id() is None

    def test_use_request_id_none_clears_inside_block(self):
        with use_request_id("outer"):
            with use_request_id(None):
                assert current_request_id() is None
            assert current_request_id() == "outer"

    def test_set_request_id_is_unscoped(self):
        token_value = set_request_id("pinned")
        assert token_value is not None
        assert current_request_id() == "pinned"
        set_request_id(None)
        assert current_request_id() is None


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_off_by_default(self):
        stream = io.StringIO()
        log.configure(stream=stream)  # destination only; format stays off
        assert not log.enabled()
        log.info("nothing")
        assert stream.getvalue() == ""

    def test_json_records_are_one_line_each(self):
        stream = io.StringIO()
        log.configure(format="json", stream=stream)
        log.info("compile", target="demo", duration_s=0.25)
        log.warning("compile_failed", target="ref")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "compile"
        assert first["level"] == "info"
        assert first["target"] == "demo"
        assert first["duration_s"] == 0.25
        assert isinstance(first["ts"], float)
        assert json.loads(lines[1])["level"] == "warning"

    def test_text_format_renders_key_values(self):
        stream = io.StringIO()
        log.configure(format="text", stream=stream)
        log.error("worker_crash", pid=123, when="mid-request")
        line = stream.getvalue().strip()
        assert "ERROR" in line
        assert "worker_crash" in line
        assert "pid=123" in line

    def test_ambient_request_id_is_folded_in(self):
        stream = io.StringIO()
        log.configure(format="json", stream=stream)
        with use_request_id("rid-77"):
            log.info("compile")
        log.info("after")
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert records[0]["request_id"] == "rid-77"
        assert "request_id" not in records[1]

    def test_explicit_request_id_wins_over_ambient(self):
        stream = io.StringIO()
        log.configure(format="json", stream=stream)
        with use_request_id("ambient"):
            log.info("evt", request_id="explicit")
        record = json.loads(stream.getvalue())
        assert record["request_id"] == "explicit"

    def test_env_variable_enables_logging(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "json")
        log.reset()
        assert log.log_format() == "json"
        assert log.enabled()

    def test_configured_format_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "json")
        log.configure(format="off")
        assert log.log_format() == "off"

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            log.configure(format="xml")

    def test_log_file_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "server.log"
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_FILE", str(path))
        log.reset()
        log.info("boot", pid=1)
        log.info("ready", pid=1)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [r["event"] for r in records] == ["boot", "ready"]

    def test_none_valued_fields_are_dropped(self):
        stream = io.StringIO()
        log.configure(format="json", stream=stream)
        log.info("evt", keep=0, drop=None)
        record = json.loads(stream.getvalue())
        assert record["keep"] == 0
        assert "drop" not in record


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_family_with_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("jobs_total", "Jobs.", labels=("status",))
        family.labels(status="ok").inc()
        family.labels(status="ok").inc()
        family.labels(status="error").inc()
        rendered = registry.render()
        assert "# HELP jobs_total Jobs." in rendered
        assert "# TYPE jobs_total counter" in rendered
        assert 'jobs_total{status="error"} 1' in rendered
        assert 'jobs_total{status="ok"} 2' in rendered

    def test_labels_render_sorted_by_name(self):
        assert (
            format_labels({"b": "2", "a": "1"}) == '{a="1",b="2"}'
        )
        assert format_labels({}) == ""

    def test_format_value_renders_integral_floats_as_ints(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            family.observe(value)
        rendered = registry.render()
        assert 'latency_seconds_bucket{le="0.1"} 1' in rendered
        assert 'latency_seconds_bucket{le="1"} 2' in rendered
        assert 'latency_seconds_bucket{le="+Inf"} 3' in rendered
        assert "latency_seconds_count 3" in rendered

    def test_same_name_same_kind_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "X.")
        b = registry.counter("x_total", "X.")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X.")
        with pytest.raises(ValueError):
            registry.counter("x_total", "X.", labels=("other",))

    def test_gauge_callback_sampled_at_render(self):
        registry = MetricsRegistry()
        values = [1.0, 2.5]
        registry.gauge_callback("live_gauge", "Live.", lambda: values[-1])
        assert "live_gauge 2.5" in registry.render()
        values.append(7.0)
        assert "live_gauge 7" in registry.render()

    def test_broken_gauge_callback_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", "OK.").inc()

        def broken():
            raise RuntimeError("no data")

        registry.gauge_callback("broken_gauge", "Broken.", broken)
        rendered = registry.render()
        assert "ok_total 1" in rendered
        assert "broken_gauge" not in rendered

    def test_default_buckets_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_compile_trace_then_render(self, tmp_path, capsys):
        from repro.cli import main

        trace_file = tmp_path / "out.json"
        assert (
            main(["compile", "demo", "--kernel", "fir", "--trace", str(trace_file)])
            == 0
        )
        capsys.readouterr()
        trace = json.loads(trace_file.read_text())
        assert any(
            e.get("name") == "pass:select"
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
        )
        assert main(["trace", str(trace_file)]) == 0
        output = capsys.readouterr().out
        assert "compile" in output
        assert "pass:select" in output

    def test_trace_on_the_fly_compile(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "otf.json"
        assert (
            main(
                [
                    "trace",
                    "--target",
                    "demo",
                    "--kernel",
                    "fir_loop",
                    "--out",
                    str(out),
                    "--no-cache",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "select:block" in output
        trace = json.loads(out.read_text())
        names = {
            e.get("name")
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
        }
        # a cold cache traces the retargeting phases too
        assert "retarget:extraction" in names
        assert "tables:build" in names

    def test_trace_rejects_file_plus_target(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "x.json"), "--target", "demo"])

    def test_trace_needs_some_input(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace"])
