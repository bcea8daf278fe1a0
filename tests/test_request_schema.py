"""The request surface: what an ill-typed or hostile job answers.

A job's fields are checked against ``CompileRequest``'s annotations when
it is decoded, so a value of the wrong JSON type answers a
``RequestError`` that names the field -- through the thread backend and
through a process-backend worker alike.  A job names a registered
target; the service never opens a path a job names.  A job's timeout is
at least ``MIN_TIMEOUT_S``.  Every envelope of a job that did not compile
is named by one rule.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import start_server
from repro.service import ProcessCompileBackend, ThreadCompileBackend
from repro.service.api import MIN_TIMEOUT_S, CompileRequest
from repro.toolchain import default_registry
from repro.toolchain.passes import PipelineConfig


@pytest.fixture(scope="module")
def thread_backend():
    with ThreadCompileBackend(workers=1) as backend:
        yield backend


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessCompileBackend(
        workers=1, warm_targets=("demo",), test_hooks=True, request_timeout_s=30.0
    )
    yield backend
    backend.close()


@pytest.fixture(params=["thread", "process"])
def backend(request):
    return request.getfixturevalue("%s_backend" % request.param)


#: Ill-typed jobs (each also has ``"target": "demo"``) and the field the
#: answer must name.
ILL_TYPED = [
    ({"kernel": "fir", "config": {"use_optimizer": "no"}}, "PipelineConfig.use_optimizer"),
    ({"kernel": "fir", "config": {"verify": 1}}, "PipelineConfig.verify"),
    ({"kernel": "fir", "config": {"nope": 1}}, "nope"),
    ({"kernel": "fir", "config": 5}, "CompileRequest.config"),
    ({"source": 5}, "CompileRequest.source"),
    ({"kernel": "fir", "binding_overrides": {"x": 5}}, "CompileRequest.binding_overrides"),
    ({"kernel": "fir", "binding_overrides": ["x"]}, "CompileRequest.binding_overrides"),
    ({"kernel": 5}, "CompileRequest.kernel"),
    ({"kernel": "fir", "name": ["x"]}, "CompileRequest.name"),
    ({"kernel": "fir", "request_id": 7}, "CompileRequest.request_id"),
    ({"kernel": "fir", "timeout_s": "soon"}, "CompileRequest.timeout_s"),
    ({"kernel": "fir", "timeout_s": True}, "CompileRequest.timeout_s"),
    ({"kernel": "fir", "opt": "no"}, "CompileRequest.opt"),
    ({"kernel": "fir", "trace": 1}, "CompileRequest.trace"),
    ({"kernel": "fir", "target": ["demo"]}, "CompileRequest.target"),
    ({"kernel": "fir", "bogus": 1}, "bogus"),
]


class TestIllTypedJobs:
    @pytest.mark.parametrize(
        "job,field", ILL_TYPED, ids=[json.dumps(job) for job, _ in ILL_TYPED]
    )
    def test_it_answers_a_request_error_naming_the_field(self, backend, job, field):
        response = backend.run_job({"target": "demo", **job})
        assert not response["ok"]
        assert response["error"]["type"] == "RequestError", response["error"]
        assert response["error"]["phase"] == "service"
        assert field in response["error"]["message"]
        assert "result" not in response

    def test_an_unknown_storage_is_a_binding_error(self, backend):
        response = backend.run_job(
            {"target": "demo", "kernel": "fir", "binding_overrides": {"x": "NOPE"}}
        )
        assert response["error"]["type"] == "BindingError"
        assert response["error"]["phase"] == "binding"
        assert "NOPE" in response["error"]["message"]

    def test_an_ill_typed_config_pools_no_session(self, thread_backend):
        pool = thread_backend.service.pool
        thread_backend.run_job({"target": "demo", "kernel": "fir"})
        sessions = pool.stats()["sessions"]
        for index in range(20):
            thread_backend.run_job(
                {"target": "demo", "kernel": "fir", "config": {"use_optimizer": "x%d" % index}}
            )
        assert pool.stats()["sessions"] == sessions


@pytest.fixture(scope="module")
def hostile_paths(tmp_path_factory):
    """Paths a job might name: a file with private content, a valid HDL
    model, a directory, a device, and a path that does not exist."""
    directory = tmp_path_factory.mktemp("paths")
    private = directory / "private.txt"
    private.write_text("processor-secret-4471\n")
    model = directory / "model.hdl"
    model.write_text(default_registry().hdl_source("demo"))
    return {
        "file": str(private),
        "model": str(model),
        "directory": str(directory),
        "device": os.devnull,
        "missing": str(directory / "missing.hdl"),
    }


def _kills(backend):
    stats = backend.stats()
    return stats.get("timeouts", 0), stats.get("respawns", 0)


class TestTimeoutFloor:
    def test_a_timeout_below_the_floor_is_refused_without_a_respawn(self, backend):
        before = _kills(backend)
        response = backend.run_job({"target": "demo", "kernel": "fir", "timeout_s": 1e-6})
        error = response["error"]
        assert error["type"] == "RequestError", error
        assert "CompileRequest.timeout_s" in error["message"]
        assert _kills(backend) == before

    def test_a_timeout_at_the_floor_is_honoured(self, process_backend):
        # The parent waits out a job's own timeout from the floor up, and
        # its default below it: the worker refuses such a job at once.
        timeout_of = process_backend._timeout_of
        assert timeout_of({"timeout_s": MIN_TIMEOUT_S}) == MIN_TIMEOUT_S
        assert timeout_of({"timeout_s": 1e-6}) == process_backend.request_timeout_s
        CompileRequest(target="demo", kernel="fir", timeout_s=MIN_TIMEOUT_S).validate()


class TestTargets:
    @pytest.mark.parametrize("kind", ["file", "model", "directory", "device", "missing"])
    def test_a_path_is_an_unknown_target(self, backend, hostile_paths, kind):
        path = hostile_paths[kind]
        response = backend.run_job({"target": path, "kernel": "fir"})
        error = response["error"]
        assert error["type"] == "TargetError", error
        assert error["message"].startswith("unknown target %r" % path)
        assert "secret" not in error["message"]
        assert response["target"] == path


def _fault_jobs(extra):
    """A crashed, a timed-out and an undecodable job, each with ``extra``."""
    source = "int a, b; b = a + 1;"
    return {
        "crashed": {"target": "demo", "source": source, "_test_exit": 9, **extra},
        "timed out": {
            "target": "demo", "source": source, "timeout_s": 0.5, "_test_sleep_s": 30.0,
            **extra,
        },
        "undecodable": {"target": "demo", "source": 5, **extra},
    }


class TestFailedEnvelopes:
    @pytest.mark.parametrize("extra,name", [
        ({}, "request3"),
        ({"kernel": "fir"}, "fir"),
        ({"name": "mine", "request_id": "r3"}, "mine"),
    ])
    def test_one_naming_rule_for_every_failure(self, process_backend, extra, name):
        envelopes = {
            kind: process_backend.run_job(job, 3)
            for kind, job in _fault_jobs(extra).items()
        }
        types = {kind: envelope["error"]["type"] for kind, envelope in envelopes.items()}
        assert types == {
            "crashed": "WorkerCrashError",
            "timed out": "RequestTimeoutError",
            "undecodable": "RequestError",
        }
        for envelope in envelopes.values():
            assert envelope["name"] == name
            assert envelope["target"] == "demo"
            assert envelope.get("request_id") == extra.get("request_id")
        assert len({tuple(envelope) for envelope in envelopes.values()}) == 1

    def test_only_string_fields_are_echoed(self, thread_backend):
        response = thread_backend.run_job(
            {"target": ["demo"], "name": 5, "kernel": "fir", "request_id": 7}, 2
        )
        assert response["target"] == "" and response["name"] == "fir"
        assert "request_id" not in response


class TestFrontEndRequestIds:
    @pytest.fixture(scope="class")
    def server(self):
        server = start_server(backend_kind="thread", port=0)
        yield server
        server.close()

    def _post(self, server, payload):
        import urllib.request

        request = urllib.request.Request(
            server.url + "/compile?results=0", data=json.dumps(payload).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.headers["X-Request-Id"], json.loads(reply.read())

    @pytest.mark.parametrize("missing", [{}, {"request_id": None}, {"request_id": ""}])
    def test_a_job_without_an_id_takes_the_requests(self, server, missing):
        header, envelope = self._post(server, {"target": "demo", "kernel": "fir", **missing})
        assert envelope["ok"] and envelope["request_id"] == header

    def test_an_id_that_is_not_a_string_is_refused(self, server):
        _header, envelope = self._post(
            server, {"target": "demo", "kernel": "fir", "request_id": 7}
        )
        assert envelope["error"]["type"] == "RequestError"
        assert "CompileRequest.request_id" in envelope["error"]["message"]
        assert "request_id" not in envelope


# ---------------------------------------------------------------------------
# any JSON value in any field
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

FIELDS = [name for name in CompileRequest.__dataclass_fields__] + [
    "config." + name for name in PipelineConfig.__dataclass_fields__
]


def _with_field(name, value):
    job = {"target": "demo", "kernel": "fir", "request_id": "h"}
    if name.startswith("config."):
        job["config"] = {name.split(".", 1)[1]: value}
    else:
        job[name] = value
    return job


def _check_answer(response):
    assert isinstance(response["target"], str)
    assert isinstance(response["name"], str)
    assert isinstance(response.get("request_id", ""), str)
    if response["ok"]:
        config = response["result"]["config"]
        assert all(type(value) is bool for value in config.values()), config
    else:
        assert response["error"]["type"] not in (
            "InternalCompilerError", "TypeError", "ValueError", "KeyError",
        ), response["error"]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_value_in_any_field_answers_a_structured_envelope(
    thread_backend, field, value
):
    _check_answer(thread_backend.run_job(_with_field(field, value)))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_value_in_any_field_answers_a_structured_envelope_from_a_worker(
    process_backend, field, value
):
    _check_answer(process_backend.run_job(_with_field(field, value)))
