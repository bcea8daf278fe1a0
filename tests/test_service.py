"""Tests for the concurrent compile service (repro.service)."""

import json

import pytest

from repro.service import (
    CompileRequest,
    CompileResponse,
    CompileService,
    SessionPool,
    ThreadCompileBackend,
)
from repro.service.api import MIN_TIMEOUT_S, ErrorInfo, RequestError
from repro.toolchain import PipelineConfig


def _mixed_batch():
    """Nine requests over three distinct targets, one deliberately broken."""
    return [
        CompileRequest(target="demo", kernel="real_update", request_id="r0"),
        CompileRequest(target="tms320c25", kernel="fir", request_id="r1"),
        CompileRequest(
            target="demo",
            source="int a, b; b = a + 1;",
            name="inc",
            request_id="r2",
        ),
        CompileRequest(target="ref", kernel="dot_product", request_id="r3"),
        CompileRequest(
            target="tms320c25",
            source="int a, b, c, d; d = c + a * b;",
            request_id="r4",
        ),
        CompileRequest(
            target="demo", source="this is ; not a ! program", request_id="r5"
        ),
        CompileRequest(
            target="tms320c25",
            kernel="biquad_one",
            preset="no-chained",
            request_id="r6",
        ),
        CompileRequest(target="ref", source="int a, b; b = a * 7;", request_id="r7"),
        CompileRequest(target="demo", kernel="complex_multiply", request_id="r8"),
    ]


def _run_batch(backend, requests):
    """``requests`` through the backend's fan-out, as response objects."""
    jobs = [r.to_dict() if isinstance(r, CompileRequest) else r for r in requests]
    return [CompileResponse.from_dict(r) for r in backend.run_jobs(jobs)]


class TestRequests:
    def test_exactly_one_of_source_or_kernel(self):
        with pytest.raises(RequestError):
            CompileRequest(target="demo").validate()
        with pytest.raises(RequestError):
            CompileRequest(target="demo", source="x", kernel="fir").validate()

    def test_preset_and_config_are_exclusive(self):
        request = CompileRequest(
            target="demo", kernel="fir", preset="full", config=PipelineConfig()
        )
        with pytest.raises(RequestError):
            request.validate()

    def test_target_required(self):
        with pytest.raises(RequestError):
            CompileRequest(target="", kernel="fir").validate()

    def test_target_must_be_a_string(self):
        # A number would reach the registry's file lookup as a file
        # descriptor (a server would read from its own client socket).
        with pytest.raises(RequestError):
            CompileRequest.from_dict({"target": 5, "kernel": "fir"})

    def test_from_dict_round_trip(self):
        request = CompileRequest(
            target="tms320c25",
            kernel="fir",
            preset="no-chained",
            binding_overrides={"a": "ACC"},
            request_id="x1",
        )
        assert CompileRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RequestError):
            CompileRequest.from_dict({"target": "demo", "kernel": "fir", "bogus": 1})

    def test_resolved_config_resolves_presets(self):
        request = CompileRequest(target="demo", kernel="fir", preset="conventional")
        assert request.resolved_config() == PipelineConfig.preset("conventional")
        assert CompileRequest(
            target="demo", kernel="fir"
        ).resolved_config() == PipelineConfig()

    def test_opt_false_overrides_any_config(self):
        assert CompileRequest(
            target="demo", kernel="fir", opt=False
        ).resolved_config() == PipelineConfig(use_optimizer=False)
        assert CompileRequest(
            target="demo", kernel="fir", preset="no-scheduling", opt=False
        ).resolved_config() == PipelineConfig(
            use_scheduling=False, use_optimizer=False
        )
        assert CompileRequest(
            target="demo",
            kernel="fir",
            config=PipelineConfig(use_optimizer=False),
            opt=True,
        ).resolved_config() == PipelineConfig()

    def test_opt_field_round_trips(self):
        request = CompileRequest(target="demo", kernel="fir", opt=False)
        data = request.to_dict()
        assert data["opt"] is False
        assert CompileRequest.from_dict(data) == request
        # Omitted means "pipeline default" and is not serialized.
        assert "opt" not in CompileRequest(target="demo", kernel="fir").to_dict()

    def test_opt_field_must_be_boolean(self):
        with pytest.raises(RequestError):
            CompileRequest.from_dict(
                {"target": "demo", "kernel": "fir", "opt": "no"}
            )

    def test_timeout_field_round_trips(self):
        request = CompileRequest(target="demo", kernel="fir", timeout_s=2.5)
        data = request.to_dict()
        assert data["timeout_s"] == 2.5
        assert CompileRequest.from_dict(data) == request
        assert "timeout_s" not in CompileRequest(target="demo", kernel="fir").to_dict()

    def test_timeout_field_must_be_a_number_not_below_the_floor(self):
        # The type is checked where outside input arrives, the decode ...
        for bad in ("soon", True):
            with pytest.raises(RequestError, match="CompileRequest.timeout_s"):
                CompileRequest.from_dict({"target": "demo", "kernel": "fir", "timeout_s": bad})
        # ... and the value by validate().
        for bad in (0, -1.0, 1e-6, MIN_TIMEOUT_S / 2):
            with pytest.raises(RequestError, match="CompileRequest.timeout_s"):
                CompileRequest(target="demo", kernel="fir", timeout_s=bad).validate()
        CompileRequest(target="demo", kernel="fir", timeout_s=MIN_TIMEOUT_S).validate()


class TestSessionPool:
    def test_sessions_are_reused_per_key(self):
        pool = SessionPool()
        first = pool.session("demo")
        second = pool.session("demo")
        assert first is second
        assert pool.stats()["sessions"] == 1
        assert pool.retarget_count == 1

    def test_distinct_configs_get_distinct_sessions(self):
        pool = SessionPool()
        full = pool.session("demo")
        restricted = pool.session("demo", PipelineConfig.preset("no-chained"))
        assert full is not restricted
        # but they share one retargeting run through the pool's cache
        assert pool.retarget_count == 1
        assert full.retarget_result is restricted.retarget_result

    def test_concurrent_requests_build_one_session(self):
        from concurrent.futures import ThreadPoolExecutor

        pool = SessionPool()
        with ThreadPoolExecutor(max_workers=4) as executor:
            sessions = list(
                executor.map(lambda _i: pool.session("demo"), range(8))
            )
        assert all(s is sessions[0] for s in sessions)
        assert pool.retarget_count == 1
        assert pool.stats()["sessions"] == 1

    @pytest.mark.parametrize("attempt", range(5))
    def test_concurrent_configs_share_one_retarget(self, attempt):
        """Regression: two configs of the same target racing through a
        fresh pool must still retarget exactly once (the construction
        lock is per target, not per (target, config) key)."""
        from concurrent.futures import ThreadPoolExecutor

        pool = SessionPool()
        configs = [PipelineConfig(), PipelineConfig.preset("no-chained")] * 2
        with ThreadPoolExecutor(max_workers=4) as executor:
            sessions = list(
                executor.map(lambda c: pool.session("demo", c), configs)
            )
        assert pool.retarget_count == 1, attempt
        assert pool.stats()["sessions"] == 2
        assert sessions[0].retarget_result is sessions[1].retarget_result


class TestCompileService:
    def test_mixed_batch_acceptance(self):
        """The ISSUE-2 acceptance scenario: >= 8 mixed-target requests,
        one deliberately failing, all answered, sessions pooled."""
        requests = _mixed_batch()
        backend = ThreadCompileBackend()
        responses = _run_batch(backend, requests)

        # one structured response per request, in input order
        assert len(responses) == len(requests)
        assert [r.request_id for r in responses] == [
            q.request_id for q in requests
        ]
        assert all(isinstance(r, CompileResponse) for r in responses)

        # the broken source failed structurally, everything else succeeded
        failures = [r for r in responses if not r.ok]
        assert [r.request_id for r in failures] == ["r5"]
        assert failures[0].error.type == "SourceSyntaxError"
        assert failures[0].error.phase == "frontend"
        for response in responses:
            if response.ok:
                assert response.result is not None
                assert response.result.pass_timings
                assert response.elapsed_s >= 0.0

        # pooling amortized retargeting: one retarget per distinct target
        distinct_targets = {q.target for q in requests}
        assert backend.service.pool.retarget_count == len(distinct_targets)
        assert backend.stats()["completed"] == len(requests) - 1
        assert backend.stats()["failed"] == 1

    def test_opt_ab_requests_share_one_retarget(self):
        """The service-layer A/B knob: the same source with and without
        the optimizer, one retargeting run, never-worse optimized code."""
        source = (
            "int a, b, c, d, e, y0, y1;\n"
            "y0 = a * b + c * d + e;\n"
            "y1 = a * b + c * d - e;\n"
        )
        backend = ThreadCompileBackend()
        responses = _run_batch(
            backend,
            [
                CompileRequest(
                    target="demo", source=source, name="ab", request_id="opt-on"
                ),
                CompileRequest(
                    target="demo",
                    source=source,
                    name="ab",
                    opt=False,
                    request_id="opt-off",
                ),
            ],
        )
        assert all(r.ok for r in responses)
        with_opt, without = responses
        assert with_opt.result.config.use_optimizer
        assert not without.result.config.use_optimizer
        assert with_opt.result.code_size <= without.result.code_size
        assert with_opt.result.metrics.opt_temps >= 1
        assert without.result.metrics.opt_temps == 0
        # Distinct configs, distinct pooled sessions, one retarget.
        assert backend.service.pool.retarget_count == 1
        assert backend.service.pool.stats()["sessions"] == 2

    def test_unknown_target_is_isolated(self):
        responses = _run_batch(
            ThreadCompileBackend(),
            [
                CompileRequest(target="nosuchchip", kernel="fir"),
                CompileRequest(target="demo", kernel="real_update"),
            ],
        )
        assert [r.ok for r in responses] == [False, True]
        assert responses[0].error.type == "TargetError"

    def test_unknown_kernel_is_isolated(self):
        responses = _run_batch(
            ThreadCompileBackend(), [CompileRequest(target="demo", kernel="nosuchkernel")]
        )
        assert not responses[0].ok
        assert "nosuchkernel" in responses[0].error.message

    def test_single_worker_path(self):
        responses = _run_batch(ThreadCompileBackend(workers=1), _mixed_batch()[:3])
        assert [r.ok for r in responses] == [True, True, True]

    def test_empty_batch(self):
        assert ThreadCompileBackend().run_jobs([]) == []

    def test_batch_isolates_malformed_jobs(self):
        responses = _run_batch(
            ThreadCompileBackend(),
            [
                {"target": "demo", "kernel": "real_update"},
                {"_malformed": "line 2: not json"},
                {"target": "demo", "source": "int a, b; b = a;", "name": "copy"},
            ],
        )
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error.type == "RequestError"
        assert "line 2" in responses[1].error.message
        assert responses[2].name == "copy"

    def test_batch_keeps_original_positions_for_default_names(self):
        """Regression: default names after a malformed line must reflect
        the original job position, not the filtered one."""
        responses = _run_batch(
            ThreadCompileBackend(),
            [
                {"_malformed": "line 1: not json"},
                {"target": "demo", "source": "int a, b; b = a;"},
            ],
        )
        assert [r.name for r in responses] == ["request0", "request1"]

    def test_response_serialization_round_trip(self):
        service = CompileService()
        response = service.run(CompileRequest(target="demo", kernel="fir"))
        assert response.ok
        data = json.loads(response.to_json())
        rebuilt = CompileResponse.from_dict(data)
        assert rebuilt.ok and rebuilt.result is not None
        assert rebuilt.result.to_dict() == response.result.to_dict()
        # status-only serialization drops the embedded result
        slim = response.to_dict(include_result=False)
        assert "result" not in slim and slim["ok"]

    def test_error_info_from_exception_captures_phase(self):
        from repro.diagnostics import PipelineError

        info = ErrorInfo.from_exception(PipelineError("bad preset"))
        assert info.type == "PipelineError"
        assert info.phase == "pipeline"
        assert ErrorInfo.from_dict(info.to_dict()) == info

    def test_shared_pool_across_batches(self):
        backend = ThreadCompileBackend()
        _run_batch(backend, [CompileRequest(target="demo", kernel="fir")])
        _run_batch(backend, [CompileRequest(target="demo", kernel="dot_product")])
        assert backend.service.pool.retarget_count == 1

    def test_stats_breaks_counts_down_per_target(self):
        backend = ThreadCompileBackend()
        _run_batch(backend, _mixed_batch())
        stats = backend.stats()
        per_target = stats["per_target"]
        assert set(per_target) == {"demo", "ref", "tms320c25"}
        assert per_target["demo"]["failed"] == 1  # r5, the broken source
        assert sum(c["completed"] for c in per_target.values()) == stats["completed"]
        assert sum(c["failed"] for c in per_target.values()) == stats["failed"]

    def test_stats_returns_an_independent_snapshot(self):
        backend = ThreadCompileBackend()
        _run_batch(backend, [CompileRequest(target="demo", kernel="fir")])
        snapshot = backend.stats()
        snapshot["completed"] = 999
        snapshot["per_target"]["demo"]["completed"] = 999
        fresh = backend.stats()
        assert fresh["completed"] == 1
        assert fresh["per_target"]["demo"]["completed"] == 1
        assert fresh["failed"] == 0


class TestBatchCli:
    def _write_jobs(self, tmp_path, jobs):
        path = tmp_path / "jobs.jsonl"
        path.write_text("\n".join(jobs) + "\n")
        return str(path)

    def test_batch_command_emits_one_response_per_job(self, tmp_path, capsys):
        from repro.cli import main

        jobs_path = self._write_jobs(
            tmp_path,
            [
                json.dumps({"target": "demo", "kernel": "real_update", "request_id": "a"}),
                "# a comment line",
                json.dumps({"target": "demo", "source": "int a, b; b = a + 1;", "name": "inc"}),
            ],
        )
        assert main(["batch", jobs_path, "--no-cache"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["ok"] and first["request_id"] == "a"
        assert first["result"]["metrics"]["code_size"] > 0

    def test_batch_command_honours_per_job_opt_field(self, tmp_path, capsys):
        """``"opt": false`` jobs run the pre-optimizer pipeline, so one
        batch can A/B the optimizer under load."""
        from repro.cli import main

        source = (
            "int a, b, c, d, e, y0, y1;"
            " y0 = a * b + c * d + e;"
            " y1 = a * b + c * d - e;"
        )
        jobs_path = self._write_jobs(
            tmp_path,
            [
                json.dumps(
                    {"target": "demo", "source": source, "request_id": "on"}
                ),
                json.dumps(
                    {
                        "target": "demo",
                        "source": source,
                        "opt": False,
                        "request_id": "off",
                    }
                ),
            ],
        )
        assert main(["batch", jobs_path, "--no-cache"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        responses = {json.loads(line)["request_id"]: json.loads(line) for line in lines}
        assert responses["on"]["ok"] and responses["off"]["ok"]
        assert responses["on"]["result"]["config"]["use_optimizer"] is True
        assert responses["off"]["result"]["config"]["use_optimizer"] is False
        assert (
            responses["on"]["result"]["metrics"]["code_size"]
            <= responses["off"]["result"]["metrics"]["code_size"]
        )
        assert responses["off"]["result"]["metrics"]["opt_temps"] == 0

    def test_batch_command_reports_failures_with_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        jobs_path = self._write_jobs(
            tmp_path,
            [
                json.dumps({"target": "demo", "kernel": "real_update"}),
                "{not json",
                json.dumps({"target": "demo", "source": "broken !!"}),
            ],
        )
        assert main(["batch", jobs_path, "--no-cache", "--no-results"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 3
        statuses = [json.loads(line)["ok"] for line in lines]
        assert statuses == [True, False, False]

    def test_batch_command_accepts_json_array_and_jobs_object(self, tmp_path, capsys):
        """The bodies ``POST /batch`` takes: a JSON array and
        ``{"jobs": [...]}``; an entry that is no object fails at its index."""
        from repro.cli import main

        jobs = [
            {"target": "demo", "kernel": "fir", "request_id": "a"},
            7,
            {"target": "demo", "source": "int a, b; b = a + 1;"},
        ]
        for body in (jobs, {"jobs": jobs}):
            path = tmp_path / "jobs.json"
            path.write_text(json.dumps(body, indent=2))
            assert main(["batch", str(path), "--no-cache", "--no-results"]) == 1
            out = capsys.readouterr().out
            lines = [json.loads(line) for line in out.splitlines() if line.strip()]
            assert [line["ok"] for line in lines] == [True, False, True]
            assert lines[0]["request_id"] == "a"
            assert "job 1 is not an object" in lines[1]["error"]["message"]
            assert lines[2]["name"] == "request2"

    def test_batch_output_file(self, tmp_path, capsys):
        from repro.cli import main

        jobs_path = self._write_jobs(
            tmp_path, [json.dumps({"target": "demo", "kernel": "fir"})]
        )
        out_path = tmp_path / "responses.jsonl"
        assert main(["batch", jobs_path, "--no-cache", "-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["ok"]

    def test_compile_json_flag(self, capsys):
        from repro.cli import main

        assert main(["compile", "demo", "--kernel", "real_update", "--json", "--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["processor"] == "demo"
        assert data["name"] == "real_update"
        assert set(data["pass_timings"]) == {"opt", "select", "schedule", "spill", "compact"}

    def test_compile_timings_flag(self, capsys):
        from repro.cli import main

        assert main(["compile", "demo", "--kernel", "real_update", "--timings", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Compilation report" in output
        assert "select" in output
