"""Tests for the structured CompilationResult artifact API."""

import json

import pytest

from repro.diagnostics import Diagnostic, ResultError
from repro.record.report import compilation_report
from repro.toolchain import (
    CompilationResult,
    CompileMetrics,
    PassManager,
    PipelineConfig,
    Session,
    StatementArtifact,
)

from helpers import overwritten_register_result

SOURCE = "int a, b, c, d; d = c + a * b;"

#: A demo-machine source that forces spill insertion (one accumulator,
#: four live products).
SPILLY = (
    "int x0, x1, x2, x3, y; "
    "y = x0 * x1 + x1 * x2 + x2 * x3 + x3 * x0;"
)


@pytest.fixture(scope="module")
def tms_session(tms_result):
    return Session(tms_result)


@pytest.fixture(scope="module")
def result(tms_session):
    return tms_session.compile(SOURCE, name="mac")


class TestMetricsAndTimings:
    def test_metrics_block_matches_flat_properties(self, result):
        metrics = result.metrics
        assert isinstance(metrics, CompileMetrics)
        assert metrics.code_size == result.code_size
        assert metrics.operation_count == result.operation_count
        assert metrics.spill_count == result.spill_count
        assert metrics.selection_cost == result.selection_cost
        assert metrics.statement_count == len(result.statement_codes)

    def test_every_configured_pass_has_a_timing(self, tms_result):
        for preset in ("full", "conventional", "no-scheduling"):
            config = PipelineConfig.preset(preset)
            compiled = Session(tms_result, config=config).compile(SOURCE)
            assert list(compiled.pass_timings) == PassManager.from_config(config).names()
            assert all(t >= 0.0 for t in compiled.pass_timings.values())

    def test_encode_pass_is_timed_too(self, tms_result):
        config = PipelineConfig(encode=True)
        compiled = Session(tms_result, config=config).compile(SOURCE)
        assert "encode" in compiled.pass_timings
        assert compiled.encoding is not None

    def test_compile_time_is_sum_of_pass_timings(self, result):
        assert result.metrics.compile_time_s == pytest.approx(
            sum(result.pass_timings.values())
        )

    def test_config_is_recorded(self, result):
        assert result.config == PipelineConfig()


class TestViews:
    def test_listing_view(self, result):
        listing = result.listing()
        assert "mac" in listing and "tms320c25" in listing
        assert result.view("listing") == listing

    def test_statements_view(self, result):
        statements = result.statements()
        assert len(statements) == 1
        artifact = statements[0]
        assert isinstance(artifact, StatementArtifact)
        assert artifact.statement.startswith("d =")
        assert artifact.cost == result.selection_cost
        assert len(artifact.operations) == result.operation_count

    def test_metrics_and_timings_views(self, result):
        assert result.view("metrics") == result.metrics.to_dict()
        assert result.view("timings") == dict(result.pass_timings)

    def test_unknown_view_raises(self, result):
        with pytest.raises(ResultError):
            result.view("disassembly")

    def test_simulation_trace_view(self, result):
        trace = result.simulation_trace({"a": 2, "b": 5, "c": 1})
        assert len(trace.steps) == 1
        assert trace.final_environment["d"] == 11
        assert trace.steps[0].environment["d"] == 11
        assert trace.steps[0].operations  # the RT descriptions
        assert trace.to_dict()["final_environment"]["d"] == 11
        assert result.simulate({"a": 2, "b": 5, "c": 1})["d"] == 11


class TestSimulatedRegisters:
    @pytest.mark.parametrize(
        "target, register", [("demo", "ACC"), ("ref", "R0"), ("tms320c25", "ACC")]
    )
    def test_simulate_reads_what_a_register_holds(self, retarget_results, target, register):
        """A register holds one value: the subtract that defines ``d``
        reads ``a + b`` from the register, and after an edit that loads
        ``a`` into it again in between, it reads ``a``, as the hardware
        would."""
        session = Session(retarget_results[target])
        compiled, edited = overwritten_register_result(session, register)
        environment = {"a": 5, "b": 7, "c": 1}
        assert compiled.simulate(environment)["d"] == 11
        # The subtract reads a (5), not a + b (12): d = 5 - 1.
        assert edited.simulate(environment)["d"] == 4
        assert edited.simulation_trace(environment).final_environment["d"] == 4

    def test_every_result_carries_its_sessions_memories(self, tms_session, result):
        assert tms_session.memory_storages == frozenset({"DMEM"})
        assert result.memory_storages is tms_session.memory_storages
        data = result.to_dict()
        assert "memory_storages" not in data
        assert CompilationResult.from_dict(data).memory_storages == frozenset()


class TestSerialization:
    def test_to_json_round_trips_through_from_dict(self, result):
        data = json.loads(result.to_json())
        rebuilt = CompilationResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        # and a second generation is stable too
        assert CompilationResult.from_json(rebuilt.to_json()).to_dict() == data

    def test_round_trip_preserves_all_pass_timings(self, tms_result):
        config = PipelineConfig(encode=True)
        compiled = Session(tms_result, config=config).compile(SOURCE)
        rebuilt = CompilationResult.from_json(compiled.to_json())
        assert rebuilt.pass_timings == compiled.pass_timings
        assert list(rebuilt.pass_timings) == PassManager.from_config(config).names()

    def test_round_trip_preserves_views_and_diagnostics(self, demo_result):
        compiled = Session(demo_result).compile(SPILLY, name="spilly")
        assert compiled.spill_count > 0
        assert any(d.severity == "warning" for d in compiled.diagnostics)
        rebuilt = CompilationResult.from_json(compiled.to_json())
        assert rebuilt.listing() == compiled.listing()
        assert rebuilt.statements() == compiled.statements()
        assert rebuilt.diagnostics == compiled.diagnostics
        assert rebuilt.metrics == compiled.metrics
        assert rebuilt.config == compiled.config

    def test_detached_results_refuse_live_artifacts(self, result):
        detached = CompilationResult.from_dict(result.to_dict())
        assert detached.is_detached
        assert not result.is_detached
        with pytest.raises(ResultError):
            detached.instances
        with pytest.raises(ResultError):
            detached.simulation_trace({})

    def test_unsupported_schema_rejected(self, result):
        data = result.to_dict()
        data["schema"] = 999
        with pytest.raises(ResultError):
            CompilationResult.from_dict(data)

    def test_diagnostic_round_trip(self):
        diagnostic = Diagnostic(severity="warning", message="m", phase="spill")
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic

    def test_pipeline_config_round_trip(self):
        config = PipelineConfig.preset("no-chained").with_updates(encode=True)
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestSpillDiagnostics:
    def test_spill_pass_emits_structured_warning(self, demo_result):
        compiled = Session(demo_result).compile(SPILLY)
        warnings = [d for d in compiled.diagnostics if d.phase == "spill"]
        assert len(warnings) == 1
        assert str(compiled.spill_count) in warnings[0].message

    def test_spill_free_compilation_has_no_spill_diagnostic(self, result):
        assert not [d for d in result.diagnostics if d.phase == "spill"]


class TestReport:
    def test_compilation_report_renders(self, result):
        report = compilation_report(result)
        assert "mac" in report and "tms320c25" in report
        for pass_name in result.pass_timings:
            assert pass_name in report

    def test_compilation_report_works_on_detached_results(self, result):
        detached = CompilationResult.from_json(result.to_json())
        assert compilation_report(detached) == compilation_report(result)
