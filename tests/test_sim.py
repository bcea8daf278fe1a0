"""Unit tests for the RT-level simulator."""

import random

import pytest

from repro.sim import RTSimulator, SimulationError, SimulationTrace
from repro.codegen.selection import RTInstance
from repro.dspstone import kernel_program


def _environment(block, seed=0):
    rng = random.Random(seed)
    return {name: rng.randint(-200, 200) for name in sorted(block.variables())}


def _agrees(reference, simulated):
    mask = 0xFFFF
    return all((reference[k] & mask) == (simulated.get(k, 0) & mask) for k in reference)


class TestSimulatorBasics:
    def test_simple_statement(self, tms_compiler):
        compiled = tms_compiler.compile("int a, b, d; d = a + b;")
        env = {"a": 3, "b": 4}
        result = compiled.simulate(env)
        assert result["d"] == 7

    def test_chained_mac_semantics(self, tms_compiler):
        compiled = tms_compiler.compile("int a, b, c, d; d = c + a * b;")
        result = compiled.simulate({"a": 2, "b": 5, "c": 1})
        assert result["d"] == 11

    def test_negative_values_wrap_to_word_width(self, tms_compiler):
        compiled = tms_compiler.compile("int a, b, d; d = a - b;")
        result = compiled.simulate({"a": 1, "b": 2})
        assert result["d"] == 0xFFFF

    def test_sequence_of_statements(self, tms_compiler):
        compiled = tms_compiler.compile("int a, b, c; b = a + a; c = b * a;")
        result = compiled.simulate({"a": 3})
        assert result["b"] == 6
        assert result["c"] == 18

    def test_spill_instances_are_value_neutral(self):
        simulator = RTSimulator({"x": 1})
        spill = RTInstance(kind="spill_store", result_id="tmp:0", result_storage="DMEM")
        simulator._execute_instance(spill)
        assert simulator.environment == {"x": 1}

    def test_missing_node_raises(self):
        simulator = RTSimulator()
        broken = RTInstance(kind="rt", result_id="tmp:0", result_storage="ACC")
        with pytest.raises(SimulationError):
            simulator._execute_instance(broken)

    def test_undefined_value_raises(self):
        simulator = RTSimulator()
        with pytest.raises(SimulationError):
            simulator._lookup_value("tmp:99")


class TestKernelEquivalence:
    """Generated code must compute exactly what the source program computes."""

    @pytest.mark.parametrize(
        "kernel",
        [
            "real_update",
            "complex_multiply",
            "complex_update",
            "n_real_updates",
            "n_complex_updates",
            "fir",
            "biquad_one",
            "biquad_n",
            "dot_product",
            "convolution",
        ],
    )
    def test_kernel_on_tms320c25(self, tms_compiler, kernel):
        program = kernel_program(kernel)
        compiled = tms_compiler.compile_program(program)
        block = program.single_block()
        env = _environment(block, seed=hash(kernel) & 0xFFFF)
        assert _agrees(block.execute(env), compiled.simulate(env))

    @pytest.mark.parametrize("kernel", ["real_update", "dot_product", "biquad_one"])
    def test_kernel_on_demo_machine(self, demo_compiler, kernel):
        program = kernel_program(kernel)
        compiled = demo_compiler.compile_program(program)
        block = program.single_block()
        env = _environment(block, seed=1)
        assert _agrees(block.execute(env), compiled.simulate(env))

    def test_baseline_code_is_also_correct(self, tms_result):
        from repro.toolchain import PipelineConfig, Session

        baseline = Session(tms_result, config=PipelineConfig.preset("conventional"))
        program = kernel_program("fir")
        compiled = baseline.compile_program(program)
        block = program.single_block()
        env = _environment(block, seed=7)
        assert _agrees(block.execute(env), compiled.simulate(env))


class TestCrossTargetEquivalence:
    """End-to-end cross-target semantic check: the same kernel compiled
    for two different processors must simulate to identical environments
    (and both must match the IR reference execution)."""

    @pytest.mark.parametrize("kernel", ["real_update", "dot_product", "biquad_one"])
    def test_kernel_agrees_across_targets(self, tms_result, demo_result, kernel):
        from repro.toolchain import Session

        program = kernel_program(kernel)
        block = program.single_block()
        env = _environment(block, seed=0xC0DE)
        reference = block.execute(env)

        environments = {}
        for result in (tms_result, demo_result):
            compiled = Session(result).compile_program(program)
            environments[result.processor] = compiled.simulate(env)
        on_tms = environments["tms320c25"]
        on_demo = environments["demo"]
        # both targets match the golden model ...
        assert _agrees(reference, on_tms)
        assert _agrees(reference, on_demo)
        # ... and (masked) agree with each other on every program variable
        mask = 0xFFFF
        for variable in sorted(block.variables()):
            assert (on_tms.get(variable, 0) & mask) == (
                on_demo.get(variable, 0) & mask
            ), variable

    def test_cross_target_traces_reach_same_final_environment(
        self, tms_result, demo_result
    ):
        from repro.toolchain import Session

        program = kernel_program("dot_product")
        env = _environment(program.single_block(), seed=3)
        traces = [
            Session(result).compile_program(program).simulation_trace(env)
            for result in (tms_result, demo_result)
        ]
        assert all(isinstance(trace, SimulationTrace) for trace in traces)
        # one step per statement, each step carrying the executed RTs
        statement_count = len(program.single_block())
        for trace in traces:
            assert len(trace) == statement_count
            assert all(step.operations for step in trace.steps)
        mask = 0xFFFF
        final_tms, final_demo = (trace.final_environment for trace in traces)
        for variable in sorted(program.single_block().variables()):
            assert (final_tms.get(variable, 0) & mask) == (
                final_demo.get(variable, 0) & mask
            )


class TestTraceHelpers:
    def test_trace_records_statements_in_order(self, tms_compiler):
        compiled = tms_compiler.compile("int a, b, c; b = a + a; c = b * a;")
        trace = compiled.simulation_trace({"a": 3})
        assert [step.statement for step in trace.steps] == [
            "b = add(a, a)",
            "c = mul(b, a)",
        ]
        # A straight-line program runs as a one-block CFG.
        assert [step.block for step in trace.steps] == ["entry", "entry"]
        assert trace.steps[0].environment["b"] == 6
        assert trace.steps[1].environment["c"] == 18
        assert trace.initial_environment == {"a": 3}
        assert trace.final_environment["c"] == 18

    def test_trace_to_dict_is_json_ready(self, tms_compiler):
        import json

        compiled = tms_compiler.compile("int a, b; b = a + 1;")
        trace = compiled.simulation_trace({"a": 1})
        encoded = json.dumps(trace.to_dict())
        assert json.loads(encoded)["final_environment"]["b"] == 2
