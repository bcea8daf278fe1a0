"""Backend differential suite: schedule + spill + compaction output must
RT-simulate observably equal to reference execution of the source program
for every DSPStone-capable target x kernel (unrolled *and* loop forms).

The existing differential suites cover selection (`test_selector_differential`)
and the optimizer (`test_opt_differential`); this one exercises the backend
passes behind them: `result.simulate` lets register reads consume whatever
the register actually holds, so a scheduling or spill bug produces a stale
value and a failing comparison.
"""

import pytest

from repro.dspstone import all_kernel_names, get_kernel, kernel_program, loop_kernel_names
from repro.fuzz.oracles import observables, seed_environment
from repro.toolchain import PipelineConfig, Session

#: Targets whose grammars cover the DSPStone kernels (the other built-ins
#: cannot compile any DSPStone kernel: no multiplier / no usable ALU path).
DSP_TARGETS = ("demo", "ref", "tms320c25")


@pytest.fixture(scope="module", params=DSP_TARGETS)
def target_session(request, retarget_results):
    return request.param, Session(retarget_results[request.param])


ALL_KERNELS = all_kernel_names() + loop_kernel_names()


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
def test_backend_output_matches_reference(target_session, kernel_name):
    target, session = target_session
    program = kernel_program(kernel_name)
    environment = seed_environment(program)
    compiled = session.compile_program(program)
    simulated = compiled.simulate(environment)
    reference = program.execute(dict(environment))
    mismatches = {
        key: (simulated.get(key, 0), value)
        for key, value in observables(reference).items()
        if simulated.get(key, 0) != value
    }
    assert not mismatches, (target, kernel_name, mismatches)


@pytest.mark.parametrize("kernel_name", loop_kernel_names())
def test_loop_kernel_equals_unrolled_counterpart(target_session, kernel_name):
    """At the documented trip count, the loop form and the hand-unrolled
    figure-2 kernel compute identical observable results."""
    target, session = target_session
    kernel = get_kernel(kernel_name)
    assert kernel.unrolled, kernel_name
    loop_program = kernel_program(kernel_name)
    unrolled_program = kernel_program(kernel.unrolled)
    environment = seed_environment(loop_program)
    loop_out = session.compile_program(loop_program).simulate(environment)
    unrolled_out = session.compile_program(unrolled_program).simulate(environment)
    shared = set(unrolled_program.all_variables()) & set(loop_out)
    mismatches = {
        key: (loop_out.get(key, 0), unrolled_out.get(key, 0))
        for key in shared
        if loop_out.get(key, 0) != unrolled_out.get(key, 0)
    }
    assert not mismatches, (target, kernel_name, mismatches)


@pytest.mark.parametrize("preset", ["no-scheduling", "no-compaction", "conventional"])
def test_backend_ablations_stay_correct_on_loops(retarget_results, preset):
    """Every ablation preset still produces observably correct code for a
    loop kernel (the presets reconfigure exactly the passes this suite
    guards)."""
    retarget_result = retarget_results["tms320c25"]
    session = Session(retarget_result, config=PipelineConfig.preset(preset))
    program = kernel_program("dot_product_loop")
    environment = seed_environment(program)
    compiled = session.compile_program(program)
    simulated = compiled.simulate(environment)
    reference = program.execute(dict(environment))
    for key, value in observables(reference).items():
        assert simulated.get(key, 0) == value, (preset, key)
