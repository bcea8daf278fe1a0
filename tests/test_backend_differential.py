"""Backend differential suite: schedule + spill + compaction output must
RT-simulate observably equal to reference execution of the source program
for every DSPStone-capable target x kernel (unrolled *and* loop forms).

The existing differential suites cover selection (`test_selector_differential`)
and the optimizer (`test_opt_differential`); this one exercises the backend
passes behind them, in *storage-faithful* simulation mode: register reads
consume whatever the register actually holds, so a scheduling or spill bug
produces a stale value and a failing comparison instead of being papered
over by the simulator's value table.
"""

import pytest

from repro.dspstone import all_kernel_names, get_kernel, kernel_program, loop_kernel_names
from repro.hdl.ast import ModuleKind
from repro.opt import OPT_TEMP_PREFIXES
from repro.toolchain import PipelineConfig, Session

#: Targets whose grammars cover the DSPStone kernels (the other built-ins
#: cannot compile any DSPStone kernel: no multiplier / no usable ALU path).
DSP_TARGETS = ("demo", "ref", "tms320c25")


def _memory_storages(retarget_result):
    return {
        module.name
        for module in retarget_result.netlist.sequential_modules()
        if module.kind == ModuleKind.MEMORY
    }


def _seed_environment(program):
    environment = {}
    for name, size in sorted(program.arrays.items()):
        for index in range(size):
            environment["%s[%d]" % (name, index)] = (index * 31 + len(name) * 7) % 95 + 1
    for position, scalar in enumerate(sorted(program.scalars)):
        environment[scalar] = (position * 13 + 5) % 50
    return environment


def _observables(environment):
    return {
        key: value
        for key, value in environment.items()
        if not key.startswith(OPT_TEMP_PREFIXES)
    }


def _faithful_simulate(result, retarget_result, environment):
    """Simulate a compilation result in storage-faithful mode."""
    from repro.sim.rtsim import RTSimulator

    simulator = RTSimulator(
        dict(environment), memory_storages=_memory_storages(retarget_result)
    )
    return simulator.run_cfg(list(result.block_codes))


@pytest.fixture(scope="module", params=DSP_TARGETS)
def target_session(request, retarget_results):
    retarget_result = retarget_results[request.param]
    return request.param, retarget_result, Session(retarget_result)


ALL_KERNELS = all_kernel_names() + loop_kernel_names()


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
def test_backend_output_matches_reference(target_session, kernel_name):
    target, retarget_result, session = target_session
    program = kernel_program(kernel_name)
    environment = _seed_environment(program)
    compiled = session.compile_program(program)
    simulated = _faithful_simulate(compiled, retarget_result, environment)
    reference = program.execute(dict(environment))
    mismatches = {
        key: (simulated.get(key, 0), value)
        for key, value in _observables(reference).items()
        if simulated.get(key, 0) != value
    }
    assert not mismatches, (target, kernel_name, mismatches)


@pytest.mark.parametrize("kernel_name", loop_kernel_names())
def test_loop_kernel_equals_unrolled_counterpart(target_session, kernel_name):
    """At the documented trip count, the loop form and the hand-unrolled
    figure-2 kernel compute identical observable results."""
    target, retarget_result, session = target_session
    kernel = get_kernel(kernel_name)
    assert kernel.unrolled, kernel_name
    loop_program = kernel_program(kernel_name)
    unrolled_program = kernel_program(kernel.unrolled)
    environment = _seed_environment(loop_program)
    loop_out = _faithful_simulate(
        session.compile_program(loop_program), retarget_result, environment
    )
    unrolled_out = _faithful_simulate(
        session.compile_program(unrolled_program), retarget_result, environment
    )
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
    environment = _seed_environment(program)
    compiled = session.compile_program(program)
    simulated = _faithful_simulate(compiled, retarget_result, environment)
    reference = program.execute(dict(environment))
    for key, value in _observables(reference).items():
        assert simulated.get(key, 0) == value, (preset, key)
