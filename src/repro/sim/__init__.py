"""RT-level simulation of generated code.

The simulator executes the RT instances produced by code selection over a
variable environment, block by block along the program's CFG, and is used
by the test suite to check that generated code computes exactly the same
values as the reference execution of the IR program -- the key end-to-end
correctness invariant of the compiler.
"""

from repro.sim.rtsim import (
    RTSimulator,
    SimulationError,
    SimulationTrace,
    TraceStep,
    trace_cfg_execution,
)

__all__ = [
    "RTSimulator",
    "SimulationError",
    "SimulationTrace",
    "TraceStep",
    "trace_cfg_execution",
]
