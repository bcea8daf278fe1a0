"""A known miscompile, pinned: emitted code can read a register after it
was overwritten within the same statement.

The invariant checked here: every operand read from a register finds the
value id the register was last written with in that statement (a
register not yet written in the statement holds its input value and is
not checked).  It fails today, for two reasons:

* the spill pass protects only ``tmp:`` values.  On tms320c25,
  ``x = 5194 + (a + a);`` loads the constant into ACC, then overwrites
  ACC with ``a`` before the final ``add`` reads the constant from it;
* selection can emit an RT that reads two different values from one
  register: on ref, ``fir`` selects ``R0 := add(R0, mul(R0, DMEM))`` on
  ``tmp:1`` and ``var:x[2]``, both in R0.

Neither oracle sees it: the RT simulator re-evaluates a chain RT whose
operand node is its own subject node from the environment, and the
pipeline verifier mirrors that.  The cases below are strict ``xfail``:
when the code generator is fixed they pass, and the marks must go.  See
the "stale register reads" item of ROADMAP.md.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import pytest

from repro.dspstone.kernels import all_kernel_names, kernel_program, loop_kernel_names
from repro.hdl.ast import ModuleKind
from repro.toolchain import Session


def register_storages(retarget_result) -> Set[str]:
    return {
        name
        for name, module in retarget_result.netlist.modules.items()
        if module.kind == ModuleKind.REGISTER
    }


def stale_register_reads(result, registers: Set[str]) -> List[Tuple[str, str, str, str]]:
    """Every register read, per statement, that finds another value id
    than the one the register was last written with in the statement:
    ``(statement, operation, value read, value held)``."""
    stale = []
    for code in result.statement_codes:
        holds = {}
        for instance in code.instances:
            if instance.kind in ("rt", "spill_store"):
                for value_id, storage in instance.operands:
                    held = holds.get(storage, value_id)
                    if held != value_id:
                        stale.append((str(code.statement), instance.describe(), value_id, held))
            if instance.kind in ("rt", "spill_reload") and instance.result_storage in registers:
                holds[instance.result_storage] = instance.result_id
    return stale


def _stale(retarget_result, program=None, source=None):
    session = Session(retarget_result)
    if source is not None:
        result = session.compile(source)
    else:
        result = session.compile_program(kernel_program(program))
    return stale_register_reads(result, register_storages(retarget_result))


def test_tms320c25_kernels_read_what_their_registers_hold(tms_result):
    for kernel in all_kernel_names() + loop_kernel_names():
        assert _stale(tms_result, program=kernel) == [], kernel


_KNOWN_STALE = pytest.mark.xfail(
    strict=True, reason="stale register read: see ROADMAP.md, stale register reads"
)


@_KNOWN_STALE
def test_tms320c25_constant_survives_until_read(tms_result):
    assert _stale(tms_result, source="int a, x; x = 5194 + (a + a);") == []


@_KNOWN_STALE
@pytest.mark.parametrize("kernel", ["fir", "dot_product", "complex_multiply"])
def test_ref_kernel_reads_what_its_registers_hold(kernel, ref_result):
    assert _stale(ref_result, program=kernel) == []


@_KNOWN_STALE
def test_demo_biquad_one_reads_what_its_registers_hold(demo_result):
    assert _stale(demo_result, program="biquad_one") == []
