"""Helpers shared by several test modules."""

import dataclasses

#: Deterministic simulation environments (several, so a value-dependent
#: bug cannot hide behind one lucky assignment).  All values non-zero.
SEEDS = (0, 1, 2)

#: With ``d`` bound to a register, the RT that defines ``d`` reads the
#: sum back from that register.
OVERWRITE_SOURCE = "int a, b, c, d; d = (a + b) - c;"


def seeded_environment(program, seed):
    """Initial values for every variable of ``program`` under ``seed``."""
    return {
        name: (seed * 41 + index * 17 + 3) % 251 + 1
        for index, name in enumerate(sorted(program.all_variables()))
    }


def overwritten_register_result(session, register):
    """``OVERWRITE_SOURCE`` compiled with ``d`` bound to ``register``,
    and a copy of the result whose code loads ``a`` into ``register``
    again between the add and the subtract that reads the sum from it.
    Returns ``(compiled, edited)``."""
    compiled = session.compile(OVERWRITE_SOURCE, binding_overrides={"d": register})
    (block,) = compiled.block_codes
    (code,) = block.codes
    load_a, add, sub = code.instances
    assert [instance.result_storage for instance in code.instances] == [register] * 3
    assert sub.operands[0] == (add.result_id, register)
    edited = dataclasses.replace(code, instances=[load_a, add, load_a, sub])
    block = dataclasses.replace(block, codes=[edited])
    return compiled, dataclasses.replace(compiled, block_codes=(block,))
