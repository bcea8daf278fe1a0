"""Property-based tests of the compiler pipeline (hypothesis).

Random straight-line programs over a fixed set of variables are generated,
compiled for the TMS320C25-style target, and executed by the RT-level
simulator; the result must match the reference execution of the IR.  This
exercises code selection, chained-template semantics, scheduling, spilling
and the simulator together.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen.selection import CodeGenerationError
from repro.expansion.commutativity import swap_variants
from repro.ir.expr import evaluate_expr
from repro.ise import OpNode, RegLeaf

_VARIABLES = ["v0", "v1", "v2", "v3"]
# Operators that every built-in DSP-style target supports on memory operands.
_OPERATORS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def _expressions(draw, depth=0):
    # The top level is always an operator so that no statement degenerates to
    # a bare variable copy (those are covered at zero cost by design).
    if depth >= 3 or (depth > 0 and draw(st.booleans())):
        if draw(st.booleans()):
            return draw(st.sampled_from(_VARIABLES))
        return str(draw(st.integers(min_value=0, max_value=99)))
    operator = draw(st.sampled_from(_OPERATORS))
    left = draw(_expressions(depth=depth + 1))
    right = draw(_expressions(depth=depth + 1))
    return "(%s %s %s)" % (left, operator, right)


@st.composite
def _programs(draw):
    statement_count = draw(st.integers(min_value=1, max_value=4))
    lines = ["int %s;" % ", ".join(_VARIABLES)]
    for _ in range(statement_count):
        target = draw(st.sampled_from(_VARIABLES))
        lines.append("%s = %s;" % (target, draw(_expressions())))
    return "\n".join(lines)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=_programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_generated_code_matches_reference_execution(tms_compiler, source, seed):
    try:
        compiled = tms_compiler.compile(source, name="random")
    except CodeGenerationError:
        pytest.skip("expression not coverable on this target")
    # Reference-execute the *original* lowered program, not the one the
    # backend selected: the default pipeline runs the IR optimizer first,
    # so this property also pins the optimizer's rewrites to the source
    # semantics on random programs.
    from repro.frontend.lowering import lower_to_program

    block = lower_to_program(source, name="random").single_block()
    import random

    rng = random.Random(seed)
    environment = {name: rng.randint(-100, 100) for name in _VARIABLES}
    reference = block.execute(environment)
    simulated = compiled.simulate(environment)
    mask = 0xFFFF
    for key, value in reference.items():
        assert (value & mask) == (simulated.get(key, 0) & mask)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=_programs())
def test_code_size_at_least_one_instruction_per_statement(tms_result, source):
    # This property is about selection/compaction, so it runs the raw
    # pre-optimizer pipeline: the IR optimizer may legitimately fold a
    # statement like ``v0 = v1 + 0`` into a zero-instruction copy.
    from repro.toolchain import PipelineConfig, Session

    session = Session(tms_result, config=PipelineConfig(use_optimizer=False))
    try:
        compiled = session.compile(source, name="random")
    except CodeGenerationError:
        pytest.skip("expression not coverable on this target")
    # every statement of these programs computes something, so it needs at
    # least one instruction, and compaction can never drop below the number
    # of statements with non-trivial right-hand sides
    assert compiled.operation_count >= compiled.program.statement_count()
    assert compiled.code_size <= compiled.operation_count
    # The optimizer, when it does run, must never be worse on either axis.
    optimized = Session(tms_result).compile(source, name="random")
    assert optimized.code_size <= compiled.code_size
    assert optimized.operation_count <= compiled.operation_count


@settings(max_examples=30, deadline=None)
@given(
    operators=st.lists(st.sampled_from(["add", "mul", "and", "or", "xor", "sub"]), min_size=1, max_size=3)
)
def test_commutative_variants_preserve_evaluation(operators):
    """Swapping operands of commutative operators never changes the value."""
    pattern = RegLeaf("a")
    for index, operator in enumerate(operators):
        pattern = OpNode(operator, (pattern, RegLeaf("v%d" % index)))
    environment = {"a": 7, "v0": 3, "v1": -5, "v2": 11}

    def evaluate(node):
        from repro.ir.expr import Op, VarRef

        if isinstance(node, RegLeaf):
            return VarRef(node.storage)
        return Op(node.op, tuple(evaluate(child) for child in node.operands))

    reference = evaluate_expr(evaluate(pattern), environment)
    for variant in swap_variants(pattern):
        assert evaluate_expr(evaluate(variant), environment) == reference
