"""Property-based tests for the BDD engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, BitVector

_NAMES = ["a", "b", "c", "d"]


def _expressions(depth=3):
    """Strategy producing (builder, evaluator) pairs for Boolean formulas."""
    leaves = st.sampled_from(_NAMES).map(
        lambda name: ("var", name)
    ) | st.booleans().map(lambda value: ("const", value))

    def extend(children):
        return st.tuples(st.sampled_from(["and", "or", "xor"]), children, children) | \
            st.tuples(st.just("not"), children)

    return st.recursive(leaves, extend, max_leaves=12)


def _build(manager, tree):
    if tree[0] == "var":
        return manager.variable(tree[1])
    if tree[0] == "const":
        return manager.constant(tree[1])
    if tree[0] == "not":
        return ~_build(manager, tree[1])
    op, left, right = tree
    a, b = _build(manager, left), _build(manager, right)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def _evaluate(tree, assignment):
    if tree[0] == "var":
        return assignment[tree[1]]
    if tree[0] == "const":
        return tree[1]
    if tree[0] == "not":
        return not _evaluate(tree[1], assignment)
    op, left, right = tree
    a, b = _evaluate(left, assignment), _evaluate(right, assignment)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    return a != b


@settings(max_examples=60, deadline=None)
@given(tree=_expressions(), bits=st.lists(st.booleans(), min_size=4, max_size=4))
def test_bdd_agrees_with_direct_evaluation(tree, bits):
    manager = BDDManager()
    for name in _NAMES:
        manager.variable(name)
    function = _build(manager, tree)
    assignment = dict(zip(_NAMES, bits))
    assert function.evaluate(assignment) == _evaluate(tree, assignment)


@settings(max_examples=40, deadline=None)
@given(tree=_expressions())
def test_one_sat_returns_a_model(tree):
    manager = BDDManager()
    for name in _NAMES:
        manager.variable(name)
    function = _build(manager, tree)
    model = function.one_sat()
    if model is None:
        assert not function.satisfiable()
    else:
        assert function.evaluate(model)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
)
def test_bitvector_add_matches_integer_add(a, b):
    manager = BDDManager()
    width = 9
    left = BitVector.constant(manager, a, width)
    right = BitVector.constant(manager, b, width)
    assert left.add(right).constant_value() == (a + b) % (1 << width)


@settings(max_examples=40, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=255),
    other=st.integers(min_value=0, max_value=255),
)
def test_bitvector_equality_is_exact(value, other):
    manager = BDDManager()
    vector = BitVector.constant(manager, value, 8)
    condition = vector.equals_constant(other)
    assert condition.is_true() == (value == other)
    assert condition.is_false() == (value != other)
