"""Unit tests for the ROBDD manager."""

import itertools
import pickle
import random
import weakref

import pytest

from repro.bdd import BDDManager


@pytest.fixture()
def manager():
    return BDDManager()


class TestConstants:
    def test_true_is_tautology(self, manager):
        assert manager.true.is_tautology()
        assert manager.true.is_true()

    def test_false_is_unsatisfiable(self, manager):
        assert not manager.false.satisfiable()
        assert manager.false.is_false()

    def test_constant_helper(self, manager):
        assert manager.constant(True) == manager.true
        assert manager.constant(False) == manager.false

    def test_constants_are_constant(self, manager):
        assert manager.true.is_constant()
        assert manager.false.is_constant()
        assert not manager.variable("x").is_constant()


class TestVariables:
    def test_variable_is_satisfiable_but_not_tautology(self, manager):
        x = manager.variable("x")
        assert x.satisfiable()
        assert not x.is_tautology()

    def test_variable_is_hash_consed(self, manager):
        assert manager.variable("x") == manager.variable("x")

    def test_declared_variables_keep_order(self, manager):
        manager.variable("b")
        manager.variable("a")
        manager.variable("c")
        assert manager.declared_variables() == ["b", "a", "c"]


class TestConnectives:
    def test_and_with_false_is_false(self, manager):
        x = manager.variable("x")
        assert (x & manager.false).is_false()

    def test_and_with_true_is_identity(self, manager):
        x = manager.variable("x")
        assert (x & manager.true) == x

    def test_or_with_true_is_true(self, manager):
        x = manager.variable("x")
        assert (x | manager.true).is_true()

    def test_x_and_not_x_is_false(self, manager):
        x = manager.variable("x")
        assert (x & ~x).is_false()

    def test_x_or_not_x_is_true(self, manager):
        x = manager.variable("x")
        assert (x | ~x).is_true()

    def test_double_negation(self, manager):
        x = manager.variable("x")
        assert ~(~x) == x

    def test_xor_self_is_false(self, manager):
        x = manager.variable("x")
        assert (x ^ x).is_false()

    def test_xor_with_true_is_negation(self, manager):
        x = manager.variable("x")
        assert (x ^ manager.true) == ~x

    def test_de_morgan(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        assert ~(x & y) == (~x | ~y)

    def test_implies(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        implication = x.implies(y)
        assert implication.evaluate({"x": False, "y": False})
        assert not implication.evaluate({"x": True, "y": False})

    def test_iff(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        equivalence = x.iff(y)
        assert equivalence.evaluate({"x": True, "y": True})
        assert not equivalence.evaluate({"x": True, "y": False})

    def test_mixing_managers_is_rejected(self, manager):
        other = BDDManager()
        with pytest.raises(ValueError):
            _ = manager.variable("x") & other.variable("x")


class TestQueries:
    def test_support(self, manager):
        x, y, z = (manager.variable(n) for n in "xyz")
        function = (x & y) | z
        assert function.support() == ["x", "y", "z"]

    def test_support_of_constant_is_empty(self, manager):
        assert manager.true.support() == []

    def test_restrict_to_true_branch(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        assert (x & y).restrict({"x": True}) == y
        assert (x & y).restrict({"x": False}).is_false()

    def test_restrict_ignores_unknown_variables(self, manager):
        x = manager.variable("x")
        assert x.restrict({"nope": True}) == x

    def test_sat_count(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        assert (x & y).sat_count() == 1
        assert (x | y).sat_count() == 3
        assert manager.true.sat_count() == 4

    def test_sat_count_explicit_width(self, manager):
        x = manager.variable("x")
        manager.variable("y")
        manager.variable("z")
        assert x.sat_count(nvars=3) == 4

    def test_one_sat_of_false_is_none(self, manager):
        assert manager.false.one_sat() is None

    def test_one_sat_satisfies(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        function = x & ~y
        assignment = function.one_sat()
        assert function.evaluate(assignment)

    def test_evaluate_defaults_missing_to_false(self, manager):
        x = manager.variable("x")
        assert not x.evaluate({})

    def test_conjoin_and_disjoin(self, manager):
        variables = [manager.variable(n) for n in "abc"]
        conjunction = manager.conjoin(iter(variables))
        disjunction = manager.disjoin(iter(variables))
        assert conjunction.sat_count() == 1
        assert disjunction.sat_count() == 7
        assert manager.conjoin(iter([])).is_true()
        assert manager.disjoin(iter([])).is_false()


class TestStructuralSharing:
    def test_equivalent_functions_share_node(self, manager):
        x, y = manager.variable("x"), manager.variable("y")
        a = (x & y) | (x & ~y)
        assert a == x

    def test_node_count_grows_modestly(self, manager):
        variables = [manager.variable("v%d" % i) for i in range(10)]
        function = manager.false
        for variable in variables:
            function = function | variable
        assert manager.num_nodes() < 200


def _random_formula(rng, depth):
    """A random formula over a, b, c, d as (Python expression, BDD builder)."""
    if depth == 0 or rng.random() < 0.2:
        name = rng.choice("abcd01")
        if name == "0":
            return "False", lambda m, v: m.false
        if name == "1":
            return "True", lambda m, v: m.true
        return name, lambda m, v: v[name]
    op = rng.choice(["&", "|", "^", "~"])
    left_text, left = _random_formula(rng, depth - 1)
    if op == "~":
        return "(not %s)" % left_text, lambda m, v: ~left(m, v)
    right_text, right = _random_formula(rng, depth - 1)
    python = {"&": "and", "|": "or", "^": "!="}[op]
    build = {
        "&": lambda m, v: left(m, v) & right(m, v),
        "|": lambda m, v: left(m, v) | right(m, v),
        "^": lambda m, v: left(m, v) ^ right(m, v),
    }[op]
    return "(bool(%s) %s bool(%s))" % (left_text, python, right_text), build


class TestTruthTables:
    def test_random_formulas_match_python_evaluation(self, manager):
        """Every connective, on every assignment of four variables, agrees
        with Python's Boolean operators; equal functions share one node."""
        rng = random.Random(7)
        variables = {name: manager.variable(name) for name in "abcd"}
        by_table = {}
        for _ in range(300):
            text, build = _random_formula(rng, 4)
            function = build(manager, variables)
            table = []
            for values in itertools.product([False, True], repeat=4):
                assignment = dict(zip("abcd", values))
                expected = bool(eval(text, {}, dict(assignment)))
                assert function.evaluate(assignment) == expected, text
                table.append(expected)
            assert by_table.setdefault(tuple(table), function.node) == function.node


class TestPickle:
    def test_pickle_stores_only_nodes_and_variable_order(self, manager):
        x, y, z = (manager.variable(name) for name in "xyz")
        function = (x & y) | ~z
        before = manager.num_nodes()
        state = manager.__getstate__()
        assert set(state) == {"nodes", "variables"}
        loaded_function = pickle.loads(pickle.dumps(function))
        loaded = loaded_function.manager
        assert loaded.num_nodes() == before
        assert loaded.declared_variables() == ["x", "y", "z"]
        # The unique table is rebuilt: rebuilding a function finds its nodes.
        lx, ly, lz = (loaded.variable(name) for name in "xyz")
        assert ((lx & ly) | ~lz) == loaded_function
        assert loaded.num_nodes() == before
        assert loaded.true.is_true() and loaded.false.is_false()

    def test_manager_is_weak_referenceable(self, manager):
        loaded = pickle.loads(pickle.dumps(manager))
        assert weakref.ref(loaded)() is loaded
