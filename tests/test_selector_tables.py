"""Unit tests for the offline-compiled matcher tables."""

import pickle

from repro.grammar.grammar import PatNonterm, PatTerm, RuleKind, TreeGrammar
from repro.selector import GrammarTables, chain_closure_from


def _toy_grammar():
    grammar = TreeGrammar(processor="toy")
    grammar.terminals.update({"ASSIGN", "MEM", "ACC", "add", "mul", "Const"})
    grammar.nonterminals.update({"START", "nt_MEM", "nt_ACC"})
    grammar.add_rule(
        "START", PatTerm("ASSIGN", (PatTerm("MEM"), PatNonterm("nt_MEM"))), 0, RuleKind.START
    )
    grammar.add_rule(
        "nt_ACC", PatTerm("add", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM"))), 1, RuleKind.RT
    )
    grammar.add_rule(
        "nt_ACC",
        PatTerm(
            "add",
            (PatNonterm("nt_ACC"), PatTerm("mul", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM")))),
        ),
        1,
        RuleKind.RT,
    )
    grammar.add_rule("nt_ACC", PatNonterm("nt_MEM"), 1, RuleKind.RT)  # load
    grammar.add_rule("nt_MEM", PatNonterm("nt_ACC"), 1, RuleKind.RT)  # store
    grammar.add_rule("nt_ACC", PatTerm("Const", value=0), 0, RuleKind.RT)
    grammar.add_rule("nt_MEM", PatTerm("MEM"), 0, RuleKind.STOP)
    return grammar


class TestNormalForm:
    def test_inner_pattern_nodes_get_fresh_nonterminals(self):
        tables = GrammarTables.build(_toy_grammar())
        (assign,) = tables.shape_rules[("ASSIGN", 2)]
        fresh_mem, stop_mem = tables.shape_rules[("MEM", 0)]
        assert assign.operands == (fresh_mem.lhs, "nt_MEM")
        assert fresh_mem.lhs not in {"START", "nt_MEM", "nt_ACC"}
        assert (fresh_mem.cost, fresh_mem.rule, fresh_mem.leaves) == (0, None, ())
        assert stop_mem.rule.index == 6
        # add(nt_ACC, mul(nt_ACC, nt_MEM)) reads the mul through a fresh
        # non-terminal and keeps the original rule's leaf specs.
        plain, chained = tables.shape_rules[("add", 2)]
        assert [plain.rule.index, chained.rule.index] == [1, 2]
        (fresh_mul,) = tables.shape_rules[("mul", 2)]
        assert chained.operands == ("nt_ACC", fresh_mul.lhs)
        assert fresh_mul.operands == ("nt_ACC", "nt_MEM")
        assert chained.leaves == (
            ((0,), "nt_ACC"),
            ((1, 0), "nt_ACC"),
            ((1, 1), "nt_MEM"),
        )

    def test_identical_inner_patterns_share_one_nonterminal(self):
        grammar = _toy_grammar()
        grammar.add_rule(
            "nt_MEM",
            PatTerm(
                "add",
                (PatNonterm("nt_ACC"), PatTerm("mul", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM")))),
            ),
            2,
            RuleKind.RT,
        )
        tables = GrammarTables.build(grammar)
        (fresh_mul,) = tables.shape_rules[("mul", 2)]
        assert [shape.operands[1] for shape in tables.shape_rules[("add", 2)]] == [
            "nt_MEM",
            fresh_mul.lhs,
            fresh_mul.lhs,
        ]
        assert fresh_mul.lhs not in tables.chain_closure

    def test_hardwired_values_are_collected(self):
        tables = GrammarTables.build(_toy_grammar())
        (zero,) = tables.shape_rules[("Const", 0)]
        assert zero.value == 0
        assert tables.hardwired_values == frozenset({0})


class TestChainClosure:
    def test_closure_entries_and_deltas(self):
        tables = GrammarTables.build(_toy_grammar())
        acc_closure = dict(
            (target, (delta, rules)) for target, delta, rules in tables.closure_from("nt_ACC")
        )
        # nt_ACC -> nt_MEM via the store rule (cost 1).
        assert acc_closure["nt_MEM"][0] == 1
        assert [r.index for r in acc_closure["nt_MEM"][1]] == [4]
        mem_closure = dict(
            (target, (delta, rules)) for target, delta, rules in tables.closure_from("nt_MEM")
        )
        assert mem_closure["nt_ACC"][0] == 1

    def test_closure_excludes_trivial_self_entry(self):
        tables = GrammarTables.build(_toy_grammar())
        for source, entries in tables.chain_closure.items():
            assert all(target != source for target, _delta, _rules in entries)

    def test_multi_step_paths_are_transitive(self):
        grammar = TreeGrammar(processor="chainy")
        grammar.terminals.update({"X"})
        grammar.nonterminals.update({"a", "b", "c"})
        grammar.add_rule("a", PatTerm("X"), 0, RuleKind.RT)
        grammar.add_rule("b", PatNonterm("a"), 2, RuleKind.RT)
        grammar.add_rule("c", PatNonterm("b"), 3, RuleKind.RT)
        closure = dict(
            (target, (delta, [r.index for r in rules]))
            for target, delta, rules in chain_closure_from(
                "a", GrammarTables.build(grammar).chain_rules_by_source
            )
        )
        assert closure["b"] == (2, [1])
        assert closure["c"] == (5, [1, 2])

    def test_cost_ties_break_on_lowest_rule_index_path(self):
        grammar = TreeGrammar(processor="tie")
        grammar.terminals.update({"X"})
        grammar.nonterminals.update({"a", "b"})
        grammar.add_rule("a", PatTerm("X"), 0, RuleKind.RT)
        grammar.add_rule("b", PatNonterm("a"), 1, RuleKind.RT)  # index 1
        grammar.add_rule("b", PatNonterm("a"), 1, RuleKind.RT)  # index 2, same cost
        tables = GrammarTables.build(grammar)
        (entry,) = tables.closure_from("a")
        assert entry[0] == "b" and entry[1] == 1
        assert [r.index for r in entry[2]] == [1]


class TestBuildMetadata:
    def test_build_time_is_recorded(self):
        tables = GrammarTables.build(_toy_grammar())
        assert tables.build_time_s > 0.0

    def test_stats_cover_shape_rules_and_closure(self):
        tables = GrammarTables.build(_toy_grammar())
        stats = tables.stats()
        assert stats["indexed_rules"] == 5
        # One shape rule per non-chain rule, plus the zero-cost rules of
        # the fresh MEM and mul non-terminals.
        assert stats["fresh_nonterminals"] == 2
        assert stats["shape_rules"] == 5 + 2
        assert stats["chain_rules"] == 2
        assert stats["closure_sources"] >= 2

    def test_tables_pickle_roundtrip(self):
        tables = GrammarTables.build(_toy_grammar())
        clone = pickle.loads(pickle.dumps(tables))
        assert clone.shape_rules == tables.shape_rules
        assert clone.hardwired_values == tables.hardwired_values
        assert clone.stats() == tables.stats()
        assert [shape.rule.index for shape in clone.shape_rules[("add", 2)]] == [1, 2]
