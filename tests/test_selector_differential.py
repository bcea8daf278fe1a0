"""Differential and performance-semantics tests for the BURS matcher.

The on-demand automaton (depth-one normal form, precomputed chain
closure, memoized transitions over cost-normalized states) must produce
exactly the covers of the interpretive oracle (``matcher="interpretive"``)
on every built-in target, every DSPStone kernel and random ``ref`` trees
-- identical costs, rule index sequences and leaves.  On top of that,
this module pins down the memo semantics (node_cost reuse, boundedness,
cross-statement sharing, the automaton's hit rate and state count on
generated programs) and the explicit-stack walks (deep ~5k-node chain
expressions compile without ``RecursionError``).
"""

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.selection import build_subject_tree, select_statement
from repro.diagnostics import ReproError
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.fuzz.oracles import TargetHarness
from repro.fuzz.generator import generate_source
from repro.ir.binding import BindingError, bind_program
from repro.ir.expr import Const, Op, VarRef
from repro.ir.program import BasicBlock, Program, Statement
from repro.selector import CodeSelector, SubjectNode
from repro.selector.burs import SelectionError
from repro.toolchain import PipelineConfig, Session, default_registry


@pytest.fixture(scope="module")
def interpretive_selectors(retarget_results):
    """One interpretive-matcher selector per target, sharing the tables."""
    return {
        name: CodeSelector(
            result.grammar, tables=result.selector.tables, matcher="interpretive"
        )
        for name, result in retarget_results.items()
    }


def _statement_subjects(target_result, kernel):
    """Subject trees for every statement of a kernel on one target, or
    None when the kernel's variables cannot be bound on that target."""
    program = kernel_program(kernel)
    try:
        binding = bind_program(program, target_result.netlist)
    except BindingError:
        return None
    subjects = []
    for block in program.blocks:
        for statement in block.statements:
            subjects.append(build_subject_tree(statement, binding))
    return subjects


class TestDifferentialCovers:
    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    def test_kernels_cover_identically_on_target(
        self, target, retarget_results, interpretive_selectors
    ):
        """Table-driven and interpretive matchers agree on cost and exact
        rule sequence for every DSPStone kernel statement (or both fail)."""
        result = retarget_results[target]
        table_selector = result.selector
        interp_selector = interpretive_selectors[target]
        compared = 0
        for kernel in all_kernel_names():
            subjects = _statement_subjects(result, kernel)
            if subjects is None:
                continue
            for subject in subjects:
                compared += 1
                try:
                    expected = interp_selector.select(subject)
                except SelectionError:
                    # Both matchers must agree that no cover exists.
                    with pytest.raises(SelectionError):
                        table_selector.select(subject)
                    continue
                got = table_selector.select(subject)
                assert got.cost == expected.cost
                assert got.rule_indices() == expected.rule_indices()
        assert compared > 0, "no kernel statement was comparable on %s" % target

    def test_memoized_relabelling_is_still_identical(self, tms_result):
        """A second pass over the same workload (memo fully warm) must not
        change any cover."""
        selector = CodeSelector(tms_result.grammar, tables=tms_result.selector.tables)
        subjects = _statement_subjects(tms_result, "fir")
        cold = [selector.select(s) for s in subjects]
        warm = [selector.select(s) for s in subjects]
        for before, after in zip(cold, warm):
            assert after.cost == before.cost
            assert after.rule_indices() == before.rule_indices()

    def test_unknown_matcher_is_rejected(self, demo_result):
        with pytest.raises(ValueError):
            CodeSelector(demo_result.grammar, matcher="quantum")


_REF_LEAVES = ("DMEM", "R0", "R1", "R2", "R3", "PIN")
_REF_DESTINATIONS = ("DMEM", "POUT", "R0", "R1", "R2", "R3", "AR")
_REF_BINARY = ("add", "sub", "mul", "and", "or", "xor")


def _const(value):
    return SubjectNode("Const", const_value=value)


def _ref_trees():
    """Random ``ASSIGN`` subject trees in the ``ref`` grammar's
    vocabulary: constants 1 and 2 (hardwired by some rules) among the
    leaves, ``mul`` and ``neg`` under ``add`` (the multiply-accumulate and
    subtract patterns), and shifts by 1 (covered) or 2 (not covered)."""
    leaves = st.one_of(
        st.sampled_from(_REF_LEAVES).map(SubjectNode),
        st.sampled_from((0, 1, 2, 3, -1, 255)).map(_const),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(_REF_BINARY), children, children).map(
                lambda t: SubjectNode(t[0], [t[1], t[2]])
            ),
            st.tuples(children, children, children).map(
                lambda t: SubjectNode("add", [t[0], SubjectNode("mul", [t[1], t[2]])])
            ),
            st.tuples(children, children).map(
                lambda t: SubjectNode("add", [t[0], SubjectNode("neg", [t[1]])])
            ),
            st.tuples(children, st.sampled_from((1, 2))).map(
                lambda t: SubjectNode("shl", [t[0], _const(t[1])])
            ),
        )

    expressions = st.recursive(leaves, extend, max_leaves=10)
    return st.tuples(st.sampled_from(_REF_DESTINATIONS), expressions).map(
        lambda t: SubjectNode("ASSIGN", [SubjectNode(t[0]), t[1]])
    )


class TestInterpretiveOracle:
    @pytest.mark.parametrize("target", ("demo", "ref", "tms320c25"))
    def test_interpretive_session_never_labels_through_the_automaton(
        self, target, retarget_results
    ):
        """The fuzz ``matcher`` oracle compiles through a session whose
        selector is interpretive (built as ``TargetHarness`` builds it).
        If the compile path labelled through the automaton whatever the
        selector's matcher, that oracle would compare the automaton with
        itself and still agree."""
        harness = TargetHarness.create(target, retarget_result=retarget_results[target])
        interp = harness.session_interp
        assert interp.selector.matcher == "interpretive"
        for kernel in all_kernel_names() + loop_kernel_names():
            expected = harness.session_opt.compile_kernel(kernel).listing()
            assert interp.compile_kernel(kernel).listing() == expected, kernel
        stats = interp.selector.stats()
        assert stats["states"] == 0
        assert stats["memo_entries"] == 0
        assert stats["nodes_labelled"] > 0


def _cover(result):
    return [
        (
            reduction.rule.index,
            id(reduction.node),
            reduction.nonterminal,
            [(id(leaf), nonterminal) for leaf, nonterminal in reduction.leaves],
        )
        for reduction in result.reductions
    ]


@pytest.fixture(scope="module")
def ref_automata(ref_result):
    """The shared ``ref`` selector, and one whose memo overflows often."""
    return (
        ref_result.selector,
        CodeSelector(ref_result.grammar, tables=ref_result.selector.tables, memo_size=16),
    )


class TestAutomatonExactness:
    @settings(max_examples=150, deadline=None)
    @given(tree=_ref_trees())
    def test_random_ref_trees_match_the_interpretive_oracle(
        self, tree, ref_automata, interpretive_selectors
    ):
        oracle = interpretive_selectors["ref"]
        expected_states = oracle.label(tree)
        try:
            expected = oracle.select(tree)
        except SelectionError:
            expected = None
        for automaton in ref_automata:
            if expected is None:
                with pytest.raises(SelectionError):
                    automaton.select(tree)
            else:
                got = automaton.select(tree)
                assert got.cost == expected.cost
                assert _cover(got) == _cover(expected)
            states = automaton.label(tree)
            for node in tree.post_order():
                got_costs = {nt: match.cost for nt, match in states[id(node)].items()}
                assert got_costs == {
                    nt: match.cost for nt, match in expected_states[id(node)].items()
                }


class TestAutomatonHealth:
    def test_generated_programs_share_few_states(self, ref_result):
        """A transition key that leaked absolute costs would keep every
        cover right while almost every lookup missed: pin the hit rate and
        the state count on programs that never repeat."""
        session = Session(ref_result)
        session.selector = CodeSelector(
            ref_result.grammar, tables=ref_result.selector.tables
        )
        compiled = 0
        for seed in range(200):
            try:
                session.compile(generate_source(seed))
            except ReproError:
                continue
            compiled += 1
        assert compiled > 150
        stats = session.selector.stats()
        assert stats["nodes_labelled"] == stats["memo_hits"] + stats["memo_misses"]
        assert stats["memo_hit_rate"] >= 0.9
        # 47 states at the time of writing.
        assert 0 < stats["states"] <= 64


class TestAutomatonThreads:
    def test_shared_selector_stays_exact_under_racing_clears(
        self, tms_result, interpretive_selectors
    ):
        """Threads sharing one selector whose tiny memo overflows all the
        time: racing clears and duplicate state interning may cost misses,
        never a wrong cover."""
        subjects = [
            subject
            for kernel in all_kernel_names() + loop_kernel_names()
            for subject in _statement_subjects(tms_result, kernel) or []
        ]
        oracle = interpretive_selectors["tms320c25"]
        expected = []
        for subject in subjects:
            try:
                cover = oracle.select(subject)
            except SelectionError:
                expected.append(None)
            else:
                expected.append((cover.cost, cover.rule_indices()))
        shared = CodeSelector(
            tms_result.grammar, tables=tms_result.selector.tables, memo_size=8
        )
        wrong = []
        finished = []

        def work(seed):
            order = list(range(len(subjects)))
            random.Random(seed).shuffle(order)
            for index in order * 3:
                try:
                    cover = shared.select(subjects[index])
                except SelectionError:
                    got = None
                else:
                    got = (cover.cost, cover.rule_indices())
                if got != expected[index]:
                    wrong.append(index)
            finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert wrong == []

    def test_threads_emit_identical_instances_from_a_fresh_selector(self, tms_result):
        """Threads selecting the same statements through one new selector
        race on its empty per-rule storage table and label shared IR into
        their own subject trees: every instance stream must equal the
        serial one."""
        statements = []
        for kernel in all_kernel_names() + loop_kernel_names():
            program = kernel_program(kernel)
            binding = bind_program(program, tms_result.netlist)
            for block in program.blocks:
                statements.extend((statement, binding) for statement in block.statements)

        def streams(selector):
            return [
                [
                    (i.result_id, i.result_storage, tuple(i.operands), i.defines_variable)
                    for i in select_statement(statement, selector, binding).instances
                ]
                for statement, binding in statements
            ]

        expected = streams(tms_result.selector)
        shared = CodeSelector(tms_result.grammar, tables=tms_result.selector.tables)
        results = {}

        def work(seed):
            results[seed] = streams(shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(got == expected for got in results.values())


class TestLabellingMemo:
    def test_node_cost_reuses_cached_states(self, demo_result):
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)
        root = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
            ],
        )
        first = selector.node_cost(root)
        misses_after_first = selector.memo_misses
        hits_after_first = selector.memo_hits
        assert misses_after_first > 0
        second = selector.node_cost(root)
        assert second == first
        # The second call recomputed nothing: every node's transition came
        # out of the memo.
        assert selector.memo_misses == misses_after_first
        assert selector.memo_hits == hits_after_first + root.size()
        # A structurally identical but fresh tree hits the memo too.
        fresh = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
            ],
        )
        assert selector.node_cost(fresh) == first
        assert selector.memo_misses == misses_after_first
        assert selector.stats()["memo_hit_rate"] > 0.0

    def test_structurally_identical_trees_share_states(self, demo_result):
        """Distinct node objects with identical structure hit the memo even
        when their payloads differ."""
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)

        def make(payload):
            return SubjectNode(
                "ASSIGN",
                [
                    SubjectNode("DMEM", payload=payload),
                    SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                ],
            )

        first = selector.select(make(("dest", "x")))
        hits_before = selector.memo_hits
        second = selector.select(make(("dest", "y")))
        assert selector.memo_hits > hits_before
        assert second.cost == first.cost
        assert second.rule_indices() == first.rule_indices()
        # Emission identity is preserved: reductions reference each tree's
        # own concrete nodes, not shared ones.
        assert second.reductions[-1].node is not first.reductions[-1].node

    def test_label_returns_states_for_every_node(self, demo_result):
        """The public label() contract: all nodes get a state, even when
        the memo is warm and subtrees repeat within one tree."""
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)

        def make():
            return SubjectNode(
                "ASSIGN",
                [
                    SubjectNode("DMEM"),
                    SubjectNode(
                        "add",
                        [
                            SubjectNode("mul", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                            SubjectNode("mul", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                        ],
                    ),
                ],
            )

        for _ in range(2):  # second pass runs against a fully warm memo
            root = make()
            states = selector.label(root)
            for node in root.post_order():
                assert id(node) in states
                assert states[id(node)], repr(node)

    def test_memo_disabled_reports_no_memo_traffic(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=0
        )
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=9)]
        )
        selector.label(root)
        stats = selector.stats()
        assert stats["memo_hits"] == 0
        assert stats["memo_misses"] == 0
        assert stats["nodes_labelled"] == 3

    def test_memo_is_bounded(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=4
        )
        for value in range(32):
            selector.node_cost(
                SubjectNode(
                    "ASSIGN",
                    [SubjectNode("DMEM"), SubjectNode("Const", const_value=value)],
                )
            )
        for op in ("add", "sub", "and", "or", "xor"):
            selector.node_cost(
                SubjectNode(
                    "ASSIGN",
                    [
                        SubjectNode("DMEM"),
                        SubjectNode(op, [SubjectNode("ACC"), SubjectNode("DMEM")]),
                    ],
                )
            )
        # More distinct transitions than the bound were computed.
        assert selector.memo_misses > 4
        assert len(selector._transitions) <= 4
        assert selector.stats()["states"] <= 4

    def test_memo_can_be_disabled(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=0
        )
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=7)]
        )
        assert selector.node_cost(root) == selector.node_cost(root)
        assert selector.memo_hits == 0
        assert len(selector._transitions) == 0

    def test_selector_pickles_without_memo(self, demo_result):
        selector = demo_result.selector
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=3)]
        )
        cost = selector.node_cost(root)
        clone = pickle.loads(pickle.dumps(selector))
        assert len(clone._transitions) == 0
        assert clone.matcher == selector.matcher
        assert clone.node_cost(root) == cost

    def test_sessions_share_selector_tables(self, tms_result):
        """Sessions (and therefore pooled service workers) built on one
        retarget result share one read-only table object and one memo."""
        full = Session(tms_result)
        unscheduled = Session(
            tms_result, config=PipelineConfig(use_scheduling=False)
        )
        assert full.selector is unscheduled.selector
        assert full.selector.tables is tms_result.selector.tables


def _bellman_ford_chain_distances(source, grammar):
    """Independent oracle for the chain closure: shortest chain-rule
    distances from ``source``, computed by plain Bellman-Ford relaxation
    straight off ``grammar.rules`` (no GrammarTables machinery)."""
    distances = {source: 0}
    chain_rules = [rule for rule in grammar.rules if rule.is_chain()]
    for _ in range(len(grammar.nonterminals) + 1):
        changed = False
        for rule in chain_rules:
            origin = rule.pattern.name
            if origin not in distances:
                continue
            candidate = distances[origin] + rule.cost
            if rule.lhs not in distances or candidate < distances[rule.lhs]:
                distances[rule.lhs] = candidate
                changed = True
        if not changed:
            break
    return distances


def _fixpoint_label_costs(subject, grammar):
    """Independent oracle for node-state costs: the seed's interpretive
    algorithm (recursive pattern match + per-node chain fixpoint),
    reimplemented from the grammar alone.  Returns ``{nt: cost}`` per node
    id for every node of ``subject``."""
    from repro.grammar.grammar import PatNonterm

    def match(pattern, node, states):
        if isinstance(pattern, PatNonterm):
            cost = states[id(node)].get(pattern.name)
            return cost
        if node.label != pattern.name:
            return None
        if pattern.value is not None and node.const_value != pattern.value:
            return None
        if len(node.children) != len(pattern.operands):
            return None
        total = 0
        for child_pattern, child_node in zip(pattern.operands, node.children):
            child_cost = match(child_pattern, child_node, states)
            if child_cost is None:
                return None
            total += child_cost
        return total

    states = {}
    for node in subject.post_order():
        costs = {}
        for rule in grammar.rules:
            if rule.is_chain():
                continue
            leaf_cost = match(rule.pattern, node, states)
            if leaf_cost is None:
                continue
            total = rule.cost + leaf_cost
            if rule.lhs not in costs or total < costs[rule.lhs]:
                costs[rule.lhs] = total
        changed = True
        while changed:
            changed = False
            for rule in grammar.rules:
                if not rule.is_chain():
                    continue
                source_cost = costs.get(rule.pattern.name)
                if source_cost is None:
                    continue
                total = rule.cost + source_cost
                if rule.lhs not in costs or total < costs[rule.lhs]:
                    costs[rule.lhs] = total
                    changed = True
        states[id(node)] = costs
    return states


class TestClosureOracle:
    """The precomputed closure and the table-driven states checked against
    oracles that share no code with GrammarTables (guards against a bug in
    chain_closure_from fooling the backend-vs-backend differential)."""

    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    def test_closure_deltas_match_bellman_ford(self, target, retarget_results):
        result = retarget_results[target]
        tables = result.selector.tables
        sources = {rule.lhs for rule in result.grammar.rules}
        sources.update(tables.chain_rules_by_source)
        for source in sorted(sources):
            expected = _bellman_ford_chain_distances(source, result.grammar)
            expected.pop(source)
            got = {
                entry_target: delta
                for entry_target, delta, _rules in tables.closure_from(source)
            }
            assert got == expected, "closure mismatch from %s on %s" % (source, target)

    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    def test_closure_paths_are_wellformed(self, target, retarget_results):
        tables = retarget_results[target].selector.tables
        for source, entries in tables.chain_closure.items():
            for entry_target, delta, rule_path in entries:
                assert rule_path[0].pattern.name == source
                assert rule_path[-1].lhs == entry_target
                for previous, rule in zip(rule_path, rule_path[1:]):
                    assert rule.pattern.name == previous.lhs
                assert sum(rule.cost for rule in rule_path) == delta

    def test_node_state_costs_match_seed_fixpoint(self, retarget_results):
        """Every per-node, per-nonterminal cost of the table-driven
        labeller equals the seed algorithm's, on real kernel trees."""
        for target in ("demo", "tms320c25"):
            result = retarget_results[target]
            subjects = _statement_subjects(result, "fir") or []
            subjects += _statement_subjects(result, "complex_multiply") or []
            assert subjects
            for subject in subjects:
                expected = _fixpoint_label_costs(subject, result.grammar)
                states = result.selector.label(subject)
                for node in subject.post_order():
                    got = {nt: match.cost for nt, match in states[id(node)].items()}
                    assert got == expected[id(node)]


def _deep_chain_program(depth):
    """``acc = a + 1 + 1 + ... ;`` as a left-deep IR chain (~2*depth nodes)."""
    expression = VarRef("a")
    for _ in range(depth):
        expression = Op("add", (expression, Const(1)))
    return Program(
        name="deep_chain",
        blocks=[BasicBlock(name="entry", statements=[Statement("acc", expression)])],
        scalars=["a", "acc"],
    )


class TestDeepTrees:
    def test_deep_chain_selects_without_recursion_error(self, demo_result):
        """~5k-node chain: labelling, reduction and subject construction
        are explicit-stack walks and must not hit the recursion limit."""
        program = _deep_chain_program(2500)
        binding = bind_program(program, demo_result.netlist)
        statement = program.blocks[0].statements[0]
        subject = build_subject_tree(statement, binding)
        assert subject.size() >= 5000
        result = demo_result.selector.select(subject)
        assert result.cost > 0
        assert len(result.reductions) >= 2500

    def test_deep_chain_compiles_end_to_end(self, demo_result):
        """The full pipeline on a deep chain expression (the pre-table
        selector raised RecursionError in ``_reduce`` around depth 1000)."""
        program = _deep_chain_program(2500)
        session = Session(
            demo_result,
            config=PipelineConfig(use_scheduling=False, use_compaction=False),
        )
        compiled = session.compile_program(program)
        assert compiled.code_size >= 2500
        assert compiled.metrics.nodes_labelled > 0

    def test_interpretive_matcher_also_handles_deep_chains(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar,
            tables=demo_result.selector.tables,
            matcher="interpretive",
        )
        program = _deep_chain_program(1500)
        binding = bind_program(program, demo_result.netlist)
        subject = build_subject_tree(program.blocks[0].statements[0], binding)
        assert selector.select(subject).cost > 0
