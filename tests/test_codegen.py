"""Unit tests for the code-generation backend (selection, scheduling,
spilling, compaction, emission)."""

import pytest

from repro.codegen import (
    CodeGenerationError,
    RTInstance,
    compact,
    format_listing,
    insert_spills,
    schedule_instances,
    select_block,
)
from repro.codegen.compaction import code_size
from repro.codegen.selection import build_subject_tree
from repro.codegen.spill import count_spills
from repro.frontend import lower_to_program
from repro.ir import bind_program
from repro.selector.burs import CodeSelector


def _codes(result, compiler_source, program_source):
    """Helper: select code for a program on a retargeted processor."""
    program = lower_to_program(program_source)
    binding = bind_program(program, result.netlist)
    selector = CodeSelector(result.grammar)
    return program, select_block(program.single_block(), selector, binding)


class TestSubjectTrees:
    def test_labels_use_storage_names(self, tms_result):
        program = lower_to_program("int a, d; d = a + 3;")
        binding = bind_program(program, tms_result.netlist)
        subject = build_subject_tree(program.single_block().statements[0], binding)
        assert subject.label == "ASSIGN"
        assert subject.children[0].label == "DMEM"
        assert subject.children[1].label == "add"
        const_leaf = subject.children[1].children[1]
        assert const_leaf.label == "Const" and const_leaf.const_value == 3

    def test_port_destination(self, tms_result):
        from repro.ir.program import Statement
        from repro.ir.expr import VarRef

        program = lower_to_program("int a; a = a;")
        binding = bind_program(program, tms_result.netlist)
        statement = Statement("@POUT", VarRef("a"))
        subject = build_subject_tree(statement, binding)
        assert subject.children[0].label == "POUT"


class TestSelection:
    def test_real_update_cover(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, c, d; d = c + a * b;")
        assert len(codes) == 1
        code = codes[0]
        assert code.cost == 4  # LAC, LT, MAC, SACL
        assert len(code.instances) == 4
        assert all(instance.kind == "rt" for instance in code.instances)

    def test_defines_variable_on_final_instance(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, d; d = a + b;")
        defining = [i for i in codes[0].instances if i.defines_variable == "d"]
        assert len(defining) == 1
        assert defining[0].result_storage == "DMEM"

    def test_uncoverable_statement_raises(self, demo_result):
        # demo has no divider, so a division cannot be covered
        with pytest.raises(CodeGenerationError):
            _codes(demo_result, None, "int a, b, d; d = a / b;")

    def test_chained_templates_reduce_cost(self, tms_result):
        _program, with_mac = _codes(tms_result, None, "int a, b, c, d; d = c + a * b;")
        from repro.ise.templates import RTTemplateBase
        from repro.grammar.construct import build_tree_grammar

        restricted = RTTemplateBase(processor="tms320c25")
        for template in tms_result.template_base:
            if not template.is_chained():
                restricted.add(template)
        grammar = build_tree_grammar(tms_result.netlist, restricted)
        program = lower_to_program("int a, b, c, d; d = c + a * b;")
        binding = bind_program(program, tms_result.netlist)
        codes = select_block(program.single_block(), CodeSelector(grammar), binding)
        assert codes[0].cost > with_mac[0].cost

    def test_instance_describe(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, d; d = a + b;")
        description = codes[0].instances[-1].describe()
        assert ":=" in description


class TestScheduling:
    def _instance(self, result_id, storage, operands=()):
        return RTInstance(
            kind="rt",
            result_id=result_id,
            result_storage=storage,
            operands=list(operands),
        )

    def test_dependencies_are_preserved(self):
        a = self._instance("tmp:0", "ACC")
        b = self._instance("tmp:1", "T", [("tmp:0", "ACC")])
        c = self._instance("tmp:2", "ACC", [("tmp:1", "T")])
        order = schedule_instances([c, b, a])  # deliberately scrambled? no: deps broken
        # scheduling never reorders against data dependencies
        order = schedule_instances([a, b, c])
        assert [i.result_id for i in order] == ["tmp:0", "tmp:1", "tmp:2"]

    def test_clobber_avoidance(self):
        # two independent computations, one of which would clobber a live ACC
        first = self._instance("tmp:0", "ACC")
        clobber = self._instance("tmp:1", "ACC")
        use_first = self._instance("tmp:2", "DMEM", [("tmp:0", "ACC")])
        use_second = self._instance("tmp:3", "DMEM", [("tmp:1", "ACC")])
        order = schedule_instances([first, clobber, use_first, use_second])
        ids = [i.result_id for i in order]
        # the use of tmp:0 must come before tmp:1 overwrites ACC
        assert ids.index("tmp:2") < ids.index("tmp:1")

    def test_single_instance_passthrough(self):
        only = self._instance("tmp:0", "ACC")
        assert schedule_instances([only]) == [only]

    def test_empty_sequence(self):
        assert schedule_instances([]) == []


class TestSpilling:
    def _instance(self, result_id, storage, operands=()):
        return RTInstance(
            kind="rt",
            result_id=result_id,
            result_storage=storage,
            operands=list(operands),
        )

    def test_no_spills_when_no_clobbering(self):
        a = self._instance("tmp:0", "ACC")
        b = self._instance("tmp:1", "DMEM", [("tmp:0", "ACC")])
        sequence = insert_spills([a, b], "DMEM")
        assert count_spills(sequence) == 0

    def test_spill_and_reload_inserted(self):
        produce = self._instance("tmp:0", "ACC")
        clobber = self._instance("tmp:1", "ACC")
        consume_clobbered = self._instance("tmp:2", "DMEM", [("tmp:1", "ACC")])
        consume_original = self._instance("tmp:3", "DMEM", [("tmp:0", "ACC")])
        sequence = insert_spills([produce, clobber, consume_clobbered, consume_original], "DMEM")
        kinds = [i.kind for i in sequence]
        assert "spill_store" in kinds
        assert "spill_reload" in kinds
        assert count_spills(sequence) == 2

    def test_no_spill_storage_means_no_insertion(self):
        produce = self._instance("tmp:0", "ACC")
        clobber = self._instance("tmp:1", "ACC")
        use = self._instance("tmp:2", "DMEM", [("tmp:0", "ACC")])
        sequence = insert_spills([produce, clobber, use], None)
        assert count_spills(sequence) == 0

    def test_empty_sequence(self):
        assert insert_spills([], "DMEM") == []


class TestCompaction:
    def test_disabled_compaction_is_one_rt_per_word(self, tms_result, tms_compiler):
        _program, codes = _codes(tms_result, None, "int a, b, c, d; d = c + a * b;")
        instances = [i for code in codes for i in code.instances]
        words = compact(instances, enabled=False)
        assert code_size(words) == len(instances)

    def test_compaction_never_increases_code_size(self, tms_result):
        _program, codes = _codes(
            tms_result, None, "int a, b, c, d, e; d = c + a * b; e = d + c;"
        )
        instances = [i for code in codes for i in code.instances]
        assert code_size(compact(instances, enabled=True)) <= code_size(
            compact(instances, enabled=False)
        )

    def test_dependent_rts_are_not_packed_together(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, d; d = a + b;")
        instances = codes[0].instances
        words = compact(instances, enabled=True)
        for word in words:
            for consumer in word.instances:
                for producer in word.instances:
                    if producer is consumer:
                        continue
                    assert producer.result_id not in consumer.reads()
                    assert producer.result_storage != consumer.result_storage

    def test_conditions_of_packed_words_are_satisfiable(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, c, d; d = c + a * b;")
        instances = [i for code in codes for i in code.instances]
        for word in compact(instances, enabled=True):
            assert word.condition is None or word.condition.satisfiable()


class TestEmitter:
    def test_listing_format(self, tms_result):
        _program, codes = _codes(tms_result, None, "int a, b, c, d; d = c + a * b;")
        instances = [i for code in codes for i in code.instances]
        words = compact(instances)
        listing = format_listing(words, title="real_update")
        assert "real_update" in listing
        assert "bits:" in listing
        assert listing.count(":=") >= len(instances)
