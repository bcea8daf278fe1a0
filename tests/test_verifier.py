"""The pipeline-wide static verifier.

Three layers of coverage:

* unit tests for each check (CFG well-formedness, definite assignment
  of optimizer temporaries, word-level dependence checks);
* regression replays: the verifier statically re-detects all three
  historical backend bugs (the spill-reload clobber, the scheduler's
  WAR hoist, an unmatched spill reload) from the instance stream alone,
  with structured findings -- and stays silent on the fixed outputs and
  on corruption the storage-faithful simulator proves unobservable;
* pipeline integration: ``PipelineConfig.verify`` runs one check batch
  around every pass, reports its cost in ``CompileMetrics`` and
  surfaces through the CLI and the compile service.
"""

from dataclasses import replace

import pytest

from repro.analysis import (
    PipelineVerifier,
    VerificationError,
    check_cfg,
    check_instance_stream,
    check_optimized_program,
    check_words,
)
from repro.codegen.compaction import InstructionWord
from repro.codegen.selection import BlockCode, RTInstance, StatementCode
from repro.codegen.spill import insert_spills
from repro.ir.expr import Const, Op, VarRef
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement
from repro.selector.subject import SubjectNode

REGISTERS = {"R", "ACC"}


def _compute(op, result_id, result_storage, operand_specs, defines=None):
    """An RT instance computing ``op`` over (value id, storage) operands."""
    operand_nodes = [SubjectNode(storage) for _id, storage in operand_specs]
    node = SubjectNode(op, list(operand_nodes))
    instance = RTInstance(
        kind="rt",
        result_id=result_id,
        result_storage=result_storage,
        operands=list(operand_specs),
        node=node,
        operand_nodes=operand_nodes,
    )
    if defines is not None:
        instance.defines_variable = defines
    return instance


def _spill_store(value_id, register, memory="DMEM"):
    return RTInstance(
        kind="spill_store",
        result_id=value_id,
        result_storage=memory,
        operands=[(value_id, register)],
    )


def _spill_reload(value_id, register, memory="DMEM"):
    return RTInstance(
        kind="spill_reload",
        result_id=value_id,
        result_storage=register,
        operands=[(value_id, memory)],
    )


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


# ---------------------------------------------------------------------------
# CFG well-formedness
# ---------------------------------------------------------------------------


def _branching_program():
    cond = Op("lt", (VarRef("a"), Const(4)))
    return Program(
        "p",
        [
            BasicBlock("entry", [Statement("a", Const(1))],
                       CBranch(cond, "body", "done")),
            BasicBlock("body", [Statement("a", VarRef("a"))], Jump("entry")),
            BasicBlock("done", [Statement("b", VarRef("a"))]),
        ],
        scalars=["a", "b"],
    )


def _with_blocks(program, *blocks):
    """``program`` with ``blocks`` appended."""
    return replace(program, blocks=program.blocks + blocks)


class TestCheckCfg:
    def test_well_formed_program_is_clean(self):
        assert check_cfg(_branching_program()) == []

    def test_empty_program_is_an_error(self):
        findings = check_cfg(Program("empty", []))
        assert [f.check for f in _errors(findings)] == ["cfg"]

    def test_duplicate_block_names(self):
        program = _with_blocks(_branching_program(), BasicBlock("entry", []))
        findings = _errors(check_cfg(program))
        assert any("duplicate" in f.message for f in findings)

    def test_dangling_branch_target(self):
        program = _branching_program()
        blocks = list(program.blocks)
        blocks[1] = BasicBlock("body", [], Jump("nowhere"))
        program = replace(program, blocks=blocks)
        findings = _errors(check_cfg(program))
        assert any("'nowhere'" in f.message for f in findings)
        assert findings[0].where == "body"

    def test_unknown_entry(self):
        program = replace(_branching_program(), entry="missing")
        findings = _errors(check_cfg(program))
        assert any("entry" in f.message for f in findings)

    def test_unreachable_block_is_a_warning_not_an_error(self):
        program = _with_blocks(_branching_program(), BasicBlock("orphan", []))
        findings = check_cfg(program)
        assert _errors(findings) == []
        assert any(
            f.severity == "warning" and f.where == "orphan" for f in findings
        )

    def test_program_that_cannot_halt_is_a_warning(self):
        program = Program(
            "spin",
            [BasicBlock("entry", [], Jump("entry"))],
            scalars=[],
        )
        findings = check_cfg(program)
        assert _errors(findings) == []
        assert any("cannot halt" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Optimizer discipline
# ---------------------------------------------------------------------------


class TestCheckOptimizedProgram:
    def test_fresh_program_is_clean(self):
        assert check_optimized_program(_branching_program()) == []

    def test_reserved_temp_read_before_assignment(self):
        program = Program(
            "cse",
            [BasicBlock("entry", [Statement("x", VarRef("__cse0")),
                                  Statement("__cse0", Const(1))])],
            scalars=["x", "__cse0"],
        )
        findings = _errors(check_optimized_program(program))
        assert any(f.check == "cse" and "__cse0" in f.message for f in findings)

    def test_reserved_temp_assigned_first_is_clean(self):
        program = Program(
            "cse",
            [BasicBlock("entry", [Statement("__cse0", Const(1)),
                                  Statement("x", VarRef("__cse0"))])],
            scalars=["x", "__cse0"],
        )
        assert check_optimized_program(program) == []

    def test_reserved_temp_assigned_on_one_path_only(self):
        # A hoisted temporary defined in one arm of a branch does not
        # reach the join on the other path.
        program = Program(
            "licm",
            [
                BasicBlock("entry", [], CBranch(VarRef("a"), "then", "join")),
                BasicBlock("then", [Statement("__licm0", Const(2))], Jump("join")),
                BasicBlock("join", [Statement("x", VarRef("__licm0"))]),
            ],
            scalars=["a", "x", "__licm0"],
        )
        findings = _errors(check_optimized_program(program))
        assert [(f.check, f.where) for f in findings] == [("cse", "join[0]")]

    def test_statements_shared_across_positions_are_clean(self):
        # Statements are frozen values; one object at two positions is
        # as good as two equal ones.
        statement = Statement("__cse0", Op("add", (VarRef("a"), Const(1))))
        program = Program(
            "shared",
            [BasicBlock("entry", [statement, statement,
                                  Statement("x", VarRef("__cse0"))])],
            scalars=["a", "x", "__cse0"],
        )
        assert check_optimized_program(program) == []


# ---------------------------------------------------------------------------
# Machine-walk regressions: the three historical backend bugs
# ---------------------------------------------------------------------------


class TestSpillClobberDetection:
    """The spill-reload clobber (PR 5, bug 1): a reload overwrote a
    register still holding a live, never-spilled temporary."""

    def _sequence(self):
        i0 = _compute("add", "tmp:0", "R",
                      [("var:a", "DMEM"), ("const:0", "CONST")])
        i1 = _compute("add", "tmp:1", "R",
                      [("var:b", "DMEM"), ("const:0", "CONST")])
        i2 = _compute("add", "tmp:2", "ACC", [("tmp:0", "R"), ("var:c", "DMEM")])
        i3 = _compute("add", "tmp:3", "ACC", [("tmp:1", "R"), ("tmp:2", "ACC")],
                      defines="out")
        return [i0, i1, i2, i3]

    def test_pre_fix_stream_is_flagged(self):
        i0, i1, i2, i3 = self._sequence()
        pre_fix = [i0, _spill_store("tmp:0", "R"), i1,
                   _spill_reload("tmp:0", "R"), i2, i3]
        findings = _errors(check_instance_stream(pre_fix, REGISTERS))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.check == "race"
        assert "'out'" in finding.message
        assert "holds tmp:0" in finding.message

    def test_fixed_spill_output_is_clean(self):
        fixed = insert_spills(self._sequence(), spill_storage="DMEM")
        assert check_instance_stream(fixed, REGISTERS) == []

    def test_unobservable_corruption_is_not_flagged(self):
        """Stale register contents that never reach a committed variable
        are exactly what the storage-faithful simulator proves harmless
        -- the verifier must stay observability-aware and keep quiet."""
        i0, i1, i2, _i3 = self._sequence()
        pre_fix_no_commit = [i0, _spill_store("tmp:0", "R"), i1,
                             _spill_reload("tmp:0", "R"), i2]
        assert check_instance_stream(pre_fix_no_commit, REGISTERS) == []


class TestWarHoistDetection:
    """The scheduler WAR hoist (PR 5, bug 2): a register write scheduled
    ahead of an earlier-in-program-order read of that register."""

    def _sequence(self):
        i0 = _compute("add", "tmp:0", "ACC",
                      [("var:a", "DMEM"), ("const:0", "CONST")])
        i1 = _compute("add", "tmp:1", "ACC", [("var:x", "R"), ("tmp:0", "ACC")])
        i2 = _compute("add", "tmp:2", "R",
                      [("var:b", "DMEM"), ("const:0", "CONST")])
        i3 = _compute("add", "tmp:3", "ACC", [("tmp:1", "ACC"), ("tmp:2", "R")],
                      defines="out")
        return [i0, i1, i2, i3]

    def test_pre_fix_order_is_flagged(self):
        i0, i1, i2, i3 = self._sequence()
        findings = _errors(check_instance_stream([i0, i2, i1, i3], REGISTERS))
        assert len(findings) == 1
        assert findings[0].check == "race"
        assert "var:x" in findings[0].message
        assert "holds tmp:2" in findings[0].message

    def test_program_order_is_clean(self):
        assert check_instance_stream(self._sequence(), REGISTERS) == []


class TestUnmatchedReloadDetection:
    """Bug 3: a ``spill_reload`` with no preceding matching store reads
    garbage from spill memory."""

    def test_reload_without_store_is_flagged(self):
        stream = [
            _spill_reload("tmp:0", "R"),
            _compute("add", "tmp:1", "ACC", [("tmp:0", "R")], defines="out"),
        ]
        findings = _errors(check_instance_stream(stream, REGISTERS))
        assert any(
            f.check == "spill" and "not preceded by a matching spill_store"
            in f.message
            for f in findings
        )

    def test_store_then_reload_is_clean(self):
        stream = [
            _compute("add", "tmp:0", "R", [("var:a", "DMEM")]),
            _spill_store("tmp:0", "R"),
            _spill_reload("tmp:0", "R"),
            _compute("add", "tmp:1", "ACC", [("tmp:0", "R")], defines="out"),
        ]
        assert check_instance_stream(stream, REGISTERS) == []


# ---------------------------------------------------------------------------
# Compaction: word-level dependence checks
# ---------------------------------------------------------------------------


def _dependent_pair():
    producer = _compute("add", "tmp:0", "R", [("var:a", "DMEM")])
    consumer = _compute("add", "tmp:1", "ACC", [("tmp:0", "R")], defines="out")
    return producer, consumer


def _one_block(instances):
    code = StatementCode(statement=None, cost=0, instances=list(instances))
    return [BlockCode(name="entry", codes=[code])]


class TestCheckWords:
    def test_in_order_words_are_clean(self):
        producer, consumer = _dependent_pair()
        words = [InstructionWord(instances=[producer]),
                 InstructionWord(instances=[consumer])]
        assert check_words(_one_block([producer, consumer]), words) == []

    def test_raw_violation_across_words(self):
        producer, consumer = _dependent_pair()
        words = [InstructionWord(instances=[consumer]),
                 InstructionWord(instances=[producer])]
        findings = _errors(
            check_words(_one_block([producer, consumer]), words)
        )
        assert any("RAW" in f.message for f in findings)

    def test_produce_and_consume_in_one_word(self):
        producer, consumer = _dependent_pair()
        words = [InstructionWord(instances=[producer, consumer])]
        findings = _errors(
            check_words(_one_block([producer, consumer]), words)
        )
        assert any("produces and consumes" in f.message for f in findings)

    def test_two_writers_of_one_storage_in_one_word(self):
        a = _compute("add", "tmp:0", "R", [("var:a", "DMEM")])
        b = _compute("add", "tmp:1", "R", [("var:b", "DMEM")])
        words = [InstructionWord(instances=[a, b])]
        findings = _errors(check_words(_one_block([a, b]), words))
        assert any("write R in the same word" in f.message for f in findings)

    def test_instance_missing_from_words(self):
        producer, consumer = _dependent_pair()
        words = [InstructionWord(instances=[producer])]
        findings = _errors(
            check_words(_one_block([producer, consumer]), words)
        )
        assert any("missing from the compacted words" in f.message
                   for f in findings)

    def test_instance_packed_twice(self):
        producer, consumer = _dependent_pair()
        words = [InstructionWord(instances=[producer]),
                 InstructionWord(instances=[producer]),
                 InstructionWord(instances=[consumer])]
        findings = _errors(
            check_words(_one_block([producer, consumer]), words)
        )
        assert any("packed into two words" in f.message for f in findings)

    def test_multi_block_needs_labels(self):
        producer, consumer = _dependent_pair()
        blocks = [
            BlockCode(name="b0", codes=[
                StatementCode(statement=None, cost=0, instances=[producer])
            ]),
            BlockCode(name="b1", codes=[
                StatementCode(statement=None, cost=0, instances=[consumer])
            ]),
        ]
        words = [InstructionWord(instances=[producer], label="b0"),
                 InstructionWord(instances=[consumer])]
        findings = _errors(check_words(blocks, words))
        assert [f.where for f in findings] == ["b1"]
        assert "no labelled word" in findings[0].message


# ---------------------------------------------------------------------------
# The pipeline hook
# ---------------------------------------------------------------------------


class TestPipelineVerifierHook:
    def test_spill_hook_raises_structured_error(self):
        from repro.toolchain.passes import CompilationState

        i0 = _compute("add", "tmp:0", "R", [("var:a", "DMEM")])
        i1 = _compute("add", "tmp:1", "R", [("var:b", "DMEM")])
        i2 = _compute("add", "tmp:2", "ACC", [("tmp:0", "R")], defines="out")
        state = CompilationState(program=_branching_program())
        state.block_codes = [
            BlockCode(
                name="entry",
                codes=[StatementCode(statement=None, cost=0, instances=[i0, i1, i2])],
            )
        ]
        verifier = PipelineVerifier(registers=REGISTERS)
        with pytest.raises(VerificationError) as excinfo:
            verifier.after_pass("spill", state, context=None)
        error = excinfo.value
        assert error.after == "spill"
        assert error.phase == "verify"
        assert any(f.check == "race" for f in error.findings)
        assert "tmp:0" in str(error)

    def test_warnings_flow_into_diagnostics_not_errors(self):
        from repro.toolchain.passes import CompilationState

        program = _with_blocks(_branching_program(), BasicBlock("orphan", []))
        state = CompilationState(program=program)
        verifier = PipelineVerifier(registers=REGISTERS)
        verifier.before_pass("opt", state, context=None)
        assert verifier.checks_run == 1
        assert any(
            d.severity == "warning" and "unreachable" in d.message
            for d in state.diagnostics
        )


class TestPipelineIntegration:
    def test_verify_runs_one_batch_per_stage(self, tms_result):
        from repro.dspstone import kernel_program
        from repro.toolchain.passes import PipelineConfig
        from repro.toolchain.session import Session

        session = Session(tms_result, config=PipelineConfig(verify=True))
        result = session.compile(kernel_program("real_update"))
        # input + opt + select + schedule + spill + compact.
        assert result.metrics.verify_checks == 6
        assert result.metrics.verify_time_s > 0.0

    def test_verify_off_reports_zero_checks(self, tms_result):
        from repro.dspstone import kernel_program
        from repro.toolchain.passes import PipelineConfig
        from repro.toolchain.session import Session

        session = Session(tms_result, config=PipelineConfig(verify=False))
        result = session.compile(kernel_program("real_update"))
        assert result.metrics.verify_checks == 0
        assert result.metrics.verify_time_s == 0.0

    def test_verified_loop_kernels_on_every_dsp_target(self, retarget_results):
        from repro.dspstone import kernel_program, loop_kernel_names
        from repro.toolchain.passes import PipelineConfig
        from repro.toolchain.session import Session

        for target in ("demo", "ref", "tms320c25"):
            session = Session(
                retarget_results[target], config=PipelineConfig(verify=True)
            )
            for name in loop_kernel_names():
                result = session.compile(kernel_program(name))
                assert result.metrics.verify_checks == 6, (target, name)


class TestCliAndService:
    def test_cli_compile_with_verify_and_timings(self, capsys):
        from repro.cli import main

        exit_code = main([
            "compile", "tms320c25", "--kernel", "real_update",
            "--verify", "--timings",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "verify" in out

    def test_request_verify_override_round_trips(self):
        from repro.service.api import CompileRequest

        request = CompileRequest.from_dict(
            {"target": "demo", "kernel": "fir", "verify": True}
        )
        assert request.resolved_config().verify is True
        assert CompileRequest.from_dict(request.to_dict()) == request

        request = CompileRequest.from_dict(
            {"target": "demo", "kernel": "fir", "verify": False}
        )
        assert request.resolved_config().verify is False

    def test_request_verify_must_be_boolean(self):
        from repro.service.api import CompileRequest, RequestError

        with pytest.raises(RequestError):
            CompileRequest.from_dict(
                {"target": "demo", "kernel": "fir", "verify": "yes"}
            )


class TestVerifyOverhead:
    def test_verify_cost_is_bounded(self, tms_result):
        """Self-reported verify time stays a fraction of compile time.

        The acceptance benchmark (scripts measure < 25% wall-clock added
        on loop kernels) is too noise-sensitive for CI; here we bound the
        per-compile accounting at a generous 100% so a structural
        regression (e.g. an accidentally quadratic check) still fails.
        """
        from repro.dspstone import kernel_program, loop_kernel_names
        from repro.toolchain.passes import PipelineConfig
        from repro.toolchain.session import Session

        session = Session(tms_result, config=PipelineConfig(verify=True))
        programs = [kernel_program(name) for name in loop_kernel_names()]
        for program in programs:  # warm every cache first
            session.compile(program)
        import time

        verify = 0.0
        started = time.perf_counter()
        for _ in range(3):
            for program in programs:
                verify += session.compile(program).metrics.verify_time_s
        total = time.perf_counter() - started
        assert verify < (total - verify)
