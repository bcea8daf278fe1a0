"""Tests for the structured fuzzing subsystem (repro.fuzz).

Covers the generator's invariants (round-trip, determinism,
termination), the delta-debugging minimizer, outcome classification in
the campaign driver, and a small end-to-end campaign against every
DSPStone-capable target.
"""

import json

import pytest

import repro.analysis.verify as verify_module
from repro.analysis.verify import Finding as VerifierFinding, VerificationError
from repro.cli import main
from repro.diagnostics import InternalCompilerError
from repro.frontend.lowering import lower_to_program
from repro.frontend.parser import parse_source
from repro.fuzz import (
    Finding,
    GeneratorConfig,
    ddmin,
    generate_program,
    generate_source,
    load_corpus,
    minimize_source,
    render_source,
    run_campaign,
    save_finding,
)
from repro.fuzz.campaign import DSP_TARGETS, _run_oracle, program_hash
from repro.fuzz.oracles import (
    ORACLES,
    Divergence,
    OracleSkip,
    SIMULATION_STEP_LIMIT,
    TargetHarness,
    seed_environment,
)

SEEDS = range(12)


# ---------------------------------------------------------------------------
# generator invariants
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_rendering_round_trips_to_an_equal_ast(self):
        # Full parenthesization means parse(render(ast)) == ast: the AST
        # does not represent parentheses, so nothing is lost either way.
        for seed in SEEDS:
            program = generate_program(seed)
            reparsed = parse_source(render_source(program))
            assert reparsed.statements == program.statements, "seed %d" % seed
            assert reparsed.scalars == program.scalars
            assert reparsed.arrays == program.arrays

    def test_same_seed_same_program(self):
        for seed in SEEDS:
            assert generate_source(seed) == generate_source(seed)

    def test_distinct_seeds_explore_distinct_programs(self):
        sources = {generate_source(seed) for seed in range(40)}
        assert len(sources) == 40

    def test_every_program_lowers_and_terminates(self):
        # Loops only appear as the bounded induction pattern, so
        # reference execution must halt far below the simulator budget.
        for seed in SEEDS:
            program = lower_to_program(generate_source(seed), name="t%d" % seed)
            environment = seed_environment(program)
            result = program.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
            assert isinstance(result, dict)

    def test_default_palette_omits_uncovered_operators(self):
        # No built-in target covers shifts or unary -/~; by default the
        # generator must not emit them (a single occurrence would skip
        # every differential check for that program).
        for seed in range(30):
            source = generate_source(seed)
            assert "~" not in source
            assert "<<" not in source and ">>" not in source
            assert "/" not in source and "%" not in source

    def test_config_knobs_reenable_rare_operators(self):
        config = GeneratorConfig(unary_probability=0.9, shift_probability=0.5)
        sources = [generate_source(seed, config=config) for seed in range(20)]
        assert any("~" in s or "-(" in s for s in sources)
        assert any("<<" in s or ">>" in s for s in sources)

    def test_loop_bodies_never_write_induction_variables(self):
        for seed in SEEDS:
            for line in generate_source(seed).splitlines():
                stripped = line.strip()
                if stripped.startswith("i") and "=" in stripped:
                    variable, _, rest = stripped.partition("=")
                    variable = variable.strip()
                    if variable.startswith("i") and variable[1:].isdigit():
                        # only "i = 0;" and "i = (i) + (1);" may write it
                        rest = rest.strip().rstrip(";")
                        assert rest in ("0", "(%s) + (1)" % variable), line


# ---------------------------------------------------------------------------
# the delta debugger
# ---------------------------------------------------------------------------


class TestDdmin:
    def test_isolates_a_minimal_failing_pair(self):
        culprits = {3, 7}
        result = ddmin(list(range(10)), lambda items: culprits <= set(items))
        assert sorted(result) == [3, 7]

    def test_isolates_a_single_culprit(self):
        result = ddmin(list(range(64)), lambda items: 42 in items)
        assert result == [42]

    def test_result_always_satisfies_the_predicate_under_tiny_budget(self):
        def predicate(items):
            return {1, 30, 60} <= set(items)

        result = ddmin(list(range(64)), predicate, budget=10)
        assert predicate(result)


class TestMinimizeSource:
    def test_shrinks_to_the_needle_statement(self):
        source = generate_source(5)
        needle = "v0 = (v1) + (1);"
        source = source.rstrip() + "\n" + needle + "\n"

        seen = []

        def predicate(candidate: str) -> bool:
            # Every candidate the minimizer proposes must be parseable
            # (it works on the source AST, not on text).
            parse_source(candidate)
            seen.append(candidate)
            return needle in candidate

        minimized = minimize_source(source, predicate)
        assert needle in minimized
        assert len(minimized) < len(source) / 2
        assert seen, "minimizer never evaluated a candidate"
        parse_source(minimized)

    def test_unshrinkable_input_comes_back_unchanged(self):
        source = "int v0, v1;\nv0 = (v1) + (1);\n"
        minimized = minimize_source(source, lambda candidate: False)
        assert parse_source(minimized).statements == parse_source(source).statements


# ---------------------------------------------------------------------------
# outcome classification
# ---------------------------------------------------------------------------


class TestOutcomeClassification:
    def _run(self, check):
        program = lower_to_program("int v0, v1; v1 = v0 + 1;", name="t")
        return _run_oracle(check, None, program, {})

    def test_agreement(self):
        assert self._run(lambda h, p, e: None) == ("ok", None)

    def test_divergence(self):
        def check(h, p, e):
            return Divergence(oracle="sim", target="demo", detail="v1: (1, 2)")

        kind, payload = self._run(check)
        assert kind == "divergence" and "v1" in payload

    def test_structured_skip(self):
        def check(h, p, e):
            raise OracleSkip("optimized leg: CodeGenerationError: no cover")

        kind, payload = self._run(check)
        assert kind == "skip" and "no cover" in payload

    def test_internal_error_is_a_crash(self):
        def check(h, p, e):
            raise InternalCompilerError.wrap(ValueError("boom"), pass_name="select")

        kind, payload = self._run(check)
        assert kind == "crash" and "boom" in payload

    def test_verification_error_is_a_crash_naming_the_check(self):
        def check(h, p, e):
            raise VerificationError(
                [VerifierFinding("words", "error", "word 3 reads too early")],
                after="compact",
            )

        kind, payload = self._run(check)
        assert kind == "crash"
        assert payload.startswith("VerificationError")
        assert "[words]" in payload and "after pass 'compact'" in payload

    def test_unstructured_exception_is_a_crash(self):
        def check(h, p, e):
            raise KeyError("missing storage")

        kind, payload = self._run(check)
        assert kind == "crash" and payload.startswith("KeyError")


# ---------------------------------------------------------------------------
# campaigns (end to end, against the shared retarget fixtures)
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_small_campaign_is_clean_on_all_targets(self, fuzz_harnesses):
        report = run_campaign(seed=0, budget=6, harnesses=fuzz_harnesses)
        assert report.ok, [f.to_dict() for f in report.findings]
        assert report.programs == 6
        assert report.checks == 6 * len(DSP_TARGETS) * len(ORACLES)
        assert report.skips < report.checks, "every check skipped"
        # the report is JSON-serializable as produced
        json.dumps(report.to_dict())

    def test_campaign_is_deterministic(self, fuzz_harnesses):
        first = run_campaign(seed=3, budget=3, harnesses=fuzz_harnesses)
        second = run_campaign(seed=3, budget=3, harnesses=fuzz_harnesses)
        assert (first.checks, first.skips) == (second.checks, second.skips)
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]

    def test_unknown_oracle_is_rejected(self, fuzz_harnesses):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_campaign(seed=0, budget=1, oracles=["santa"], harnesses=fuzz_harnesses)

    def test_broken_oracle_yields_minimized_findings(self, fuzz_harnesses, monkeypatch):
        # A check that diverges on every program with at least one
        # statement: the campaign must record findings and shrink each
        # reproducer to (nearly) nothing.
        def always_diverges(harness, program, environment):
            if sum(len(block.statements) for block in program.blocks):
                return Divergence(oracle="sim", target=harness.target, detail="rigged")
            return None

        monkeypatch.setitem(ORACLES, "sim", always_diverges)
        report = run_campaign(
            seed=0,
            budget=2,
            targets=["ref"],
            oracles=["sim"],
            harnesses=fuzz_harnesses,
        )
        assert not report.ok
        assert len(report.findings) == 2
        for finding in report.findings:
            assert finding.kind == "divergence"
            assert finding.detail == "rigged"
            assert finding.minimized
            assert len(finding.minimized) < len(finding.source)
            # minimal: a single statement survives
            program = parse_source(finding.minimized)
            assert len(program.statements) == 1

    def test_max_findings_stops_the_campaign_early(self, fuzz_harnesses, monkeypatch):
        monkeypatch.setitem(
            ORACLES,
            "sim",
            lambda h, p, e: Divergence(oracle="sim", target=h.target, detail="rigged"),
        )
        report = run_campaign(
            seed=0,
            budget=50,
            targets=["ref"],
            oracles=["sim"],
            minimize=False,
            max_findings=3,
            harnesses=fuzz_harnesses,
        )
        assert len(report.findings) == 3
        assert report.programs == 3 < report.budget


class TestForcedVerifierFailure:
    """With ``--verify``, a failed verifier check inside a compile leg is
    a finding, so the CI campaigns enforce the verifier."""

    @pytest.fixture
    def failing_check(self, monkeypatch):
        # The check after the ``opt`` pass: it runs before selection, so
        # a program the target cannot cover still reaches it.
        def failing(program):
            return [VerifierFinding("cse", "error", "forced failure")]

        monkeypatch.setattr(verify_module, "check_optimized_program", failing)

    def test_campaign_reports_a_crash_with_a_minimized_reproducer(
        self, failing_check, demo_result
    ):
        harness = TargetHarness.create("demo", verify=True, retarget_result=demo_result)
        report = run_campaign(
            seed=0, budget=2, targets=["demo"], verify=True, harnesses={"demo": harness}
        )
        assert not report.ok
        assert report.skips == 0
        for finding in report.findings:
            assert finding.kind == "crash"
            assert "VerificationError" in finding.detail and "[cse]" in finding.detail
            assert len(finding.minimized) < len(finding.source)

    def test_cli_campaign_exits_one(self, failing_check, capsys):
        assert main(["fuzz", "--budget", "2", "--verify", "--targets", "demo"]) == 1
        assert "VerificationError" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# findings and the corpus store
# ---------------------------------------------------------------------------


class TestCorpusStore:
    def _finding(self):
        return Finding(
            kind="divergence",
            oracle="sim",
            target="ref",
            seed=17,
            index=4,
            source="int v0, v1;\nv1 = (v0) + (1);\n",
            detail="v1: (1, 2)",
            minimized="int v0, v1;\nv1 = (v0) + (1);\n",
        )

    def test_finding_round_trips_through_dict(self):
        finding = self._finding()
        again = Finding.from_dict(finding.to_dict())
        assert again.to_dict() == finding.to_dict()
        assert again.hash == program_hash(finding.source)
        assert again.reproducer == finding.minimized

    def test_save_and_load_corpus(self, tmp_path):
        finding = self._finding()
        path = save_finding(finding, tmp_path)
        assert path.exists()
        # idempotent: same finding, same file
        assert save_finding(finding, tmp_path) == path
        assert len(list(tmp_path.glob("*.json"))) == 1
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == finding.to_dict()

    def test_missing_corpus_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []
