"""Tests for the repro.toolchain subsystem: registry, passes, cache,
session API, and the structured diagnostics layer."""

import importlib
import pickle
import time

import pytest

from repro.diagnostics import (
    PipelineError,
    ReproError,
    SourceLocation,
    TargetError,
    error_report,
)
from repro.dspstone import all_kernel_names, get_kernel, kernel_program
from repro.frontend import LoweringError, SourceSyntaxError
from repro.hdl.errors import HdlParseError
from repro.ir.expr import Const
from repro.ir.program import Statement
from repro.toolchain import (
    PRESETS,
    Pass,
    PassManager,
    PipelineConfig,
    RetargetCache,
    Session,
    TargetRegistry,
    TargetSpec,
    Toolchain,
    default_registry,
    restricted_selector,
    retarget_fingerprint,
)

# ---------------------------------------------------------------------------
# Target registry
# ---------------------------------------------------------------------------


class TestTargetRegistry:
    def test_default_registry_has_builtins(self):
        toolchain = Toolchain()
        builtins = {"demo", "ref", "manocpu", "tanenbaum", "bass_boost", "tms320c25"}
        assert builtins <= set(toolchain.registry.names())
        spec = toolchain.registry.get("tms320c25")
        assert spec.origin == "builtin"
        assert spec.hdl_source == default_registry().hdl_source("tms320c25")

    def test_register_hdl_and_lookup(self):
        registry = TargetRegistry()
        registry.register_hdl("mychip", "processor mychip; ...", category="custom")
        assert "mychip" in registry
        assert registry.get("mychip").category == "custom"
        assert registry.names() == ["mychip"]

    def test_duplicate_registration_rejected(self):
        registry = TargetRegistry()
        registry.register_hdl("chip", "hdl-a")
        with pytest.raises(TargetError):
            registry.register_hdl("chip", "hdl-b")
        registry.register_hdl("chip", "hdl-b", replace=True)
        assert registry.get("chip").hdl_source == "hdl-b"

    def test_unknown_target_raises_target_error(self):
        registry = TargetRegistry()
        with pytest.raises(TargetError):
            registry.get("z80")
        # Backwards compatibility: TargetError is a KeyError.
        with pytest.raises(KeyError):
            registry.get("z80")

    def test_decorator_registration(self):
        registry = TargetRegistry()

        @registry.target("quirk", category="custom", description="a quirky ASIP")
        def _quirk():
            return "processor quirk; ..."

        spec = registry.get("quirk")
        assert spec.hdl_source == "processor quirk; ..."
        assert spec.description == "a quirky ASIP"

    def test_register_file_and_resolve_path(self, tmp_path):
        hdl_file = tmp_path / "machine.hdl"
        hdl_file.write_text(default_registry().hdl_source("demo"))
        registry = TargetRegistry()
        spec = registry.register_file(str(hdl_file))
        assert spec.name == "machine"
        assert spec.origin == "file"
        # resolve() accepts paths without registering them
        ephemeral = registry.resolve(str(hdl_file))
        assert ephemeral.hdl_source == default_registry().hdl_source("demo")
        with pytest.raises(TargetError):
            registry.resolve("no-such-target-or-file")

    def test_registry_mapping_protocol(self):
        registry = TargetRegistry()
        registry.register(TargetSpec(name="a", hdl_source="x"))
        registry.register(TargetSpec(name="b", hdl_source="y"))
        assert len(registry) == 2
        assert list(registry) == ["a", "b"]
        assert registry["a"].hdl_source == "x"


# ---------------------------------------------------------------------------
# Pass pipeline
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_default_pass_order(self):
        manager = PassManager.from_config(PipelineConfig())
        assert manager.names() == ["opt", "select", "schedule", "spill", "compact"]

    def test_no_opt_preset_drops_optimizer(self):
        manager = PassManager.from_config(PipelineConfig.preset("no-opt"))
        assert manager.names() == ["select", "schedule", "spill", "compact"]

    def test_config_pass_names_match_manager(self):
        for config in PRESETS.values():
            assert PassManager.from_config(config).names() == config.pass_names()

    def test_encode_pass_appended(self):
        manager = PassManager.from_config(PipelineConfig(encode=True))
        assert manager.names()[-1] == "encode"

    def test_no_scheduling_preset_drops_pass(self):
        manager = PassManager.from_config(PipelineConfig.preset("no-scheduling"))
        assert "schedule" not in manager.names()
        assert "select" in manager.names() and "spill" in manager.names()

    def test_unknown_preset_raises(self):
        with pytest.raises(PipelineError):
            PipelineConfig.preset("turbo")

    def test_pipeline_editing(self):
        manager = PassManager.from_config(PipelineConfig())

        class MarkerPass(Pass):
            name = "marker"

            def run(self, state, context):
                pass

        manager.insert_after("select", MarkerPass())
        assert manager.names()[manager.names().index("select") + 1] == "marker"
        manager.remove("marker")
        assert "marker" not in manager.names()
        with pytest.raises(PipelineError):
            manager.remove("marker")

    def test_custom_pass_runs(self, demo_result):
        observed = []

        class CountPass(Pass):
            name = "count"

            def run(self, state, context):
                observed.append(len(state.all_instances()))

        session = Session(demo_result)
        session.pass_manager.insert_after("spill", CountPass())
        session.compile("int a, b, d; d = a + b;")
        assert observed and observed[0] > 0

    def test_encode_pass_produces_encoding(self, demo_result):
        session = Session(demo_result, config=PipelineConfig(encode=True))
        compiled = session.compile("int a, b, d; d = a + b;")
        assert compiled.encoding is not None
        assert "IM" in compiled.encoding


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------


class TestSession:
    def test_for_target_compiles(self):
        session = Toolchain.for_target("demo", use_cache=False)
        compiled = session.compile("int a, b, d; d = a + b;")
        assert compiled.processor == "demo"
        assert compiled.code_size > 0

    def test_compile_many_equivalent_to_sequential_legacy(self, tms_result):
        kernels = [get_kernel(name).source for name in all_kernel_names()]
        session = Session(tms_result)
        batch = session.compile_many(kernels, names=all_kernel_names())
        sequential = Session(tms_result)
        for name, compiled in zip(all_kernel_names(), batch):
            reference = sequential.compile(get_kernel(name).source, name=name)
            assert compiled.code_size == reference.code_size, name
            assert compiled.spill_count == reference.spill_count, name
            assert compiled.operation_count == reference.operation_count, name

    def test_compile_many_name_mismatch_rejected(self, demo_result):
        session = Session(demo_result)
        with pytest.raises(ValueError):
            session.compile_many(["int a; a = 1;"], names=["x", "y"])

    def test_compile_accepts_ir_program(self, tms_result):
        from repro.dspstone import kernel_program

        session = Session(tms_result)
        program = kernel_program("fir")
        assert session.compile(program).code_size == session.compile_program(program).code_size

    def test_compile_kernel(self, tms_result):
        session = Session(tms_result)
        compiled = session.compile_kernel("real_update")
        assert compiled.code_size > 0

    def test_reconfigured_shares_retarget_result(self, tms_result):
        session = Session(tms_result)
        restricted = session.reconfigured(PipelineConfig.preset("no-chained"))
        assert restricted.retarget_result is session.retarget_result
        full_size = session.compile_kernel("real_update").code_size
        restricted_size = restricted.compile_kernel("real_update").code_size
        assert restricted_size > full_size

    def test_repeated_compiles_are_independent(self, demo_result):
        """The pipeline must never corrupt shared selection state: mutating
        one compile's output does not change the next compile."""
        session = Session(demo_result)
        source = "int a, b, c, d; d = c + a * b;"
        first = session.compile(source)
        baseline = (first.code_size, first.operation_count)
        # vandalise the first result's statement codes and instance lists
        for code in first.statement_codes:
            code.instances.clear()
        second = session.compile(source)
        assert (second.code_size, second.operation_count) == baseline

    def test_restricted_selector_memoized_across_compilers(self, tms_result):
        first = Session(tms_result, config=PipelineConfig(allow_chained=False))
        second = Session(tms_result, config=PipelineConfig(allow_chained=False))
        assert first.selector is second.selector
        assert restricted_selector(tms_result, allow_chained=False) is first.selector
        # the unrestricted selector is the retarget result's own
        assert restricted_selector(tms_result) is tms_result.selector

    def test_summary_reports_passes(self, demo_result):
        summary = Session(demo_result).summary()
        assert summary["processor"] == "demo"
        assert "select" in summary["passes"]


class TestSessionsSkipTheMatcher:
    """Sessions select with the tables and never read the emitted matcher
    module, so no session path emits it."""

    @pytest.fixture()
    def broken_emitter(self, monkeypatch):
        # The package attribute repro.record.retarget is the function.
        retarget_module = importlib.import_module("repro.record.retarget")

        def refuse(*_args, **_kwargs):
            raise AssertionError("a session emitted the matcher module")

        monkeypatch.setattr(retarget_module, "compile_matcher_module", refuse)

    def test_cached_sessions_never_emit(self, tmp_path, broken_emitter):
        cache = RetargetCache(directory=tmp_path)
        miss = Toolchain(cache=cache).session("demo")
        memory_hit = Toolchain(cache=cache).session("demo")
        assert (cache.misses, cache.hits) == (1, 1)
        disk_cache = RetargetCache(directory=tmp_path)
        disk_hit = Toolchain(cache=disk_cache).session("demo")
        assert (disk_cache.misses, disk_cache.hits) == (0, 1)
        for session in (miss, memory_hit, disk_hit):
            assert session.retarget_result.matcher_module is None
            assert session.compile("int a, b, d; d = a + b;").code_size > 0

    def test_uncached_session_never_emits(self, broken_emitter):
        session = Toolchain.for_target("demo", use_cache=False)
        assert session.retarget_result.matcher_module is None

    def test_matcher_knob_is_rejected(self):
        with pytest.raises(TypeError):
            Toolchain().session("demo", generate_matcher=True)


class TestWarmPath:
    """Constant per-compile work is done once: kernels are lowered once
    per process, the optimizer's grammar scan once per session."""

    def test_mutating_a_kernel_program_leaves_later_compiles_unchanged(self, tms_result):
        session = Session(tms_result)
        before = session.compile_kernel("fir")
        program = kernel_program("fir")
        program.blocks[0].statements.append(Statement("y", Const(1)))
        after = session.compile_kernel("fir")
        assert after.listing() == before.listing()
        assert after.code_size == before.code_size

    def test_no_grammar_scan_per_compile(self, tms_result, monkeypatch):
        import repro.toolchain.passes as passes_module
        import repro.toolchain.session as session_module

        calls = []
        scan = passes_module.introducible_ops

        def counting_scan(grammar):
            calls.append(grammar)
            return scan(grammar)

        monkeypatch.setattr(passes_module, "introducible_ops", counting_scan)
        monkeypatch.setattr(session_module, "introducible_ops", counting_scan)
        session = Session(tms_result)
        assert len(calls) == 1
        for name in ("fir", "fir_loop"):
            session.compile_kernel(name)
            session.compile(get_kernel(name).source)
        assert len(calls) == 1

    @pytest.mark.parametrize("preset", ["no-chained", "conventional"])
    def test_restricted_session_gates_on_its_own_grammar(self, ref_result, preset, monkeypatch):
        from repro.opt.pipeline import OptPipeline
        from repro.toolchain.passes import introducible_ops

        session = Session(ref_result, config=PipelineConfig.preset(preset))
        assert session.selector.grammar is not ref_result.grammar
        assert session.supported_ops == introducible_ops(session.selector.grammar)
        seen = []
        run = OptPipeline.run

        def spying_run(self, program, supported_ops=None, observer=None):
            seen.append(supported_ops)
            return run(self, program, supported_ops=supported_ops, observer=observer)

        monkeypatch.setattr(OptPipeline, "run", spying_run)
        session.compile_kernel("fir")
        assert seen == [session.supported_ops]


# ---------------------------------------------------------------------------
# Retarget cache
# ---------------------------------------------------------------------------


class TestRetargetCache:
    HDL = None  # filled lazily from the demo model

    @pytest.fixture()
    def demo_hdl(self):
        return default_registry().hdl_source("demo")

    def test_cold_miss_then_warm_hit(self, tmp_path, demo_hdl):
        cache = RetargetCache(directory=tmp_path)
        result, hit = cache.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit
        again, hit = cache.get_or_retarget(demo_hdl, generate_matcher=False)
        assert hit
        assert again is result
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_persistence_across_instances(self, tmp_path, demo_hdl):
        first = RetargetCache(directory=tmp_path)
        original, hit = first.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit
        second = RetargetCache(directory=tmp_path)
        restored, hit = second.get_or_retarget(demo_hdl, generate_matcher=False)
        assert hit
        assert restored is not original  # unpickled copy
        assert restored.processor == original.processor
        assert restored.template_count == original.template_count
        # the restored selector must actually work
        session = Session(restored)
        assert session.compile("int a, b, d; d = a + b;").code_size > 0

    def test_hdl_change_invalidates(self, tmp_path, demo_hdl):
        cache = RetargetCache(directory=tmp_path)
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        modified = demo_hdl + "\n-- a trailing comment\n"
        _result, hit = cache.get_or_retarget(modified, generate_matcher=False)
        assert not hit
        assert cache.misses == 2

    def test_option_change_invalidates(self, demo_hdl):
        base = retarget_fingerprint(demo_hdl)
        assert retarget_fingerprint(demo_hdl, max_depth=5) != base
        assert retarget_fingerprint(demo_hdl + " ") != base
        from repro.expansion import ExpansionOptions

        no_expansion = ExpansionOptions(use_commutativity=False, use_rewrite_rules=False)
        assert retarget_fingerprint(demo_hdl, expansion=no_expansion) != base

    def test_matcher_regenerated_on_hit(self, tmp_path, demo_hdl):
        writer = RetargetCache(directory=tmp_path)
        writer.get_or_retarget(demo_hdl, generate_matcher=False)
        reader = RetargetCache(directory=tmp_path)
        result, hit = reader.get_or_retarget(demo_hdl, generate_matcher=True)
        assert hit
        assert result.matcher_module is not None
        assert result.matcher_module.PROCESSOR == "demo"

    def test_regenerated_matcher_times_parser_generation(
        self, tmp_path, demo_hdl, monkeypatch
    ):
        """An entry stored without the matcher reports the emission a hit
        runs, not the zero of the caller that stored it."""
        RetargetCache(directory=tmp_path).prewarm([demo_hdl])
        retarget_module = importlib.import_module("repro.record.retarget")
        emit = retarget_module.compile_matcher_module

        def slow_emit(*args, **kwargs):
            time.sleep(0.05)
            return emit(*args, **kwargs)

        monkeypatch.setattr(retarget_module, "compile_matcher_module", slow_emit)
        result, hit = RetargetCache(directory=tmp_path).get_or_retarget(
            demo_hdl, generate_matcher=True
        )
        assert hit
        assert result.matcher_module is not None
        assert result.timings.parser_generation >= 0.05

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path, demo_hdl):
        cache = RetargetCache(directory=tmp_path)
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        fresh = RetargetCache(directory=tmp_path)
        _result, hit = fresh.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit

    def test_truncated_pickle_falls_back_and_overwrites(self, tmp_path, demo_hdl):
        """Regression: a torn/truncated entry must re-retarget AND leave a
        valid entry behind, never raise."""
        cache = RetargetCache(directory=tmp_path)
        result, _hit = cache.get_or_retarget(demo_hdl, generate_matcher=False)
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".pkl"]
        healthy = entry.read_bytes()
        entry.write_bytes(healthy[: len(healthy) // 2])  # truncate mid-stream

        fresh = RetargetCache(directory=tmp_path)
        recovered, hit = fresh.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit  # fell back to re-retargeting
        assert recovered.processor == result.processor
        # the bad entry was overwritten with a loadable one
        reader = RetargetCache(directory=tmp_path)
        _again, hit = reader.get_or_retarget(demo_hdl, generate_matcher=False)
        assert hit

    def test_wrong_type_pickle_falls_back_and_overwrites(self, tmp_path, demo_hdl):
        """An entry that unpickles into the wrong type (format skew) is
        treated exactly like corruption."""
        cache = RetargetCache(directory=tmp_path)
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".pkl"]
        entry.write_bytes(pickle.dumps({"not": "a RetargetResult"}))

        fresh = RetargetCache(directory=tmp_path)
        _result, hit = fresh.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit
        reader = RetargetCache(directory=tmp_path)
        _again, hit = reader.get_or_retarget(demo_hdl, generate_matcher=False)
        assert hit

    def test_corrupt_entry_get_never_raises(self, tmp_path, demo_hdl):
        cache = RetargetCache(directory=tmp_path)
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".pkl"]
        key = entry.stem
        entry.write_bytes(b"\x80")  # truncated pickle header
        fresh = RetargetCache(directory=tmp_path)
        assert fresh.get(key) is None  # miss, not an exception

    def test_entry_of_an_older_format_is_a_miss(self, tmp_path, demo_hdl, monkeypatch):
        """The format version is hashed into every key, so a pickle of an
        older layout is never loaded: it is a miss, and the compile on the
        re-retargeted result succeeds."""
        from repro.toolchain import cache as cache_module

        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 4)
        RetargetCache(directory=tmp_path).get_or_retarget(
            demo_hdl, generate_matcher=False
        )
        monkeypatch.undo()
        assert cache_module.CACHE_FORMAT_VERSION == 5
        fresh = RetargetCache(directory=tmp_path)
        result, hit = fresh.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit
        assert Session(result).compile("int a, b, d; d = a + b;").code_size > 0

    def test_disk_hit_returns_canonical_patterns(self, tmp_path):
        """Pattern nodes pickle as constructor calls, so a result loaded
        from disk shares every pattern node with a fresh retarget, and
        re-expanding its extracted base reproduces its extended base."""
        from repro.expansion import expand_template_base
        from repro.record.retarget import retarget

        hdl = default_registry().hdl_source("tms320c25")
        RetargetCache(directory=tmp_path).get_or_retarget(hdl, generate_matcher=False)
        loaded, hit = RetargetCache(directory=tmp_path).get_or_retarget(
            hdl, generate_matcher=False
        )
        assert hit
        fresh = retarget(hdl, generate_matcher=False)
        for mine, theirs in (
            (loaded.extraction.template_base, fresh.extraction.template_base),
            (loaded.template_base, fresh.template_base),
        ):
            assert len(mine) == len(theirs)
            assert all(a.pattern is b.pattern for a, b in zip(mine, theirs))
        assert all(
            a.pattern is b.pattern for a, b in zip(loaded.grammar.rules, fresh.grammar.rules)
        )
        again = expand_template_base(loaded.extraction.template_base)
        assert len(again) == len(loaded.template_base)
        for a, b in zip(again, loaded.template_base):
            assert a.pattern is b.pattern
            assert (a.destination, a.condition.node, a.origin, a.addressing) == (
                b.destination, b.condition.node, b.origin, b.addressing
            )

    def test_rule_order_is_part_of_the_key(self):
        """The first matching rule of equal cost wins, so the same rules in
        another order can give another template order; they must not share
        a cache entry."""
        from repro.expansion import ExpansionOptions, default_transformation_library
        from repro.record.retarget import retarget

        hdl = default_registry().hdl_source("ref")
        rules = default_transformation_library()
        forward = ExpansionOptions(rules=rules)
        backward = ExpansionOptions(rules=list(reversed(rules)))
        assert retarget_fingerprint(hdl, expansion=forward) != retarget_fingerprint(
            hdl, expansion=backward
        )
        cache = RetargetCache(directory=False)
        cache.get_or_retarget(hdl, expansion=forward, generate_matcher=False)
        cached, hit = cache.get_or_retarget(hdl, expansion=backward, generate_matcher=False)
        assert not hit
        fresh = retarget(hdl, expansion=backward, generate_matcher=False)

        def order(result):
            return [(t.destination, str(t.pattern), t.origin) for t in result.template_base]

        assert order(cached) == order(fresh)

    def test_rules_differing_in_one_schema_leaf_get_different_keys(self):
        from repro.expansion import ExpansionOptions, RewriteRule
        from repro.expansion.rewrite import Slot
        from repro.ise import ConstLeaf, OpNode

        def options(constant):
            return ExpansionOptions(
                rules=[
                    RewriteRule(
                        name="shl_via_add",
                        hardware_schema=OpNode("add", (Slot(0), Slot(0))),
                        source_schema=OpNode("shl", (Slot(0), ConstLeaf(constant))),
                    )
                ]
            )

        hdl = default_registry().hdl_source("demo")
        assert retarget_fingerprint(hdl, expansion=options(1)) != retarget_fingerprint(
            hdl, expansion=options(2)
        )
        assert retarget_fingerprint(hdl, expansion=options(1)) == retarget_fingerprint(
            hdl, expansion=options(1)
        )

    def test_memory_only_cache(self, demo_hdl):
        cache = RetargetCache(directory=False)
        assert cache.directory is None
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        _result, hit = cache.get_or_retarget(demo_hdl, generate_matcher=False)
        assert hit
        assert cache.stats()["disk_entries"] == 0

    def test_clear(self, tmp_path, demo_hdl):
        cache = RetargetCache(directory=tmp_path)
        cache.get_or_retarget(demo_hdl, generate_matcher=False)
        assert cache.clear() == 1
        _result, hit = cache.get_or_retarget(demo_hdl, generate_matcher=False)
        assert not hit

    def test_retarget_result_pickle_drops_private_state(self, demo_result):
        restricted_selector(demo_result, allow_chained=False)
        assert "_restricted_selectors" in demo_result.__dict__
        clone = pickle.loads(pickle.dumps(demo_result))
        assert "_restricted_selectors" not in clone.__dict__
        assert clone.matcher_module is None


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_hdl_errors_are_repro_errors(self):
        from repro.hdl import parse_processor

        with pytest.raises(ReproError) as excinfo:
            parse_processor("processor broken\n$")
        assert isinstance(excinfo.value, HdlParseError)
        assert excinfo.value.phase == "hdl"
        assert excinfo.value.location.line >= 1

    def test_frontend_errors_are_repro_errors(self):
        from repro.frontend import lower_to_program

        with pytest.raises(ReproError) as excinfo:
            lower_to_program("int a; a = $;")
        assert isinstance(excinfo.value, SourceSyntaxError)
        with pytest.raises(ReproError) as excinfo:
            lower_to_program("int a; a = undeclared;")
        assert isinstance(excinfo.value, LoweringError)
        assert excinfo.value.phase == "frontend"

    def test_selection_errors_are_repro_errors(self, demo_result):
        from repro.codegen.selection import CodeGenerationError

        session = Session(demo_result)
        with pytest.raises(ReproError) as excinfo:
            session.compile("int a, b, c; c = a / b;")  # demo has no divider
        assert isinstance(excinfo.value, CodeGenerationError)

    def test_source_location_formatting(self):
        location = SourceLocation(line=3, column=7, filename="chip.hdl")
        assert str(location) == "chip.hdl, line 3, column 7"
        assert not SourceLocation()

    def test_error_report(self):
        error = TargetError("unknown target 'z80'")
        report = error_report(error)
        assert "TargetError" in report and "[target]" in report and "z80" in report


# ---------------------------------------------------------------------------
# Program naming through compile / compile_many
# ---------------------------------------------------------------------------


class TestSessionNaming:
    """Regression tests: ``name=`` must apply to Program sources too."""

    def test_source_text_default_name(self, demo_result):
        assert Session(demo_result).compile("int a, b; b = a;").name == "program"

    def test_source_text_explicit_name(self, demo_result):
        compiled = Session(demo_result).compile("int a, b; b = a;", name="tiny")
        assert compiled.name == "tiny"

    def test_program_keeps_its_own_name_by_default(self, demo_result):
        program = kernel_program("real_update")
        compiled = Session(demo_result).compile(program)
        assert compiled.name == "real_update"

    def test_program_rename_does_not_mutate_the_caller(self, demo_result):
        program = kernel_program("real_update")
        compiled = Session(demo_result).compile(program, name="renamed")
        assert compiled.name == "renamed"
        assert compiled.program.name == "renamed"
        assert program.name == "real_update"  # caller's object untouched
        # renamed compilation is otherwise identical
        baseline = Session(demo_result).compile(program)
        assert compiled.code_size == baseline.code_size

    def test_compile_many_default_names_do_not_desync(self, demo_result):
        program = kernel_program("dot_product")
        batch = Session(demo_result).compile_many([program, "int a, b; b = a;"])
        assert [r.name for r in batch] == ["dot_product", "program1"]

    def test_compile_many_explicit_names_apply_to_programs(self, demo_result):
        program = kernel_program("dot_product")
        batch = Session(demo_result).compile_many(
            [program, "int a, b; b = a;"], names=["first", "second"]
        )
        assert [r.name for r in batch] == ["first", "second"]
        assert program.name == "dot_product"

    def test_compile_many_name_count_mismatch_raises(self, demo_result):
        with pytest.raises(ValueError):
            Session(demo_result).compile_many(["int a, b; b = a;"], names=["a", "b"])
