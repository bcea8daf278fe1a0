"""Tests for the command-line interface."""

import importlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in (["targets"], ["kernels"], ["retarget", "demo"], ["compile", "demo"]):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.out.lower()


class TestCommands:
    def test_targets_lists_all_six(self, capsys):
        assert main(["targets"]) == 0
        output = capsys.readouterr().out
        for name in ("demo", "ref", "manocpu", "tanenbaum", "bass_boost", "tms320c25"):
            assert name in output

    def test_kernels_lists_all_ten(self, capsys):
        assert main(["kernels"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") >= 10
        assert "fir" in output and "biquad_n" in output

    def test_retarget_builtin_target(self, capsys):
        assert main(["retarget", "bass_boost", "--templates", "--features"]) == 0
        output = capsys.readouterr().out
        assert "Retargeting report" in output
        assert "ACC := add(ACC, mul(XREG, CROM))" in output
        assert "fixed-point" in output

    def test_retarget_bnf(self, capsys):
        assert main(["retarget", "manocpu", "--bnf"]) == 0
        output = capsys.readouterr().out
        assert "%start START" in output

    def test_retarget_hdl_file(self, tmp_path, capsys):
        from repro.toolchain import default_registry

        hdl_file = tmp_path / "machine.hdl"
        hdl_file.write_text(default_registry().hdl_source("demo"))
        assert main(["retarget", str(hdl_file)]) == 0
        assert "demo" in capsys.readouterr().out

    def test_retarget_unknown_target_fails(self):
        with pytest.raises(SystemExit):
            main(["retarget", "z80"])

    def test_retarget_emits_the_matcher_once(self, monkeypatch, capsys):
        retarget_module = importlib.import_module("repro.record.retarget")
        emit = retarget_module.compile_matcher_module
        calls = []

        def counting_emit(*args, **kwargs):
            calls.append(args)
            return emit(*args, **kwargs)

        monkeypatch.setattr(retarget_module, "compile_matcher_module", counting_emit)
        assert main(["retarget", "demo", "--no-cache"]) == 0
        assert len(calls) == 1
        assert "parser_generation" in capsys.readouterr().out

    def test_compile_kernel(self, capsys):
        assert main(["compile", "tms320c25", "--kernel", "real_update", "--binary"]) == 0
        output = capsys.readouterr().out
        assert "code size: 4 instruction words" in output
        assert "100%" in output
        assert "IM:" in output

    def test_compile_kernel_with_baseline(self, capsys):
        assert main(["compile", "tms320c25", "--kernel", "real_update", "--baseline"]) == 0
        output = capsys.readouterr().out
        assert "code size: 5 instruction words" in output

    def test_compile_source_file(self, tmp_path, capsys):
        source = tmp_path / "prog.c"
        source.write_text("int a, b, c; c = a * b + c;")
        assert main(["compile", "tms320c25", str(source)]) == 0
        output = capsys.readouterr().out
        assert "instruction words" in output

    def test_compile_without_input_fails(self):
        with pytest.raises(SystemExit):
            main(["compile", "tms320c25"])

    def test_table3_command(self, capsys):
        assert main(["table3"]) == 0
        output = capsys.readouterr().out
        for name in ("demo", "ref", "tms320c25"):
            assert name in output


class TestFuzzCommand:
    def test_fuzz_subcommand_exists(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "--seed", "3", "--budget", "7",
                                  "--targets", "ref", "--oracle", "sim,opt"])
        assert args.command == "fuzz"
        assert args.seed == 3 and args.budget == 7

    def test_small_clean_campaign_exits_zero(self, capsys):
        code = main(["fuzz", "--seed", "0", "--budget", "2",
                     "--targets", "ref", "--oracle", "sim"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "0 finding(s)" in captured.out

    def test_json_report_is_machine_readable(self, capsys):
        import json

        code = main(["fuzz", "--seed", "0", "--budget", "1",
                     "--targets", "ref", "--oracle", "opt", "--json"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        report = json.loads(captured.out)
        assert report["budget"] == 1
        assert report["divergences"] == 0 and report["crashes"] == 0

    def test_unknown_oracle_is_a_structured_cli_error(self):
        with pytest.raises(SystemExit, match="unknown oracle"):
            main(["fuzz", "--budget", "1", "--oracle", "santa"])


class TestCrashContract:
    """ISSUE 8: internal errors exit non-zero with one structured
    diagnostic line -- a raw traceback never reaches the user."""

    def test_injected_fault_exits_ex_software(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "select")
        code = main(["compile", "demo", "--kernel", "fir"])
        captured = capsys.readouterr()
        assert code == 70  # EX_SOFTWARE, distinct from user errors (1)
        assert captured.err.startswith("error: InternalCompilerError [internal]")
        assert "in pass 'select'" in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_fault_in_another_pass_is_also_wrapped(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "schedule")
        code = main(["compile", "demo", "--kernel", "fir"])
        captured = capsys.readouterr()
        assert code == 70
        assert "in pass 'schedule'" in captured.err

    def test_user_errors_keep_exit_code_one(self, monkeypatch, capsys):
        # The injected fault never fires for a non-matching pass name, and
        # ordinary structured errors stay on the user-error exit path.
        monkeypatch.setenv("REPRO_INJECT_FAULT", "select")
        code = main(["compile", "demo", "--kernel", "nosuchkernel"])
        assert code != 70

    def test_batch_surfaces_internal_errors_per_job(self, monkeypatch, tmp_path, capsys):
        import json

        monkeypatch.setenv("REPRO_INJECT_FAULT", "select")
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"target": "demo", "kernel": "fir"}\n')
        code = main(["batch", str(jobs)])
        captured = capsys.readouterr()
        assert code == 1  # some job failed, but the batch completed
        response = json.loads(captured.out.splitlines()[0])
        assert not response["ok"]
        assert response["error"]["type"] == "InternalCompilerError"
        assert response["error"]["phase"] == "internal"
        assert "Traceback" not in captured.err
