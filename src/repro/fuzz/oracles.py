"""Differential oracles: what "correct" means for a generated program.

Every oracle receives one lowered program plus a seeded environment and
answers with ``None`` (agreement) or a :class:`Divergence`.  A leg that
fails to *compile* with a structured :class:`ReproError` (other than an
:class:`InternalCompilerError` or a
:class:`~repro.analysis.verify.VerificationError`) raises
:class:`OracleSkip` -- e.g. a bitwise operator the target's grammar
cannot cover is a legitimate, structured refusal, not a bug, and the
optimizer may legitimately make an uncoverable program coverable (or
vice versa), so cross-leg comparison is only meaningful when both legs
compile.  An internal error, a failed verifier check and any non-Repro
exception propagate to the campaign driver, which records them as crash
findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.verify import VerificationError
from repro.diagnostics import InternalCompilerError, ReproError
from repro.hdl.ast import ModuleKind
from repro.ir.program import Program
from repro.opt import OPT_TEMP_PREFIXES
from repro.selector.burs import CodeSelector
from repro.sim.rtsim import RTSimulator
from repro.toolchain import PipelineConfig, Session, Toolchain

#: Step budget for both reference execution and RT simulation of one
#: generated program -- far above what any bounded-loop program needs,
#: so hitting it indicates a (mis)compiled runaway loop, not a slow test.
SIMULATION_STEP_LIMIT = 250_000


class OracleSkip(Exception):
    """A leg failed with a legitimate structured compile error; the
    comparison is meaningless for this (program, target) pair."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two legs of an oracle."""

    oracle: str
    target: str
    detail: str


@dataclass
class TargetHarness:
    """Compiled-leg cache for one target: the sessions every oracle
    needs, built once and reused across the whole campaign."""

    target: str
    session_opt: Session
    session_noopt: Session
    session_interp: Session
    memory_storages: frozenset

    @classmethod
    def create(
        cls,
        target: str,
        toolchain: Optional[Toolchain] = None,
        verify: Optional[bool] = None,
        retarget_result=None,
    ) -> "TargetHarness":
        """Passing ``retarget_result`` skips target resolution entirely
        (the test suites reuse their session-scoped retarget fixtures)."""
        config = PipelineConfig()
        if verify is not None:
            config = config.with_updates(verify=verify)
        if retarget_result is None:
            toolchain = toolchain or Toolchain()
            session_opt = toolchain.session(target, config=config)
            retarget_result = session_opt.retarget_result
        else:
            session_opt = Session(retarget_result, config=config)
        session_noopt = session_opt.reconfigured(
            config.with_updates(use_optimizer=False)
        )
        # Same full pipeline, but the BURS labeller walks the grammar
        # interpretively instead of through the generated tables -- the
        # two matchers must produce identical covers.
        session_interp = Session(retarget_result, config=config)
        session_interp.selector = CodeSelector(
            retarget_result.grammar,
            tables=retarget_result.selector.tables,
            matcher="interpretive",
        )
        storages = frozenset(
            module.name
            for module in retarget_result.netlist.sequential_modules()
            if module.kind == ModuleKind.MEMORY
        )
        return cls(
            target=target,
            session_opt=session_opt,
            session_noopt=session_noopt,
            session_interp=session_interp,
            memory_storages=storages,
        )


def seed_environment(program: Program) -> Dict[str, int]:
    """Deterministic initial values for every variable the program can
    read (same scheme as the backend differential suite)."""
    environment: Dict[str, int] = {}
    for name, size in sorted(program.arrays.items()):
        for index in range(size):
            environment["%s[%d]" % (name, index)] = (
                index * 31 + len(name) * 7
            ) % 95 + 1
    for position, scalar in enumerate(sorted(program.scalars)):
        environment[scalar] = (position * 13 + 5) % 50
    return environment


def observables(environment: Dict[str, int]) -> Dict[str, int]:
    """Drop optimizer-introduced temporaries; what is left is the
    program's observable state."""
    return {
        key: value
        for key, value in environment.items()
        if not key.startswith(OPT_TEMP_PREFIXES)
    }


def faithful_simulate(result, memory_storages, environment) -> Dict[str, int]:
    """Storage-faithful RT simulation of one compilation result."""
    simulator = RTSimulator(dict(environment), memory_storages=set(memory_storages))
    return simulator.run_cfg(list(result.block_codes), max_steps=SIMULATION_STEP_LIMIT)


def _compile_leg(session: Session, program: Program, leg: str):
    """Compile one leg; structured refusals (not internal errors or
    failed verifier checks) become an :class:`OracleSkip`."""
    try:
        return session.compile_program(program)
    except (InternalCompilerError, VerificationError):
        raise
    except ReproError as error:
        raise OracleSkip("%s leg: %s: %s" % (leg, type(error).__name__, error))


def _mismatches(left: Dict[str, int], right: Dict[str, int]) -> Dict[str, tuple]:
    keys = set(observables(left)) | set(observables(right))
    return {
        key: (left.get(key, 0), right.get(key, 0))
        for key in sorted(keys)
        if left.get(key, 0) != right.get(key, 0)
    }


def check_simulation(
    harness: TargetHarness, program: Program, environment: Dict[str, int]
) -> Optional[Divergence]:
    """``sim``: compiled code, simulated storage-faithfully, must equal
    reference execution of the source program."""
    compiled = _compile_leg(harness.session_opt, program, "optimized")
    simulated = faithful_simulate(compiled, harness.memory_storages, environment)
    reference = program.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
    mismatches = _mismatches(reference, simulated)
    if mismatches:
        return Divergence(
            oracle="sim",
            target=harness.target,
            detail="simulation disagrees with reference execution: %r"
            % (mismatches,),
        )
    return None


def check_optimizer(
    harness: TargetHarness, program: Program, environment: Dict[str, int]
) -> Optional[Divergence]:
    """``opt``: the optimized and ``no-opt`` pipelines must compute the
    same observables."""
    opt_result = _compile_leg(harness.session_opt, program, "optimized")
    noopt_result = _compile_leg(harness.session_noopt, program, "no-opt")
    opt_out = faithful_simulate(opt_result, harness.memory_storages, environment)
    noopt_out = faithful_simulate(noopt_result, harness.memory_storages, environment)
    mismatches = _mismatches(noopt_out, opt_out)
    if mismatches:
        return Divergence(
            oracle="opt",
            target=harness.target,
            detail="optimized pipeline disagrees with no-opt "
            "(no-opt, optimized): %r" % (mismatches,),
        )
    return None


def check_matchers(
    harness: TargetHarness, program: Program, environment: Dict[str, int]
) -> Optional[Divergence]:
    """``matcher``: table-driven and interpretive BURS matchers must
    produce equally costly covers that simulate identically."""
    tables_result = _compile_leg(harness.session_opt, program, "table-driven")
    interp_result = _compile_leg(harness.session_interp, program, "interpretive")
    if tables_result.code_size != interp_result.code_size:
        return Divergence(
            oracle="matcher",
            target=harness.target,
            detail="code size differs: tables=%d interpretive=%d"
            % (tables_result.code_size, interp_result.code_size),
        )
    tables_out = faithful_simulate(
        tables_result, harness.memory_storages, environment
    )
    interp_out = faithful_simulate(
        interp_result, harness.memory_storages, environment
    )
    mismatches = _mismatches(tables_out, interp_out)
    if mismatches:
        return Divergence(
            oracle="matcher",
            target=harness.target,
            detail="matchers disagree (tables, interpretive): %r" % (mismatches,),
        )
    return None


#: Oracle registry: name -> check(harness, program, environment).
ORACLES = {
    "sim": check_simulation,
    "opt": check_optimizer,
    "matcher": check_matchers,
}
