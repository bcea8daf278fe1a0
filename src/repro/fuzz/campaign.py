"""The differential fuzzing campaign driver.

:func:`run_campaign` generates ``budget`` seeded programs, runs every
requested oracle on every requested target, classifies outcomes
(agreement / structured skip / divergence / crash) and delta-debugs each
finding down to a minimal reproducer.  Everything is deterministic in
the campaign seed: program ``index`` always uses per-program seed
``seed * _SEED_STRIDE + index``, so any finding can be regenerated from
``(campaign_seed, index)`` alone.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.verify import VerificationError
from repro.diagnostics import InternalCompilerError, ReproError
from repro.frontend.lowering import lower_to_program
from repro.fuzz.generator import DEFAULT_CONFIG, GeneratorConfig, generate_source
from repro.fuzz.minimize import DEFAULT_EVAL_BUDGET, minimize_source
from repro.fuzz.oracles import (
    ORACLES,
    OracleSkip,
    TargetHarness,
    seed_environment,
)
from repro.obs import log
from repro.records import Record
from repro.toolchain import Toolchain

#: Targets whose grammars cover the language subset the generator emits
#: (the other built-ins cannot compile any DSPStone-shaped program).
DSP_TARGETS = ("demo", "ref", "tms320c25")

#: The oracle names accepted by ``run_campaign`` / ``repro fuzz``.
ORACLE_NAMES = tuple(ORACLES)

_SEED_STRIDE = 1_000_003  # prime > any realistic budget


def program_hash(source: str) -> str:
    """Short stable content hash identifying one program."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


@dataclass
class Finding(Record):
    """One divergence or crash, with its minimized reproducer."""

    kind: str        # "divergence" | "crash"
    oracle: str
    target: str
    seed: int        # the per-program seed
    index: int       # position within the campaign
    source: str
    detail: str
    minimized: str = ""

    @property
    def hash(self) -> str:
        return program_hash(self.source)

    @property
    def reproducer(self) -> str:
        return self.minimized or self.source

    def to_dict(self) -> dict:
        """The fields, then the derived ``hash`` (a corpus entry's name)."""
        return {**super().to_dict(), "hash": self.hash}

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """The finding a :meth:`to_dict` result describes (less its ``hash``)."""
        return super().from_dict({k: v for k, v in data.items() if k != "hash"})


@dataclass
class CampaignReport:
    """The outcome of one campaign run."""

    seed: int
    budget: int
    targets: List[str]
    oracles: List[str]
    programs: int = 0
    checks: int = 0
    skips: int = 0
    findings: List[Finding] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def programs_per_s(self) -> float:
        return self.programs / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "targets": list(self.targets),
            "oracles": list(self.oracles),
            "programs": self.programs,
            "checks": self.checks,
            "skips": self.skips,
            "divergences": sum(
                1 for f in self.findings if f.kind == "divergence"
            ),
            "crashes": sum(1 for f in self.findings if f.kind == "crash"),
            "elapsed_s": round(self.elapsed_s, 3),
            "programs_per_s": round(self.programs_per_s, 2),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def summary(self) -> str:
        return (
            "%d programs x %d target(s) x %d oracle(s): %d check(s), "
            "%d structured skip(s), %d finding(s) in %.1fs (%.1f programs/s)"
            % (
                self.programs,
                len(self.targets),
                len(self.oracles),
                self.checks,
                self.skips,
                len(self.findings),
                self.elapsed_s,
                self.programs_per_s,
            )
        )


def _classify(error: BaseException) -> str:
    """Crash findings carry the error class + message, one line."""
    return "%s: %s" % (type(error).__name__, error)


def _run_oracle(check, harness, program, environment):
    """One oracle on one program: ('ok'|'skip'|'divergence'|'crash', payload)."""
    try:
        divergence = check(harness, program, environment)
    except OracleSkip as skip:
        return "skip", skip.reason
    except (InternalCompilerError, VerificationError) as error:
        # A failed verifier check is a finding: its message names the check.
        return "crash", _classify(error)
    except ReproError as error:
        # A structured refusal outside the compile legs (should not
        # happen; compile legs raise OracleSkip) -- still not a crash.
        return "skip", _classify(error)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as error:
        # SimulationError, StepLimitError, KeyError... -- anything
        # unstructured escaping an oracle is by definition a bug.
        return "crash", _classify(error)
    if divergence is not None:
        return "divergence", divergence.detail
    return "ok", None


def _minimization_predicate(
    check, harness, outcome_kind: str, oracle: str
) -> Callable[[str], bool]:
    """Does a candidate source still reproduce (same oracle, same
    outcome kind)?  Used by the delta debugger."""

    def predicate(candidate_source: str) -> bool:
        try:
            program = lower_to_program(candidate_source, name="minimize")
        except ReproError:
            return False
        environment = seed_environment(program)
        kind, _payload = _run_oracle(check, harness, program, environment)
        return kind == outcome_kind

    return predicate


def run_campaign(
    seed: int = 0,
    budget: int = 200,
    targets: Optional[Sequence[str]] = None,
    oracles: Optional[Sequence[str]] = None,
    generator_config: GeneratorConfig = DEFAULT_CONFIG,
    minimize: bool = True,
    minimize_budget: int = DEFAULT_EVAL_BUDGET,
    toolchain: Optional[Toolchain] = None,
    verify: Optional[bool] = None,
    max_findings: int = 25,
    progress: Optional[Callable[[int, int], None]] = None,
    harnesses: Optional[Dict[str, TargetHarness]] = None,
) -> CampaignReport:
    """Run a differential fuzzing campaign; see the module docstring.

    ``verify=None`` leaves the pipeline verifier at its environment
    default (``REPRO_VERIFY``); ``True`` forces it on for every leg.
    ``max_findings`` stops the campaign early once that many findings
    accumulated (a systematically broken build should not spend the
    whole budget rediscovering itself).  ``progress`` is called as
    ``progress(done, budget)`` after each program.  ``harnesses`` maps
    target names to prebuilt :class:`TargetHarness` objects (missing
    targets are built on demand).
    """
    if targets:
        targets = list(targets)
    elif harnesses:
        targets = sorted(harnesses)
    else:
        targets = list(DSP_TARGETS)
    oracle_names = list(oracles) if oracles else list(ORACLE_NAMES)
    for name in oracle_names:
        if name not in ORACLES:
            raise ValueError(
                "unknown oracle %r; available: %s"
                % (name, ", ".join(ORACLE_NAMES))
            )
    report = CampaignReport(
        seed=seed, budget=budget, targets=targets, oracles=oracle_names
    )
    harnesses = dict(harnesses) if harnesses else {}
    if any(target not in harnesses for target in targets):
        toolchain = toolchain or Toolchain()
    for target in targets:
        if target not in harnesses:
            harnesses[target] = TargetHarness.create(
                target, toolchain=toolchain, verify=verify
            )
    log.info(
        "fuzz_campaign_start",
        seed=seed,
        budget=budget,
        targets=",".join(targets),
        oracles=",".join(oracle_names),
    )
    started = time.perf_counter()
    for index in range(budget):
        program_seed = seed * _SEED_STRIDE + index
        source = generate_source(
            program_seed, config=generator_config, name="fuzz%d" % index
        )
        report.programs += 1
        try:
            program = lower_to_program(source, name="fuzz%d" % index)
        except ReproError as error:
            # The generator must only emit lowerable programs; a
            # structured refusal here is a generator/frontend bug.
            report.findings.append(
                Finding(
                    kind="crash",
                    oracle="frontend",
                    target="*",
                    seed=program_seed,
                    index=index,
                    source=source,
                    detail=_classify(error),
                )
            )
            continue
        environment = seed_environment(program)
        for target in targets:
            harness = harnesses[target]
            for oracle in oracle_names:
                check = ORACLES[oracle]
                kind, payload = _run_oracle(check, harness, program, environment)
                report.checks += 1
                if kind == "ok":
                    continue
                if kind == "skip":
                    report.skips += 1
                    continue
                finding = Finding(
                    kind=kind,
                    oracle=oracle,
                    target=target,
                    seed=program_seed,
                    index=index,
                    source=source,
                    detail=str(payload),
                )
                if minimize:
                    predicate = _minimization_predicate(
                        check, harness, kind, oracle
                    )
                    finding.minimized = minimize_source(
                        source, predicate, budget=minimize_budget
                    )
                log.warning(
                    "fuzz_finding",
                    kind=kind,
                    oracle=oracle,
                    target=target,
                    seed=program_seed,
                    index=index,
                    hash=finding.hash,
                )
                report.findings.append(finding)
        if progress is not None:
            progress(index + 1, budget)
        if len(report.findings) >= max_findings:
            break
    report.elapsed_s = time.perf_counter() - started
    log.info(
        "fuzz_campaign_done",
        programs=report.programs,
        checks=report.checks,
        findings=len(report.findings),
        skips=report.skips,
        elapsed_s=round(report.elapsed_s, 6),
    )
    return report
