"""The pipeline-wide static verifier.

Independent re-derivation of the invariants every pipeline stage is
supposed to preserve, so a bug in a pass surfaces as a structured
:class:`Finding` instead of silently wrong code:

* **CFG well-formedness** (:func:`check_cfg`) -- blocks exist and are
  uniquely named, the entry resolves, every branch target resolves,
  unreachable blocks are flagged;
* **optimizer discipline** (:func:`check_optimized_program`) -- the
  optimizer's output shares no statement object across positions nor
  with its own input (passes own their state), and the reserved
  ``__cse*`` temporaries are never read before being written (via
  reaching definitions);
* **selection shape** (:func:`check_block_structure`) -- selected block
  codes mirror the reachable blocks one-to-one and control instances
  appear exactly in terminator pseudo-codes;
* **schedule/compaction safety** (:func:`check_instance_stream`,
  :func:`check_words`) -- an instruction-level race detector: RAW / WAR /
  WAW and storage anti-dependence edges are re-derived from
  ``RTInstance`` defs/uses alone (:func:`derive_dependence_edges`) and
  every compacted :class:`InstructionWord` is checked against them, plus
  a symbolic machine walk proving every ``spill_reload`` is preceded by
  a matching ``spill_store`` and no live register occupant is clobbered;
* **metric honesty** (:func:`check_spill_metric`) -- the reported spill
  count equals an independent recount.

:class:`PipelineVerifier` hooks these checks into
:class:`~repro.toolchain.passes.PassManager` (``PipelineConfig.verify``);
errors raise :class:`VerificationError`, warnings and notes flow into the
result's diagnostics under phase ``"verify"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.reaching import possibly_uninitialized_uses
from repro.diagnostics import ReproError

#: Reserved prefixes of optimizer-introduced temporaries (mirrors
#: ``repro.opt.cse.OPT_TEMP_PREFIXES``; duplicated literals to keep this
#: module importable without the optimizer).  Every check taking a
#: ``temp_prefix`` accepts a single prefix or a tuple (the membership
#: tests go through ``str.startswith``, which takes both).
RESERVED_TEMP_PREFIXES = ("__cse", "__licm", "__sr")

#: Kinds counted as spill traffic (mirrors ``repro.codegen.spill.SPILL_KINDS``).
SPILL_KINDS = ("spill_store", "spill_reload")


@dataclass(frozen=True)
class Finding:
    """One verifier finding.

    ``check`` names the invariant (``"cfg"``, ``"alias"``, ``"race"``,
    ``"spill"``, ``"words"``, ``"metric"``, ...), ``severity`` is
    ``"note"``/``"warning"``/``"error"`` and ``where`` localises the
    finding (block name, statement text, instance description).
    """

    check: str
    severity: str
    message: str
    where: str = ""

    def describe(self) -> str:
        if self.where:
            return "[%s] %s: %s" % (self.check, self.where, self.message)
        return "[%s] %s" % (self.check, self.message)


class VerificationError(ReproError):
    """Raised when the pipeline verifier finds an invariant violation.

    ``findings`` carries every error-severity :class:`Finding` of the
    failing check, so callers (and tests) can match on the structured
    payload instead of the message text.
    """

    phase = "verify"

    def __init__(self, findings: Sequence[Finding], after: str = ""):
        self.findings: Tuple[Finding, ...] = tuple(findings)
        self.after = after
        errors = [f for f in self.findings if f.severity == "error"]
        head = "; ".join(f.describe() for f in errors[:3])
        if len(errors) > 3:
            head += "; ..."
        stage = " after pass %r" % after if after else ""
        super().__init__(
            "static verification failed%s (%d error%s): %s"
            % (stage, len(errors), "" if len(errors) == 1 else "s", head),
            phase="verify",
        )


def _dedup(findings: Iterable[Finding]) -> List[Finding]:
    seen: Set[Finding] = set()
    unique: List[Finding] = []
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            unique.append(finding)
    return unique


# ---------------------------------------------------------------------------
# CFG well-formedness
# ---------------------------------------------------------------------------


def check_cfg(program) -> List[Finding]:
    """IR-level CFG invariants: unique block names, resolvable entry and
    branch targets, reachable blocks (unreachable ones are warnings --
    legal but almost always a frontend or optimizer bug)."""
    findings: List[Finding] = []
    if not program.blocks:
        return [Finding("cfg", "error", "program has no basic blocks")]
    names: Set[str] = set()
    for block in program.blocks:
        if block.name in names:
            findings.append(
                Finding("cfg", "error", "duplicate basic-block name", block.name)
            )
        names.add(block.name)
    entry = program.entry if program.entry else program.blocks[0].name
    if entry not in names:
        findings.append(
            Finding("cfg", "error", "entry names an unknown block", entry)
        )
    for block in program.blocks:
        terminator = block.terminator
        if terminator is None:
            continue
        for target in terminator.targets():
            if target not in names:
                findings.append(
                    Finding(
                        "cfg",
                        "error",
                        "branch target %r does not name a block" % target,
                        block.name,
                    )
                )
    if any(f.severity == "error" for f in findings):
        return _dedup(findings)
    reachable = set(program.reverse_postorder())
    for block in program.blocks:
        if block.name not in reachable:
            findings.append(
                Finding("cfg", "warning", "unreachable basic block", block.name)
            )
    if not any(
        program.block(name).terminator is None for name in reachable
    ):
        findings.append(
            Finding("cfg", "warning", "no reachable exit block (program cannot halt)")
        )
    return _dedup(findings)


# ---------------------------------------------------------------------------
# Optimizer discipline
# ---------------------------------------------------------------------------


def _statement_label(statement) -> str:
    """A short context label for one statement.  ``str(statement)``
    recurses through the whole expression tree, which overflows the
    stack on pathologically deep chains -- name the destination only."""
    destination = getattr(statement, "destination", None)
    if destination:
        return "%s := ... " % destination
    return ""


def snapshot_program_ids(program) -> Set[int]:
    """Object identities of every statement -- taken before the optimizer
    runs, to prove its output reuses none of them."""
    return {
        id(statement) for block in program.blocks for statement in block.statements
    }


def check_optimized_program(
    program,
    before_ids: Optional[Set[int]] = None,
    temp_prefix=RESERVED_TEMP_PREFIXES,
) -> List[Finding]:
    """Optimizer-output discipline.

    Statements are mutable, so every position must hold its own
    :class:`~repro.ir.program.Statement` object, and none may be one of
    the pre-optimization input's: a later rewrite of one statement would
    otherwise silently change another, or the caller's program.
    Expression trees are frozen and may be shared freely.  Reserved
    optimizer temporaries (``__cse*``, ``__licm*``, ``__sr*``) must be
    definitely assigned before every read -- in particular a ``__licm*``
    definition must dominate the loop it was hoisted out of (preheader
    discipline).
    """
    findings: List[Finding] = []
    owner: Dict[int, str] = {}
    for block in program.blocks:
        for position, statement in enumerate(block.statements):
            where = "%s[%d]" % (block.name, position)
            if id(statement) in owner:
                findings.append(
                    Finding(
                        "alias",
                        "error",
                        "statement object shared with %s" % owner[id(statement)],
                        where,
                    )
                )
            owner[id(statement)] = where
            if before_ids and id(statement) in before_ids:
                findings.append(
                    Finding(
                        "alias",
                        "error",
                        "optimizer output aliases its input program",
                        where,
                    )
                )
    # The use-before-def sweep needs full use--def chains; optimizer
    # temps land in ``scalars``, so skip it when none were introduced.
    if not any(name.startswith(temp_prefix) for name in program.scalars):
        return _dedup(findings)
    for block_name, index, variable in possibly_uninitialized_uses(program):
        if variable.startswith(temp_prefix):
            findings.append(
                Finding(
                    "cse",
                    "error",
                    "reserved temporary %r may be read before assignment"
                    % variable,
                    "%s[%d]" % (block_name, index),
                )
            )
    return _dedup(findings)


# ---------------------------------------------------------------------------
# Selection / schedule shape
# ---------------------------------------------------------------------------


def check_block_structure(program, block_codes, reachable=None) -> List[Finding]:
    """Selected block codes mirror the reachable blocks one-to-one:
    same names in the same (RPO) order, one statement code per statement,
    terminator pseudo-code exactly when the block has a terminator, and
    control instances only inside terminator pseudo-codes.

    ``reachable`` may pass a precomputed ``program.reachable_blocks()``
    list (the verifier reuses one across the select and schedule hooks,
    which see the same unmodified program)."""
    findings: List[Finding] = []
    if reachable is None:
        reachable = program.reachable_blocks()
    expected = [block.name for block in reachable]
    got = [code.name for code in block_codes]
    if got != expected:
        findings.append(
            Finding(
                "select",
                "error",
                "selected blocks %r do not match reachable blocks %r"
                % (got, expected),
            )
        )
        return findings
    for block, block_code in zip(reachable, block_codes):
        if len(block_code.codes) != len(block.statements):
            findings.append(
                Finding(
                    "select",
                    "error",
                    "%d statement codes for %d statements"
                    % (len(block_code.codes), len(block.statements)),
                    block.name,
                )
            )
        for code in block_code.codes:
            for instance in code.instances:
                if instance.is_control():
                    findings.append(
                        Finding(
                            "select",
                            "error",
                            "control instance inside a statement code: %s"
                            % instance.describe(),
                            block.name,
                        )
                    )
        has_terminator = block.terminator is not None
        has_code = block_code.terminator_code is not None
        if has_terminator != has_code:
            findings.append(
                Finding(
                    "select",
                    "error",
                    "terminator pseudo-code %s but block terminator %s"
                    % (
                        "present" if has_code else "missing",
                        "present" if has_terminator else "missing",
                    ),
                    block.name,
                )
            )
        elif has_code:
            instances = block_code.terminator_code.instances
            controls = [i for i in instances if i.is_control()]
            if len(instances) != 1 or len(controls) != 1:
                findings.append(
                    Finding(
                        "select",
                        "error",
                        "terminator pseudo-code must hold exactly one "
                        "control instance (got %d of %d)"
                        % (len(controls), len(instances)),
                        block.name,
                    )
                )
            elif tuple(controls[0].targets) != tuple(block.terminator.targets()):
                findings.append(
                    Finding(
                        "select",
                        "error",
                        "control targets %r do not match terminator targets %r"
                        % (tuple(controls[0].targets), tuple(block.terminator.targets())),
                        block.name,
                    )
                )
    return _dedup(findings)


# ---------------------------------------------------------------------------
# Instance-stream machine walk (spill safety, stale reads)
# ---------------------------------------------------------------------------


def check_instance_stream(
    instances: Sequence[object],
    registers: Set[str],
    label: str = "",
) -> List[Finding]:
    """Corruption-taint walk over one statement's instance sequence.

    Mirrors the storage-faithful RT simulator exactly: per *register*
    storage (memories hold every value side by side; a register holds
    exactly one), the walk tracks which value id the register's content
    is valid for, resetting at each call like the simulator resets per
    statement.  A read of ``(value, register)`` consults the register
    only along the routes the simulator routes through it -- a frontier
    operand node reached with ``top=False`` inside the instance's
    subject region.  A chain instance whose operand node *is* its
    subject node re-evaluates the expression from the environment, so
    its read never sees register contents at all.

    A mismatched register read (the register was written earlier in the
    statement but holds a different value id) does not fail by itself:
    the machine model only observes statement results through the
    committed environment (``defines_variable``/``defines_index``) and
    branch conditions, which evaluate from the environment.  The walk
    therefore *taints* the result of any instance consuming a
    mismatched or tainted read and reports an error exactly when a
    tainted value is committed -- the observable miscompiles of the
    spill-clobber and WAR-hoist bug classes.  Structural errors
    (``spill_reload`` without a matching ``spill_store`` in the same
    statement) are reported unconditionally.
    """
    findings: List[Finding] = []
    # Fast path: corruption can only originate at a register read whose
    # register currently holds a *different* value id.  A cheap pre-scan
    # over (id, storage) pairs finds whether any such read exists at
    # all; most statements have none, skipping the frontier walk.
    has_spills = False
    candidate = False
    quick_holds: Dict[str, str] = {}
    for instance in instances:
        kind = instance.kind
        if kind in SPILL_KINDS:
            has_spills = True
        if kind == "rt" or kind == "spill_store":
            for value_id, storage in instance.operands:
                if storage in registers and quick_holds.get(storage, value_id) != value_id:
                    candidate = True
                    break
            if candidate:
                break
        if (kind == "rt" or kind == "spill_reload") and instance.result_storage in registers:
            quick_holds[instance.result_storage] = instance.result_id
    if not candidate and not has_spills:
        return findings

    # register storage -> (held value id, taint reason or None, writer pos)
    holds: Dict[str, Tuple[str, Optional[str], int]] = {}
    # value id -> taint reason of its _values entry (statement-local)
    value_taint: Dict[str, Optional[str]] = {}
    spill_taint: Dict[str, Optional[str]] = {}
    stored: Set[str] = set()

    def lookup_taint(value_id: str) -> Optional[str]:
        # _lookup_value: vars/consts/ports come from the environment or
        # literals (clean at statement entry); everything else from the
        # statement-local value table.
        if value_id.startswith(("var:", "const:", "port:")):
            return None
        return value_taint.get(value_id)

    def read_taint(value_id: str, storage: str) -> Optional[str]:
        """Taint of a read that the simulator routes through
        ``_read_operand``: register content when the register was
        written this statement, the denoted value otherwise."""
        if storage in registers and storage in holds:
            held_id, held_taint, writer = holds[storage]
            if held_id != value_id:
                return "reads %s from %s, which holds %s (written at #%d)" % (
                    value_id,
                    storage,
                    held_id,
                    writer,
                )
            return held_taint
        return lookup_taint(value_id)

    def region_taint(node, frontier, top=False) -> Optional[str]:
        """Taint of evaluating one subject region, mirroring the
        simulator's ``_evaluate_region`` routing decisions (iterative:
        subject regions can be arbitrarily deep)."""
        stack = [(node, top)]
        while stack:
            current, is_top = stack.pop()
            if not is_top and id(current) in frontier:
                value_id, storage = frontier[id(current)]
                if not value_id.startswith("aref:"):
                    taint = read_taint(value_id, storage)
                    if taint is not None:
                        return taint
                    continue
            payload = getattr(current, "payload", None)
            if isinstance(payload, tuple) and payload[0] in ("var", "const", "aref"):
                # Evaluates from the environment / a literal: clean.
                continue
            children = getattr(current, "children", None) or []
            if not children:
                if id(current) in frontier:
                    value_id, storage = frontier[id(current)]
                    taint = read_taint(value_id, storage)
                    if taint is not None:
                        return taint
                continue
            stack.extend((child, False) for child in children)
        return None

    for position, instance in enumerate(instances):
        where = "%s#%d %s" % (label, position, instance.describe())
        if instance.is_control():
            # Branch conditions evaluate from the environment.
            continue
        if instance.kind == "spill_store":
            value_id, storage = instance.operands[0]
            spill_taint[value_id] = read_taint(value_id, storage)
            stored.add(value_id)
            continue
        if instance.kind == "spill_reload":
            value_id = instance.result_id
            if value_id in stored:
                taint = spill_taint.get(value_id)
            else:
                findings.append(
                    Finding(
                        "spill",
                        "error",
                        "reload of %s is not preceded by a matching "
                        "spill_store" % value_id,
                        where,
                    )
                )
                taint = lookup_taint(value_id)
            if instance.result_storage in registers:
                holds[instance.result_storage] = (value_id, taint, position)
            continue
        if instance.kind != "rt":
            continue
        node = getattr(instance, "node", None)
        if node is not None:
            frontier = {
                id(operand_node): operand
                for operand_node, operand in zip(
                    instance.operand_nodes or [], instance.operands
                )
            }
            taint = region_taint(node, frontier, top=True)
        else:
            # No subject region (synthetic streams): every operand read
            # conservatively consults its storage.
            taint = None
            for value_id, storage in instance.operands:
                taint = read_taint(value_id, storage)
                if taint is not None:
                    break
        value_taint[instance.result_id] = taint
        if instance.result_storage in registers:
            holds[instance.result_storage] = (instance.result_id, taint, position)
        if taint is not None and instance.defines_variable is not None:
            findings.append(
                Finding(
                    "race",
                    "error",
                    "commits a corrupted value to %r: %s"
                    % (instance.defines_variable, taint),
                    where,
                )
            )
    return _dedup(findings)


# ---------------------------------------------------------------------------
# Dependence edges and compacted-word checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceEdge:
    """An ordering constraint between two positions of one instance
    sequence.  ``kind`` is ``"raw"``/``"waw"`` (strict: the earlier
    instance must retire in an earlier word) or ``"war"`` (weak: same
    word is legal -- time-stationary words read before they write)."""

    kind: str
    earlier: int
    later: int
    reason: str = ""


def derive_dependence_edges(instances: Sequence[object]) -> List[DependenceEdge]:
    """Re-derive RAW/WAR/WAW edges of one statement's instance sequence
    from defs/uses alone -- independently of whatever the scheduler or
    compactor believed."""
    edges: List[DependenceEdge] = []
    last_writer_of_id: Dict[str, int] = {}
    last_writer_of_storage: Dict[str, int] = {}
    readers_of_storage: Dict[str, List[int]] = {}
    for position, instance in enumerate(instances):
        for value_id, _storage in instance.operands:
            writer = last_writer_of_id.get(value_id)
            if writer is not None:
                edges.append(
                    DependenceEdge("raw", writer, position, value_id)
                )
        storage = instance.result_storage
        for reader in readers_of_storage.get(storage, ()):
            edges.append(DependenceEdge("war", reader, position, storage))
        writer = last_writer_of_storage.get(storage)
        if writer is not None:
            edges.append(DependenceEdge("waw", writer, position, storage))
        writer = last_writer_of_id.get(instance.result_id)
        if writer is not None:
            edges.append(
                DependenceEdge("waw", writer, position, instance.result_id)
            )
        last_writer_of_id[instance.result_id] = position
        last_writer_of_storage[storage] = position
        for value_id, operand_storage in instance.operands:
            readers_of_storage.setdefault(operand_storage, []).append(position)
    return edges


def _word_positions(words) -> Tuple[Dict[int, int], List[Finding]]:
    findings: List[Finding] = []
    positions: Dict[int, int] = {}
    for index, word in enumerate(words):
        for instance in word.instances:
            if id(instance) in positions:
                findings.append(
                    Finding(
                        "words",
                        "error",
                        "instance packed into two words (%d and %d): %s"
                        % (positions[id(instance)], index, instance.describe()),
                    )
                )
            positions[id(instance)] = index
    return positions, findings


def _check_one_word(index: int, word) -> List[Finding]:
    findings: List[Finding] = []
    instances = list(word.instances)
    if len(instances) <= 1:
        return findings
    controls = [i for i in instances if i.is_control()]
    if controls:
        findings.append(
            Finding(
                "words",
                "error",
                "control instance shares word %d with %d other instance(s)"
                % (index, len(instances) - 1),
            )
        )
    writers: Dict[str, int] = {}
    for instance in instances:
        writers[instance.result_storage] = writers.get(instance.result_storage, 0) + 1
    for storage, count in writers.items():
        if count > 1:
            findings.append(
                Finding(
                    "words",
                    "error",
                    "%d instances write %s in the same word %d"
                    % (count, storage, index),
                )
            )
    produced = {instance.result_id for instance in instances}
    for instance in instances:
        for value_id, _storage in instance.operands:
            if value_id in produced and value_id != instance.result_id:
                findings.append(
                    Finding(
                        "words",
                        "error",
                        "word %d both produces and consumes %s"
                        % (index, value_id),
                    )
                )
    return findings


def _check_statement_edges(
    pairs: Sequence[Tuple[object, int]],
    block_name: str,
) -> List[Finding]:
    """One statement's RAW/WAR/WAW constraints against the word
    positions (``pairs`` is the statement's instances with their word
    indices) -- the incremental, allocation-free equivalent of mapping
    every :func:`derive_dependence_edges` edge through the positions
    (which is quadratic in readers per storage)."""
    findings: List[Finding] = []
    if len(pairs) < 2:
        return findings

    def violation(kind: str, reason: str, earlier, later, later_word) -> Finding:
        return Finding(
            "words",
            "error",
            "%s dependence on %s violated: %s (word %d) must precede "
            "%s (word %d)"
            % (
                kind,
                reason,
                earlier[1].describe(),
                earlier[0],
                later.describe(),
                later_word,
            ),
            block_name,
        )

    # Map values carry (word, instance) so each word is looked up once.
    id_writer: Dict[str, Tuple[int, object]] = {}
    storage_writer: Dict[str, Tuple[int, object]] = {}
    # Per storage, the reader instance holding the highest word seen.
    top_reader: Dict[str, Tuple[int, object]] = {}
    for instance, word in pairs:
        for value_id, _storage in instance.operands:
            writer = id_writer.get(value_id)
            if writer is not None and writer[0] >= word:
                findings.append(
                    violation("RAW", value_id, writer, instance, word)
                )
        storage = instance.result_storage
        reader = top_reader.get(storage)
        if reader is not None and reader[0] > word:
            findings.append(violation("WAR", storage, reader, instance, word))
        writer = storage_writer.get(storage)
        if writer is not None and writer[0] >= word:
            findings.append(violation("WAW", storage, writer, instance, word))
        writer = id_writer.get(instance.result_id)
        if writer is not None and writer[0] >= word:
            findings.append(
                violation("WAW", instance.result_id, writer, instance, word)
            )
        id_writer[instance.result_id] = (word, instance)
        storage_writer[storage] = (word, instance)
        for _value_id, operand_storage in instance.operands:
            current = top_reader.get(operand_storage)
            if current is None or current[0] < word:
                top_reader[operand_storage] = (word, instance)
    return findings


def check_words(block_codes, words) -> List[Finding]:
    """The compacted words respect every re-derived dependence edge.

    Per statement: RAW and WAW edges demand strictly increasing word
    positions; WAR edges allow equality (words read before they write).
    Per block (flat order): storage WAR is weak-ordered, cross-statement
    RAW on committed variables (``var:`` ids read from the storage that
    defined them) is strict, and control instances are strict barriers.
    Per word: one writer per storage, no intra-word RAW, control alone.
    Labels: the first word of every block carries the block's label and
    every branch target resolves to a labelled word.
    """
    positions, findings = _word_positions(words)
    for index, word in enumerate(words):
        if len(word.instances) > 1:
            findings.extend(_check_one_word(index, word))

    labels = {word.label for word in words if word.label}
    multi_block = len(block_codes) > 1

    for block_code in block_codes:
        flat: List[Tuple[object, int]] = []
        for code in block_code.all_codes():
            pairs: List[Tuple[object, int]] = []
            for instance in code.instances:
                word_index = positions.get(id(instance))
                if word_index is None:
                    findings.append(
                        Finding(
                            "words",
                            "error",
                            "instance missing from the compacted words: %s"
                            % instance.describe(),
                            block_code.name,
                        )
                    )
                    return _dedup(findings)
                pairs.append((instance, word_index))
            flat.extend(pairs)
            findings.extend(_check_statement_edges(pairs, block_code.name))
        # Flat-order, cross-statement constraints inside the block.
        max_reader_word: Dict[str, int] = {}
        variable_writer: Dict[Tuple[str, str], int] = {}
        barrier: Optional[int] = None
        for instance, word_index in flat:
            if barrier is not None and word_index <= barrier:
                findings.append(
                    Finding(
                        "words",
                        "error",
                        "instance scheduled at or before a control barrier: %s"
                        % instance.describe(),
                        block_code.name,
                    )
                )
            for value_id, storage in instance.operands:
                writer = variable_writer.get((value_id, storage))
                if writer is not None and writer >= word_index:
                    findings.append(
                        Finding(
                            "words",
                            "error",
                            "cross-statement RAW violated: %s read from %s "
                            "in word %d, defined in word %d"
                            % (value_id, storage, word_index, writer),
                            block_code.name,
                        )
                    )
                if max_reader_word.get(storage, -1) < word_index:
                    max_reader_word[storage] = word_index
            reader_word = max_reader_word.get(instance.result_storage, -1)
            if reader_word > word_index:
                findings.append(
                    Finding(
                        "words",
                        "error",
                        "storage anti-dependence violated: %s is "
                        "overwritten in word %d before its read in word %d"
                        % (instance.result_storage, word_index, reader_word),
                        block_code.name,
                    )
                )
            if instance.defines_variable and instance.defines_index is None:
                variable_writer[
                    ("var:%s" % instance.defines_variable, instance.result_storage)
                ] = word_index
            if instance.is_control():
                barrier = word_index
                if multi_block:
                    for target in instance.targets:
                        if target not in labels:
                            findings.append(
                                Finding(
                                    "words",
                                    "error",
                                    "branch target %r has no labelled word"
                                    % target,
                                    block_code.name,
                                )
                            )
        if multi_block and block_code.name not in labels:
            findings.append(
                Finding(
                    "words",
                    "error",
                    "block has no labelled word",
                    block_code.name,
                )
            )
    return _dedup(findings)


# ---------------------------------------------------------------------------
# Metric honesty
# ---------------------------------------------------------------------------


def check_spill_metric(instances: Sequence[object], reported: int) -> List[Finding]:
    """The reported spill count equals an independent recount of
    ``spill_store``/``spill_reload`` instances."""
    actual = sum(1 for instance in instances if instance.kind in SPILL_KINDS)
    if reported != actual:
        return [
            Finding(
                "metric",
                "error",
                "reported spill count %d, recount finds %d "
                "(only spill_store/spill_reload are spill traffic)"
                % (reported, actual),
            )
        ]
    return []


# ---------------------------------------------------------------------------
# The pipeline hook
# ---------------------------------------------------------------------------


class PipelineVerifier:
    """Runs the static checks after every pipeline pass.

    Instantiated per compilation by :class:`~repro.toolchain.passes.PassManager`
    when ``PipelineConfig.verify`` is set.  ``registers`` overrides the
    tracked register set (tests); by default it is derived from the
    target netlist's ``REGISTER`` modules.  Error findings raise
    :class:`VerificationError`; warnings and notes are appended to the
    compilation state's diagnostics.
    """

    def __init__(
        self,
        registers: Optional[Set[str]] = None,
        temp_prefix=RESERVED_TEMP_PREFIXES,
    ):
        self._registers = registers
        self._temp_prefix = temp_prefix
        self.checks_run = 0
        self.findings: List[Finding] = []
        self._input_checked = False
        self._pre_opt_ids: Optional[Set[int]] = None
        self._cfg_shape: Optional[tuple] = None
        self._reachable: Optional[list] = None
        self._reachable_program = None

    # -- helpers -----------------------------------------------------------

    def _register_set(self, context) -> Set[str]:
        if self._registers is not None:
            return set(self._registers)
        netlist = getattr(context, "netlist", None)
        if netlist is None:
            return set()
        from repro.hdl.ast import ModuleKind

        return {
            name
            for name, module in netlist.modules.items()
            if module.kind == ModuleKind.REGISTER
        }

    def _emit(self, state, findings: Sequence[Finding], after: str) -> None:
        findings = _dedup(findings)
        self.findings.extend(findings)
        errors = [f for f in findings if f.severity == "error"]
        for finding in findings:
            if finding.severity != "error":
                state.add_diagnostic(
                    finding.severity, finding.describe(), phase="verify"
                )
        if errors:
            raise VerificationError(errors, after=after)

    # -- PassManager hooks -------------------------------------------------

    @staticmethod
    def _shape_of(program) -> tuple:
        """The CFG shape (entry + per-block branch targets) -- when the
        optimizer leaves it untouched, re-checking the CFG is redundant."""
        return (
            program.entry,
            tuple(
                (
                    block.name,
                    block.terminator.targets()
                    if block.terminator is not None
                    else (),
                )
                for block in program.blocks
            ),
        )

    def before_pass(self, name: str, state, context) -> None:
        if not self._input_checked:
            self._input_checked = True
            self.checks_run += 1
            self._cfg_shape = self._shape_of(state.program)
            self._emit(state, check_cfg(state.program), after="input")
        if name == "opt":
            self._pre_opt_ids = snapshot_program_ids(state.program)

    def after_pass(self, name: str, state, context) -> None:
        findings: List[Finding] = []
        if name == "opt":
            shape = self._shape_of(state.program)
            if shape != self._cfg_shape:
                self._cfg_shape = shape
                findings.extend(check_cfg(state.program))
            findings.extend(
                check_optimized_program(
                    state.program,
                    before_ids=self._pre_opt_ids,
                    temp_prefix=self._temp_prefix,
                )
            )
        elif name in ("select", "schedule"):
            # Structure must hold as selected and survive scheduling
            # untouched.  Register-safety of the stream is NOT checked
            # here: the scheduler may clobber freely -- the spill pass
            # downstream is what repairs clobbers.
            if self._reachable_program is not state.program:
                self._reachable_program = state.program
                self._reachable = state.program.reachable_blocks()
            findings.extend(
                check_block_structure(
                    state.program, state.block_codes, reachable=self._reachable
                )
            )
        elif name == "compact":
            findings.extend(check_words(state.block_codes, state.words))
            # ``count_spills`` is what the metrics report; the check's own
            # recount is independent of it on purpose.
            from repro.codegen.spill import count_spills

            instances = state.all_instances()
            findings.extend(
                check_spill_metric(instances, count_spills(instances))
            )
        elif name == "spill":
            registers = self._register_set(context)
            for code in state.statement_codes:
                findings.extend(
                    check_instance_stream(
                        code.instances,
                        registers,
                        label=_statement_label(code.statement),
                    )
                )
        else:
            return
        self.checks_run += 1
        self._emit(state, findings, after=name)
