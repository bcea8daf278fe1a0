"""Code compaction: packing RTs into parallel instruction words.

Every extracted RT carries an execution condition over instruction-word and
mode-register bits (its binary partial instruction).  Two RTs can execute
in the same instruction word when their conditions are simultaneously
satisfiable (no encoding conflict, no shared-resource contention -- these
conflicts are exactly what the BDD conjunction detects) and when no data
dependence forces them apart.  The paper performs compaction as a separate
phase after code selection [17]; this module implements a greedy
list-scheduling variant of it.  The open word's reads, result ids and
result storages are kept as running sets, so testing a candidate costs
the same however many RTs the word already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd.manager import BDD
from repro.codegen.selection import BlockCode, RTInstance
from repro.obs.trace import current_tracer


@dataclass
class InstructionWord:
    """One machine instruction word holding one or more parallel RTs.

    ``label`` carries a basic-block label when this word is a branch
    target (the first word of a block in a CFG, see :func:`compact_blocks`).
    """

    instances: List[RTInstance] = field(default_factory=list)
    condition: Optional[BDD] = None
    label: Optional[str] = None

    def describe(self) -> str:
        if not self.instances:
            return "nop"
        return " || ".join(instance.describe() for instance in self.instances)

    def partial_instruction(self) -> Dict[str, bool]:
        """A concrete setting of instruction/mode bits activating the word."""
        if self.condition is None:
            return {}
        assignment = self.condition.one_sat()
        return assignment if assignment is not None else {}


def _condition_of(instance: RTInstance) -> Optional[BDD]:
    if instance.template is not None:
        return instance.template.condition
    return None


def compact(instances: List[RTInstance], enabled: bool = True) -> List[InstructionWord]:
    """Pack an RT sequence into instruction words.

    With ``enabled=False`` every RT gets its own word (the uncompacted
    baseline used in the ablation benchmarks).  Control transfers
    (``jump``/``cbranch``/``repeat``) are packing barriers: a branch gets
    its own word and closes it, so nothing is packed across it, which
    keeps branches pinned at block ends.

    A candidate joins the open word when it reads no value the word writes,
    writes no value or storage the word reads or writes (all RTs of a word
    read before any writes), and the conditions stay jointly satisfiable.
    """
    words: List[InstructionWord] = []
    if not enabled:
        for instance in instances:
            words.append(
                InstructionWord(instances=[instance], condition=_condition_of(instance))
            )
        return words
    word: Optional[InstructionWord] = None  # the open word, and its summaries:
    word_reads, word_results, word_storages = set(), set(), set()
    for instance in instances:
        condition = _condition_of(instance)
        reads = instance.reads()
        if (
            word is not None
            and not instance.is_control()
            and instance.result_id not in word_reads
            and instance.result_storage not in word_storages
            and word_results.isdisjoint(reads)
        ):
            combined = _combine_conditions(word.condition, condition)
            if combined is None or combined.satisfiable():
                word.instances.append(instance)
                word.condition = combined
                word_reads.update(reads)
                word_results.add(instance.result_id)
                word_storages.add(instance.result_storage)
                continue
        word = InstructionWord(instances=[instance], condition=condition)
        words.append(word)
        if instance.is_control():
            word = None
        else:
            word_reads = set(reads)
            word_results = {instance.result_id}
            word_storages = {instance.result_storage}
    return words


def compact_blocks(
    block_codes: List[BlockCode], enabled: bool = True
) -> List[InstructionWord]:
    """Pack a program's code block by block, one ``compact:block`` span
    per block.

    Packing never crosses a block boundary.  In a real CFG (more than one
    block, or a block ending in a branch) the first word of every block
    carries the block's label, so branch targets stay addressable in the
    listing and the binary encoding, and an empty block still gets one
    ``nop`` word to anchor its label.  A single block without a branch is
    packed without labels (an empty program is 0 words).
    """
    labelled = len(block_codes) > 1 or (
        len(block_codes) == 1 and block_codes[0].terminator_code is not None
    )
    tracer = current_tracer()
    words: List[InstructionWord] = []
    for block_code in block_codes:
        with tracer.span("compact:block", block=block_code.name) as span:
            instances: List[RTInstance] = []
            for code in block_code.all_codes():
                instances.extend(code.instances)
            block_words = compact(instances, enabled=enabled)
            if labelled:
                if not block_words:
                    block_words = [InstructionWord()]
                block_words[0].label = block_code.name
            if tracer.enabled:
                span.set(words=len(block_words))
        words.extend(block_words)
    return words


def _combine_conditions(a: Optional[BDD], b: Optional[BDD]) -> Optional[BDD]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def code_size(words: List[InstructionWord]) -> int:
    """Number of instruction words (the code-size metric of figure 2)."""
    return len(words)
