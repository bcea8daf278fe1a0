"""Assembly-style output of compacted code."""

from __future__ import annotations

import weakref
from typing import Dict, List

from repro.codegen.compaction import InstructionWord

#: ``; bits:`` text per BDD manager and condition node (``one_sat`` is a
#: pure function of the node); never part of a pickled retarget entry.
_BITS_TEXT: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _format_bits(assignment: Dict[str, bool]) -> str:
    if not assignment:
        return "-"
    parts = []
    for name in sorted(assignment):
        parts.append("%s=%d" % (name, 1 if assignment[name] else 0))
    return " ".join(parts)


def _bits_text(word: InstructionWord) -> str:
    """``_format_bits(word.partial_instruction())``, memoized."""
    if word.condition is None:
        return "-"
    manager, node = word.condition.manager, word.condition.node
    texts = _BITS_TEXT.get(manager) or _BITS_TEXT.setdefault(manager, {})
    if node not in texts:
        texts[node] = _format_bits(word.partial_instruction())
    return texts[node]


def format_listing(words: List[InstructionWord], title: str = "") -> str:
    """A human-readable listing: one line per instruction word with the RTs
    executed in parallel and one concrete partial-instruction encoding.
    Basic-block labels (branch targets of multi-block programs) appear on
    their own line before the word they address."""
    lines: List[str] = []
    if title:
        lines.append("; %s" % title)
        lines.append("; %d instruction words" % len(words))
    for index, word in enumerate(words):
        if word.label:
            lines.append("%s:" % word.label)
        lines.append("%4d:  %s" % (index, word.describe()))
        lines.append("       ; bits: %s" % _bits_text(word))
    return "\n".join(lines) + "\n"
