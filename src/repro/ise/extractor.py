"""Top-level instruction-set extraction driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bdd.manager import BDDManager
from repro.ise.control import ControlAnalyzer
from repro.ise.routes import RouteEnumerator
from repro.ise.templates import RTTemplateBase
from repro.netlist.netlist import Netlist


@dataclass
class ExtractionResult:
    """Everything instruction-set extraction produces for one processor."""

    netlist: Netlist
    template_base: RTTemplateBase
    control: ControlAnalyzer
    discarded_invalid: int = 0
    duplicates_merged: int = 0
    truncated: bool = False
    per_destination: Dict[str, int] = field(default_factory=dict)

    def stats(self) -> Dict[str, int]:
        stats = dict(self.template_base.stats())
        stats["discarded_invalid"] = self.discarded_invalid
        stats["duplicates_merged"] = self.duplicates_merged
        return stats


class InstructionSetExtractor:
    """Runs route enumeration plus control-signal analysis on a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        manager: Optional[BDDManager] = None,
        max_depth: int = 8,
        max_alternatives: int = 4000,
    ):
        self.netlist = netlist
        self.control = ControlAnalyzer(netlist, manager)
        self.enumerator = RouteEnumerator(
            netlist, self.control, max_depth=max_depth, max_alternatives=max_alternatives
        )

    def extract(self) -> ExtractionResult:
        """Extract the complete valid RT template base.

        Templates whose execution condition is unsatisfiable never leave the
        route enumerator; identical (destination, pattern, condition)
        triples produced by different routes are merged here.
        """
        raw_templates = self.enumerator.enumerate_all()
        template_base = RTTemplateBase(processor=self.netlist.name)
        seen = {}
        duplicates = 0
        per_destination: Dict[str, int] = {}
        for template in raw_templates:
            key = (template.destination, template.pattern, template.condition.node)
            if key in seen:
                duplicates += 1
                continue
            seen[key] = template
            template_base.add(template)
            per_destination[template.destination] = (
                per_destination.get(template.destination, 0) + 1
            )
        return ExtractionResult(
            netlist=self.netlist,
            template_base=template_base,
            control=self.control,
            duplicates_merged=duplicates,
            truncated=self.enumerator.truncated,
            per_destination=per_destination,
        )


def extract_instruction_set(
    netlist: Netlist,
    manager: Optional[BDDManager] = None,
    max_depth: int = 8,
    max_alternatives: int = 4000,
) -> ExtractionResult:
    """Convenience wrapper: run ISE on a netlist and return the result."""
    extractor = InstructionSetExtractor(
        netlist, manager=manager, max_depth=max_depth, max_alternatives=max_alternatives
    )
    return extractor.extract()
