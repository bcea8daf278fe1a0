"""A deterministic control-flow-graph view of a program.

:class:`ControlFlowGraph` freezes the block structure of a
:class:`~repro.ir.program.Program` (or of a synthetic edge list, for
tests) into the shape every dataflow analysis wants: reachable blocks in
reverse postorder, successor and predecessor maps restricted to reachable
blocks, and the RPO numbering the dominator algorithm intersects with.

The reverse postorder is the one walk of
:func:`repro.ir.program.reverse_postorder`, the order
:meth:`~repro.ir.program.Program.reverse_postorder` produces: for the
structured CFGs the frontend emits it coincides with textual layout
order (entry, then, else, join / entry, header, body, exit), so
iterating it is a drop-in replacement for iterating ``program.blocks``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.ir.program import reverse_postorder


class ControlFlowGraph:
    """Reachable blocks of one program, in reverse postorder.

    ``names`` lists the reachable block names in RPO (entry first);
    ``successors``/``predecessors`` map each reachable block to its
    reachable neighbours (deterministic tuples); ``rpo_index`` is the RPO
    numbering used by the Cooper--Harvey--Kennedy intersect.
    """

    def __init__(self, entry: str, edges: Mapping[str, Sequence[str]]):
        self.entry = entry
        self.names: List[str] = reverse_postorder(entry, edges)
        self.rpo_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.names)
        }
        reachable = self.rpo_index
        self.successors: Dict[str, Tuple[str, ...]] = {}
        predecessors: Dict[str, List[str]] = {name: [] for name in self.names}
        for name in self.names:
            targets = tuple([target for target in edges[name] if target in reachable])
            self.successors[name] = targets
            for target in targets:
                predecessors[target].append(name)
        self.predecessors: Dict[str, Tuple[str, ...]] = {
            name: tuple(preds) for name, preds in predecessors.items()
        }

    @classmethod
    def from_program(cls, program) -> "ControlFlowGraph":
        """The CFG of a :class:`~repro.ir.program.Program`.

        Duplicate block names keep the first occurrence (matching
        ``Program.block``); dangling branch targets are dropped from the
        edge set (flagged separately by :func:`repro.analysis.verify.check_cfg`).
        """
        edges = program.edges()
        if not edges:
            return cls("", {})
        return cls(program.entry_block_name(), edges)

    @classmethod
    def from_edges(
        cls, entry: str, edges: Mapping[str, Sequence[str]]
    ) -> "ControlFlowGraph":
        """A synthetic CFG from an explicit edge map (tests, oracles)."""
        return cls(entry, edges)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.rpo_index

    def __repr__(self) -> str:
        return "<ControlFlowGraph entry=%r blocks=%d>" % (self.entry, len(self.names))
