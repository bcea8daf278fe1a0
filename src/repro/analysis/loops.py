"""Back edges, natural loops and the loop nesting forest.

The global optimizer (:mod:`repro.opt`) is built on two structural
facts this module computes from a :class:`~repro.analysis.cfg.ControlFlowGraph`:

* **back edges** -- edges ``latch -> header`` where the header dominates
  the latch (the only kind the reducible CFGs our frontend emits
  contain); :func:`naive_back_edges` recomputes them from brute-force
  dominator sets and serves as the property-test oracle;
* **natural loops** -- for every header, the union of the classic
  backward-reachability bodies of its back edges, assembled into a
  :class:`LoopNestingForest` whose parent links follow body inclusion.

A :class:`BlockStructure` holds the CFG, immediate dominators and loop
nesting forest of one program's block structure, each built once, so the
optimizer's stages can share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import dominates, immediate_dominators
from repro.ir.program import Program


def back_edges(
    cfg: ControlFlowGraph,
    idom: Optional[Dict[str, Optional[str]]] = None,
) -> List[Tuple[str, str]]:
    """All back edges ``(latch, header)``: CFG edges whose target
    dominates their source.  Deterministic (RPO source order)."""
    if idom is None:
        idom = immediate_dominators(cfg)
    edges: List[Tuple[str, str]] = []
    for source in cfg.names:
        for target in cfg.successors[source]:
            if dominates(idom, target, source):
                edges.append((source, target))
    return edges


def naive_back_edges(cfg: ControlFlowGraph) -> List[Tuple[str, str]]:
    """Oracle twin of :func:`back_edges`: brute-force iterate-to-fixpoint
    dominator *sets* (no CHK, no idom chains), then enumerate the edges
    whose target is in the source's dominator set."""
    if not cfg.names:
        return []
    everything = set(cfg.names)
    dom: Dict[str, Set[str]] = {
        name: ({name} if name == cfg.entry else set(everything))
        for name in cfg.names
    }
    changed = True
    while changed:
        changed = False
        for name in cfg.names:
            if name == cfg.entry:
                continue
            preds = cfg.predecessors[name]
            incoming = set(everything)
            for pred in preds:
                incoming &= dom[pred]
            updated = {name} | incoming if preds else {name}
            if updated != dom[name]:
                dom[name] = updated
                changed = True
    return [
        (source, target)
        for source in cfg.names
        for target in cfg.successors[source]
        if target in dom[source]
    ]


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop: a header, its back edges, and the body blocks
    (backward-reachable from the latches without passing the header).

    ``blocks`` includes the header and is ordered by RPO; ``depth`` is
    1 for outermost loops; ``parent`` is the header of the innermost
    enclosing loop (``None`` at the roots)."""

    header: str
    back_edges: Tuple[Tuple[str, str], ...]
    blocks: Tuple[str, ...]
    depth: int = 1
    parent: Optional[str] = None

    @property
    def latches(self) -> Tuple[str, ...]:
        return tuple(source for source, _ in self.back_edges)

    def __contains__(self, name: str) -> bool:
        return name in self.blocks


@dataclass
class LoopNestingForest:
    """All natural loops of one CFG, keyed by header, with nesting links.

    ``roots`` lists the outermost loop headers and ``children`` the
    directly nested loop headers, both in RPO order of the header."""

    loops: Dict[str, NaturalLoop] = field(default_factory=dict)
    roots: List[str] = field(default_factory=list)
    children: Dict[str, List[str]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops.values())


#: ``(back edges, body blocks in RPO)`` of one natural loop.
_LoopBody = Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]


def _loop_bodies(
    cfg: ControlFlowGraph, idom: Optional[Dict[str, Optional[str]]]
) -> Dict[str, _LoopBody]:
    """The body of every natural loop, keyed by header in RPO order."""
    if idom is None:
        idom = immediate_dominators(cfg)
    grouped: Dict[str, List[Tuple[str, str]]] = {}
    for source, target in back_edges(cfg, idom):
        grouped.setdefault(target, []).append((source, target))
    rpo = cfg.rpo_index.__getitem__
    bodies: Dict[str, _LoopBody] = {}
    for header in sorted(grouped, key=rpo):
        body: Set[str] = {header}
        stack = [source for source, _ in grouped[header]]
        while stack:
            block = stack.pop()
            if block in body:
                continue
            body.add(block)
            stack.extend(cfg.predecessors[block])
        bodies[header] = (tuple(grouped[header]), tuple(sorted(body, key=rpo)))
    return bodies


def loop_nesting_forest(
    cfg: ControlFlowGraph,
    idom: Optional[Dict[str, Optional[str]]] = None,
) -> LoopNestingForest:
    """The loop nesting forest: every natural loop with its ``parent``
    link (innermost strictly-containing loop) and ``depth`` resolved."""
    bodies = _loop_bodies(cfg, idom)
    parents: Dict[str, Optional[str]] = {}
    for header in bodies:
        parent: Optional[str] = None
        for other_header, (_edges, other_blocks) in bodies.items():
            if other_header == header:
                continue
            if header in other_blocks:
                if parent is None or len(other_blocks) < len(bodies[parent][1]):
                    parent = other_header
        parents[header] = parent

    def depth_of(header: str) -> int:
        depth = 1
        current = parents[header]
        while current is not None:
            depth += 1
            current = parents[current]
        return depth

    forest = LoopNestingForest()
    for header, (edges, blocks) in bodies.items():  # RPO order of the header
        forest.loops[header] = NaturalLoop(
            header, edges, blocks, depth=depth_of(header), parent=parents[header]
        )
        forest.children[header] = []
    for header, parent in parents.items():
        if parent is None:
            forest.roots.append(header)
        else:
            forest.children[parent].append(header)
    return forest


class BlockStructure:
    """The CFG of a program's block structure, with its immediate
    dominators and loop nesting forest, each built once, on first use.

    These analyses read only the program's entry and its blocks' names
    and branch targets, so they describe every program that has the same
    ones; an optimizer run keeps the one for the last block structure a
    stage asked about (:meth:`repro.opt.pipeline.OptRun.structure`)."""

    def __init__(self, program: Program) -> None:
        self._program = program
        self._cfg: Optional[ControlFlowGraph] = None
        self._idom: Optional[Dict[str, Optional[str]]] = None
        self._forest: Optional[LoopNestingForest] = None

    @property
    def cfg(self) -> ControlFlowGraph:
        if self._cfg is None:
            self._cfg = ControlFlowGraph.from_program(self._program)
        return self._cfg

    @property
    def idom(self) -> Dict[str, Optional[str]]:
        if self._idom is None:
            self._idom = immediate_dominators(self.cfg)
        return self._idom

    @property
    def forest(self) -> LoopNestingForest:
        if self._forest is None:
            self._forest = loop_nesting_forest(self.cfg, self.idom)
        return self._forest


def render_forest(forest: LoopNestingForest) -> List[str]:
    """Indented text rendering of the loop nesting forest (CLI surface)."""
    lines: List[str] = []

    def walk(header: str, indent: int) -> None:
        loop = forest.loops[header]
        lines.append(
            "%sloop %s: blocks [%s], %d back edge(s)"
            % ("  " * indent, header, ", ".join(loop.blocks), len(loop.back_edges))
        )
        for child in forest.children.get(header, []):
            walk(child, indent + 1)

    for root in forest.roots:
        walk(root, 0)
    return lines
