"""Natural loops, the loop nesting forest, and preheader insertion.

The global optimizer (:mod:`repro.opt`) is built on three structural
facts this module computes from a :class:`~repro.analysis.cfg.ControlFlowGraph`:

* **back edges** -- edges ``latch -> header`` where the header dominates
  the latch (the only kind the reducible CFGs our frontend emits
  contain); :func:`naive_back_edges` recomputes them from brute-force
  dominator sets and serves as the property-test oracle;
* **natural loops** -- for every header, the union of the classic
  backward-reachability bodies of its back edges, assembled into a
  :class:`LoopNestingForest` whose parent links follow body inclusion;
* **preheaders** -- :func:`insert_preheaders` reshapes a
  :class:`~repro.ir.program.Program` so every loop header has a unique
  out-of-loop predecessor, the landing pad loop-invariant code motion
  hoists into.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import dominates, immediate_dominators
from repro.ir.program import BasicBlock, CBranch, Jump, Program

#: Suffix appended to a header name to derive its preheader's name.
PREHEADER_SUFFIX = ".pre"


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
    enclosing loop (``None`` at the roots); ``preheader`` is filled in
    by :func:`insert_preheaders`."""

    header: str
    back_edges: Tuple[Tuple[str, str], ...]
    blocks: Tuple[str, ...]
    depth: int = 1
    parent: Optional[str] = None
    preheader: Optional[str] = None

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

    def innermost(self, name: str) -> Optional[NaturalLoop]:
        """The innermost loop containing block ``name`` (``None`` when the
        block is not inside any loop)."""
        best: Optional[NaturalLoop] = None
        for loop in self.loops.values():
            if name in loop.blocks:
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def depth_of(self, name: str) -> int:
        """Loop nesting depth of block ``name`` (0 outside all loops)."""
        loop = self.innermost(name)
        return loop.depth if loop is not None else 0

    def inside_out(self) -> List[NaturalLoop]:
        """Loops ordered innermost-first (children before parents), the
        order loop-invariant code motion processes them in."""
        ordered = sorted(
            self.loops.values(), key=lambda loop: (-loop.depth, loop.header)
        )
        return ordered


def natural_loops(
    cfg: ControlFlowGraph,
    idom: Optional[Dict[str, Optional[str]]] = None,
) -> Dict[str, NaturalLoop]:
    """The natural loops of ``cfg``, keyed by header.

    Back edges sharing a header are merged into one loop (their bodies
    are unioned), the classic convention.  Nesting metadata (``depth``,
    ``parent``) is *not* filled in here -- use
    :func:`loop_nesting_forest` for the fully-linked structure."""
    if idom is None:
        idom = immediate_dominators(cfg)
    grouped: Dict[str, List[Tuple[str, str]]] = {}
    for source, target in back_edges(cfg, idom):
        grouped.setdefault(target, []).append((source, target))
    rpo = cfg.rpo_index
    loops: Dict[str, NaturalLoop] = {}
    for header in sorted(grouped, key=lambda name: rpo[name]):
        body: Set[str] = {header}
        stack = [source for source, _ in grouped[header]]
        while stack:
            block = stack.pop()
            if block in body:
                continue
            body.add(block)
            stack.extend(cfg.predecessors[block])
        loops[header] = NaturalLoop(
            header=header,
            back_edges=tuple(grouped[header]),
            blocks=tuple(sorted(body, key=lambda name: rpo[name])),
        )
    return loops


def loop_nesting_forest(
    cfg: ControlFlowGraph,
    idom: Optional[Dict[str, Optional[str]]] = None,
) -> LoopNestingForest:
    """The loop nesting forest: every natural loop with its ``parent``
    link (innermost strictly-containing loop) and ``depth`` resolved."""
    loops = natural_loops(cfg, idom)
    rpo = cfg.rpo_index
    parents: Dict[str, Optional[str]] = {}
    for header, loop in loops.items():
        parent: Optional[str] = None
        for other_header, other in loops.items():
            if other_header == header:
                continue
            if header in other.blocks:
                if parent is None or len(other.blocks) < len(loops[parent].blocks):
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
    for header in sorted(loops, key=lambda name: rpo[name]):
        forest.loops[header] = replace(
            loops[header], depth=depth_of(header), parent=parents[header]
        )
    forest.children = {header: [] for header in forest.loops}
    for header in sorted(forest.loops, key=lambda name: rpo[name]):
        parent = parents[header]
        if parent is None:
            forest.roots.append(header)
        else:
            forest.children[parent].append(header)
    return forest


def render_forest(forest: LoopNestingForest) -> List[str]:
    """Indented text rendering of the loop nesting forest (CLI surface)."""
    lines: List[str] = []

    def walk(header: str, indent: int) -> None:
        loop = forest.loops[header]
        lines.append(
            "%sloop %s: blocks [%s], %d back edge(s)%s"
            % (
                "  " * indent,
                header,
                ", ".join(loop.blocks),
                len(loop.back_edges),
                (", preheader %s" % loop.preheader) if loop.preheader else "",
            )
        )
        for child in forest.children.get(header, []):
            walk(child, indent + 1)

    for root in forest.roots:
        walk(root, 0)
    return lines


def _unique_block_name(base: str, taken: Set[str]) -> str:
    candidate = base
    serial = 0
    while candidate in taken:
        serial += 1
        candidate = "%s%d" % (base, serial)
    taken.add(candidate)
    return candidate


def _retarget(terminator, old: str, new: str):
    """A copy of ``terminator`` with branch target ``old`` renamed ``new``."""
    if isinstance(terminator, Jump):
        if terminator.target == old:
            return Jump(new)
        return terminator
    if isinstance(terminator, CBranch):
        true_target = new if terminator.true_target == old else terminator.true_target
        false_target = (
            new if terminator.false_target == old else terminator.false_target
        )
        if (true_target, false_target) != (
            terminator.true_target,
            terminator.false_target,
        ):
            return CBranch(terminator.condition, true_target, false_target)
        return terminator
    raise TypeError(
        "cannot retarget terminator of type %r" % type(terminator).__name__
    )


def insert_preheaders(
    program: Program,
    forest: Optional[LoopNestingForest] = None,
) -> Dict[str, str]:
    """Give every natural-loop header a dedicated preheader block.

    Reshapes ``program`` **in place**: for each loop header, an empty
    block named ``<header>.pre`` (uniquified if taken) is inserted
    immediately before the header in layout order, every out-of-loop
    edge into the header is redirected to it, and it jumps to the
    header.  Headers that already have exactly one out-of-loop
    predecessor ending in an unconditional jump are left alone -- that
    predecessor already is a preheader.  Returns ``{header: preheader}``
    for every loop (including the pre-existing ones), and updates
    ``forest`` loops' ``preheader`` fields when a forest is passed.
    """
    cfg = ControlFlowGraph.from_program(program)
    if forest is None:
        forest = loop_nesting_forest(cfg)
    preheaders: Dict[str, str] = {}
    taken = {block.name for block in program.blocks}
    for header in list(forest.loops):
        loop = forest.loops[header]
        body = set(loop.blocks)
        outside = [
            pred for pred in cfg.predecessors.get(header, ()) if pred not in body
        ]
        entry_is_header = program.entry_block_name() == header
        reuse: Optional[str] = None
        if len(outside) == 1 and not entry_is_header:
            candidate = program.block(outside[0])
            in_no_loop_with_header = all(
                outside[0] not in other.blocks or header not in other.blocks
                for other in forest.loops.values()
            )
            if (
                isinstance(candidate.terminator, Jump)
                and forest.depth_of(outside[0]) < loop.depth
                and in_no_loop_with_header
            ):
                reuse = outside[0]
        if reuse is not None:
            preheaders[header] = reuse
            forest.loops[header] = replace(loop, preheader=reuse)
            continue
        name = _unique_block_name(header + PREHEADER_SUFFIX, taken)
        preheader = BasicBlock(name=name, statements=[], terminator=Jump(header))
        for pred in outside:
            block = program.block(pred)
            block.terminator = _retarget(block.terminator, header, name)
        position = next(
            index
            for index, block in enumerate(program.blocks)
            if block.name == header
        )
        program.blocks.insert(position, preheader)
        if entry_is_header:
            program.entry = name
        preheaders[header] = name
        forest.loops[header] = replace(loop, preheader=name)
    return preheaders
