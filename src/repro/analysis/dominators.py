"""Dominator tree via the Cooper--Harvey--Kennedy algorithm.

The engineered iterative algorithm of "A Simple, Fast Dominance
Algorithm": immediate dominators are computed by repeated intersection
over RPO numbers until fixpoint, which on reducible flow graphs (all the
frontend produces) converges in two passes.  The property tests in
``tests/test_analysis_dataflow.py`` check it against the naive
iterate-to-fixpoint dominator sets on random graphs as well.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.cfg import ControlFlowGraph


def immediate_dominators(cfg: ControlFlowGraph) -> Dict[str, Optional[str]]:
    """The immediate dominator of every reachable block.

    The entry block maps to ``None``; every other reachable block maps to
    its unique immediate dominator.
    """
    names = cfg.names
    if not names:
        return {}
    # Blocks are their RPO numbers here; the entry is 0 and points at
    # itself (the classic sentinel), -1 marks a block not reached yet.
    index = cfg.rpo_index
    predecessors = [[index[pred] for pred in cfg.predecessors[name]] for name in names]
    idom = [-1] * len(names)
    idom[0] = 0
    changed = True
    while changed:
        changed = False
        for block in range(1, len(names)):
            new_idom = -1
            for pred in predecessors[block]:
                if idom[pred] < 0:
                    continue
                if new_idom < 0:
                    new_idom = pred
                    continue
                finger = pred
                while finger != new_idom:  # intersect
                    while finger > new_idom:
                        finger = idom[finger]
                    while new_idom > finger:
                        new_idom = idom[new_idom]
            if new_idom >= 0 and idom[block] != new_idom:
                idom[block] = new_idom
                changed = True
    return {
        name: (None if number == 0 else names[idom[number]])
        for number, name in enumerate(names)
    }


def dominance_relation(
    idom: Dict[str, Optional[str]]
) -> Dict[str, Set[str]]:
    """The full dominator sets (every block dominates itself), derived by
    walking the idom chains -- the shape the brute-force oracle computes
    directly, which is what the property tests compare against."""
    dominators: Dict[str, Set[str]] = {}
    for block in idom:
        chain = {block}
        current = idom[block]
        while current is not None and current not in chain:
            chain.add(current)
            current = idom[current]
        dominators[block] = chain
    return dominators


def dominates(idom: Dict[str, Optional[str]], a: str, b: str) -> bool:
    """True when ``a`` dominates ``b`` (reflexive)."""
    current: Optional[str] = b
    while current is not None:
        if current == a:
            return True
        current = idom[current]
    return False
