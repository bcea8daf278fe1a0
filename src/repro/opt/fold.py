"""Constant folding, algebraic simplification and strength reduction.

All rewrites are exact under the reference semantics of
:func:`repro.ir.evaluate_expr`: arithmetic wraps modulo ``2**WORD_BITS``
(see :func:`repro.ir.wrap_word`), ``div``/``mod`` by zero yield zero, and
every intermediate value is already word-wrapped -- so dropping an
``add x 0`` or rewriting ``mul x 2**k`` into ``shl x k`` is provably
observation-preserving, which the differential suite
(``tests/test_opt_differential.py``) checks against the RT simulator.

Two safety gates keep the rules conservative:

* **value-discarding** rules (``mul x 0 -> 0``, ``and x 0 -> 0``,
  ``sub x x -> 0``, ...) only fire when the discarded operand reads no
  primary input port -- deleting a port read could be observable on real
  hardware even though the simulator models ports as plain environment
  cells;
* **operator-introducing** rules (``mul/div`` by powers of two to
  ``shl``/``shr``) only fire when ``supported_ops`` says the target can
  actually cover the introduced shape -- a rewrite must never turn a
  coverable tree into an uncoverable one.  ``supported_ops`` holds
  *introducible-operator signatures*: a bare name (``"shl"``) allows the
  operator with any constant amount, ``"shl:3"`` allows exactly a
  shift by 3 (target grammars frequently hard-wire shift amounts; the
  :class:`~repro.toolchain.passes.OptimizationPass` extracts the precise
  signatures from the grammar's rule patterns).  With
  ``supported_ops=None`` (the target-independent ``repro opt`` CLI) the
  rules fire unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import WORD_BITS, apply_operator, wrap_word
from repro.ir.expr import ArrayRef, Const, IRNode, Op, PortInput, VarRef, structurally_equal
from repro.ir.program import Statement

#: Wrapped powers of two that become shift amounts (2**1 .. 2**(WORD_BITS-1)).
_POW2: Dict[int, int] = {1 << k: k for k in range(1, WORD_BITS)}

_ALL_ONES = wrap_word(-1)

#: Rewrite-rule names counted as *constant folds* (the rest are algebraic).
FOLD_RULES = frozenset({"const-fold", "const-wrap"})


def contains_port_read(expr: IRNode) -> bool:
    """True when the expression reads any primary input port."""
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, PortInput):
            return True
        stack.extend(node.children())
    return False


def _const_value(node: IRNode) -> Optional[int]:
    """The word-wrapped value of a constant operand, else ``None``."""
    if isinstance(node, Const):
        return wrap_word(node.value)
    return None


def _discardable(node: IRNode) -> bool:
    """May this operand be deleted outright?  (No port reads; variable
    and constant reads are side-effect free.)"""
    return not contains_port_read(node)


#: The rules a binary node without a constant operand can fire: both
#: need structurally equal operands.
_SELF_RULES = {"sub": "sub-self", "xor": "xor-self"}


def _allows_shift(supported_ops: Optional[Set[str]], op: str, amount: int) -> bool:
    if supported_ops is None:
        return True
    return op in supported_ops or "%s:%d" % (op, amount) in supported_ops


def _rewrite_once(
    node: Op, supported_ops: Optional[Set[str]]
) -> Optional[Tuple[IRNode, str]]:
    """One applicable rewrite of ``node``, or ``None``.  Returns the
    replacement expression and the rule name that fired."""
    operands = node.operands
    op = node.op
    if len(operands) == 2:
        left, right = operands
        if not isinstance(left, Const) and not isinstance(right, Const):
            rule = _SELF_RULES.get(op)
            if rule is not None and structurally_equal(left, right) and _discardable(left):
                return Const(0), rule
            return None

    # Constant folding: every operand is a literal.
    if all(isinstance(operand, Const) for operand in operands):
        try:
            value = apply_operator(
                op, [wrap_word(operand.value) for operand in operands]
            )
        except ValueError:
            return None  # unknown operator: leave the node alone
        return Const(value), "const-fold"

    if len(operands) == 1:
        inner = operands[0]
        if op in ("neg", "not") and isinstance(inner, Op) and inner.op == op:
            return inner.operands[0], "double-%s" % op
        return None
    if len(operands) != 2:
        return None

    # Exactly one operand is a constant from here on.
    lc = _const_value(left)
    rc = _const_value(right)

    if op == "add":
        if rc == 0:
            return left, "add-zero"
        if lc == 0:
            return right, "add-zero"
    elif op == "sub":
        if rc == 0:
            return left, "sub-zero"
    elif op == "mul":
        if rc == 1:
            return left, "mul-one"
        if lc == 1:
            return right, "mul-one"
        if rc == 0 and _discardable(left):
            return Const(0), "mul-zero"
        if lc == 0 and _discardable(right):
            return Const(0), "mul-zero"
        if rc in _POW2 and _allows_shift(supported_ops, "shl", _POW2[rc]):
            return Op("shl", (left, Const(_POW2[rc]))), "mul-pow2-shl"
        if lc in _POW2 and _allows_shift(supported_ops, "shl", _POW2[lc]):
            return Op("shl", (right, Const(_POW2[lc]))), "mul-pow2-shl"
    elif op == "div":
        if rc == 1:
            return left, "div-one"
        if rc == 0 and _discardable(left):
            return Const(0), "div-zero"  # div by zero yields 0 by definition
        if rc in _POW2 and _allows_shift(supported_ops, "shr", _POW2[rc]):
            return Op("shr", (left, Const(_POW2[rc]))), "div-pow2-shr"
    elif op == "mod":
        if rc in (0, 1) and _discardable(left):
            return Const(0), "mod-trivial"
    elif op == "and":
        if rc == _ALL_ONES:
            return left, "and-ones"
        if lc == _ALL_ONES:
            return right, "and-ones"
        if rc == 0 and _discardable(left):
            return Const(0), "and-zero"
        if lc == 0 and _discardable(right):
            return Const(0), "and-zero"
    elif op == "or":
        if rc == 0:
            return left, "or-zero"
        if lc == 0:
            return right, "or-zero"
    elif op == "xor":
        if rc == 0:
            return left, "xor-zero"
        if lc == 0:
            return right, "xor-zero"
    elif op in ("shl", "shr"):
        if rc == 0:
            return left, "shift-zero"
    return None


def would_fold(expr: IRNode, supported_ops: Optional[Set[str]] = None) -> bool:
    """True exactly when :func:`fold_expr` would change ``expr`` or count
    a rewrite: when a rule fires on some operator node as it stands, or
    some constant lies outside the machine word.  Read-only.

    Folding works bottom-up, so while nothing below a node has changed,
    it offers the node as it stands to the same rules; the first node
    that fires, or the first constant it wraps, is found here."""
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Op:
            operands = node.operands
            # The cheap rejection of _rewrite_once, inlined: it calls
            # nothing for a binary node with no constant operand that no
            # self rule matches.
            if (
                len(operands) != 2
                or type(operands[0]) is Const
                or type(operands[1]) is Const
                or node.op in _SELF_RULES
            ) and _rewrite_once(node, supported_ops) is not None:
                return True
            stack.extend(operands)
        elif kind is Const:
            if wrap_word(node.value) != node.value:
                return True
        elif kind is ArrayRef:
            stack.append(node.index)
    return False


def would_fold_statement(
    statement: Statement, supported_ops: Optional[Set[str]] = None
) -> bool:
    """True exactly when :func:`fold_statement` would change ``statement``
    or count a rewrite (:func:`would_fold` of both its expressions)."""
    index = statement.destination_index
    return would_fold(statement.expression, supported_ops) or (
        index is not None and would_fold(index, supported_ops)
    )


def fold_expr(
    expr: IRNode,
    supported_ops: Optional[Set[str]] = None,
    rewrites: Optional[Dict[str, int]] = None,
) -> IRNode:
    """Fold one expression bottom-up.

    Subtrees that no rule changes are returned as they are (the nodes
    are frozen, so sharing them with the input is safe); changed nodes
    are rebuilt.  Out-of-range constants are canonicalized through
    :func:`repro.ir.wrap_word`, and each node is rewritten to a local
    fixpoint, so ``mul(add(x, 0), 1)`` collapses in one pass.
    ``rewrites`` accumulates per-rule fire counts.
    """
    counts = rewrites if rewrites is not None else {}
    results: List[IRNode] = []
    stack: List[Tuple[IRNode, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Const):
            wrapped = wrap_word(node.value)
            if wrapped != node.value:
                counts["const-wrap"] = counts.get("const-wrap", 0) + 1
                node = Const(wrapped)
            results.append(node)
            continue
        if isinstance(node, (VarRef, PortInput)):
            results.append(node)
            continue
        if isinstance(node, ArrayRef):
            if not expanded:
                stack.append((node, True))
                stack.append((node.index, False))
                continue
            index = results.pop()
            # The access itself never folds (the element is unknown until
            # runtime); only its index expression does.
            results.append(node if index is node.index else ArrayRef(node.name, index))
            continue
        if not isinstance(node, Op):
            raise TypeError("unexpected IR node %r" % type(node).__name__)
        if not expanded:
            stack.append((node, True))
            for operand in reversed(node.operands):
                stack.append((operand, False))
            continue
        arity = len(node.operands)
        children = tuple(results[len(results) - arity:]) if arity else ()
        del results[len(results) - arity:]
        unchanged = all(child is operand for child, operand in zip(children, node.operands))
        rebuilt: IRNode = node if unchanged else Op(node.op, children)
        while isinstance(rebuilt, Op):
            replaced = _rewrite_once(rebuilt, supported_ops)
            if replaced is None:
                break
            rebuilt, rule = replaced
            counts[rule] = counts.get(rule, 0) + 1
        results.append(rebuilt)
    return results[0]


def fold_statement(
    statement: Statement,
    supported_ops: Optional[Set[str]] = None,
    rewrites: Optional[Dict[str, int]] = None,
) -> Statement:
    """``statement`` with its right-hand side (and the destination index
    of a runtime-indexed array store, if any) folded."""
    destination_index = statement.destination_index
    if destination_index is not None:
        destination_index = fold_expr(
            destination_index, supported_ops=supported_ops, rewrites=rewrites
        )
    return Statement(
        destination=statement.destination,
        expression=fold_expr(
            statement.expression, supported_ops=supported_ops, rewrites=rewrites
        ),
        destination_index=destination_index,
    )


def split_rewrite_counts(rewrites: Dict[str, int]) -> Tuple[int, int]:
    """``(constant folds, algebraic rewrites)`` totals of a rewrite-count
    dict (the split :class:`~repro.opt.pipeline.OptStats` reports)."""
    folds = sum(count for rule, count in rewrites.items() if rule in FOLD_RULES)
    algebraic = sum(
        count for rule, count in rewrites.items() if rule not in FOLD_RULES
    )
    return folds, algebraic
