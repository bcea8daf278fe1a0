"""IR expression trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

# 16-bit fixed point machines: arithmetic wraps around modulo 2**WORD_BITS.
WORD_BITS = 16
_WORD_MASK = (1 << WORD_BITS) - 1


class IRNode:
    """Base class of IR expression nodes."""

    __slots__ = ()

    def children(self) -> Tuple["IRNode", ...]:
        return ()


@dataclass(frozen=True)
class Const(IRNode):
    """An integer constant."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef(IRNode):
    """A reference to a program variable (scalar or array element)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PortInput(IRNode):
    """A read of a primary processor input port."""

    port: str

    def __str__(self) -> str:
        return "@%s" % self.port


@dataclass(frozen=True, repr=False)
class ArrayRef(IRNode):
    """An array element access with a *runtime* index expression.

    Constant-index accesses are resolved at lowering time into plain
    :class:`VarRef` leaves (``a[3]``); an :class:`ArrayRef` is what loop
    bodies produce for ``a[i]``.  At selection level the access is a
    plain load/store on the array's home storage -- the address
    computation is carried out by the processor's address-generation
    logic in parallel with the data path (the standard DSP arrangement
    the paper's machines share), so the index expression never enters
    tree covering; the RT simulator and the reference interpreter
    evaluate it against the current environment.
    """

    name: str
    index: IRNode

    def children(self) -> Tuple["IRNode", ...]:
        return (self.index,)

    def __str__(self) -> str:
        return render_expr(self)

    def __repr__(self) -> str:
        return render_expr(self, dataclass_form=True)


@dataclass(frozen=True, repr=False)
class Op(IRNode):
    """An operator applied to one or two sub-expressions.

    Operator names use the same canonical vocabulary as RT patterns
    (``add``, ``sub``, ``mul``, ``shl``, ...).
    """

    op: str
    operands: Tuple[IRNode, ...]

    def children(self) -> Tuple[IRNode, ...]:
        return self.operands

    def __str__(self) -> str:
        return render_expr(self)

    def __repr__(self) -> str:
        return render_expr(self, dataclass_form=True)


IRExpr = IRNode


def render_expr(expr: IRNode, dataclass_form: bool = False) -> str:
    """``str(expr)``, or ``repr(expr)`` with ``dataclass_form``, without
    recursion, so a tree of any depth renders: ``add(a, x[i])``, or
    ``Op(op='add', operands=(VarRef(name='a'), ...))`` as the dataclass
    would write it.  A stack holds the nodes still to render and the
    text between them."""
    parts: List[str] = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif isinstance(node, Op):
            operands = node.operands
            if dataclass_form:
                parts.append("%s(op=%r, operands=(" % (type(node).__qualname__, node.op))
                stack.append(",))" if len(operands) == 1 else "))")
            else:
                parts.append(node.op + "(")
                stack.append(")")
            for position in range(len(operands) - 1, -1, -1):
                stack.append(operands[position])
                if position:
                    stack.append(", ")
        elif isinstance(node, ArrayRef):
            if dataclass_form:
                parts.append("%s(name=%r, index=" % (type(node).__qualname__, node.name))
                stack.append(")")
            else:
                parts.append(node.name + "[")
                stack.append("]")
            stack.append(node.index)
        else:
            parts.append(repr(node) if dataclass_form else str(node))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Evaluation (reference semantics, used by the simulator and tests)
# ---------------------------------------------------------------------------

_BINARY_SEMANTICS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else 0,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "shr": lambda a, b: a >> (b & 31),
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "gt": lambda a, b: int(a > b),
    "le": lambda a, b: int(a <= b),
    "ge": lambda a, b: int(a >= b),
}

_UNARY_SEMANTICS: Dict[str, Callable[[int], int]] = {
    "neg": lambda a: -a,
    "not": lambda a: ~a,
    "lnot": lambda a: int(a == 0),
}


def wrap_word(value: int) -> int:
    """Reduce a value to the machine word width (two's complement wrap).

    The canonical import point is :mod:`repro.ir` (``repro.ir.wrap_word``);
    frontend lowering, the :mod:`repro.opt` constant folder and the RT
    simulator all share this one definition so their arithmetic agrees.
    """
    return value & _WORD_MASK


def apply_operator(op: str, operands: List[int]) -> int:
    """Apply an IR/RT operator to already evaluated operand values."""
    if op.startswith("bits_"):
        _, high, low = op.split("_")
        width = int(high) - int(low) + 1
        return (operands[0] >> int(low)) & ((1 << width) - 1)
    if len(operands) == 2:
        semantics = _BINARY_SEMANTICS.get(op)
        if semantics is not None:
            return wrap_word(semantics(operands[0], operands[1]))
    if len(operands) == 1:
        semantics = _UNARY_SEMANTICS.get(op)
        if semantics is not None:
            return wrap_word(semantics(operands[0]))
    raise ValueError("unknown operator %r with %d operands" % (op, len(operands)))


def array_element_name(name: str, index_value: int) -> str:
    """The environment key of one array element (``a[3]``).

    Runtime indices are wrapped to the machine word first, so the
    reference interpreter and the RT simulator agree on the accessed
    element for out-of-range index arithmetic.
    """
    return "%s[%d]" % (name, wrap_word(index_value))


def base_array(name: str) -> Optional[str]:
    """The array a constant-index element name belongs to (``"a[3]" ->
    "a"``); ``None`` for any other name."""
    bracket = name.find("[")
    return name[:bracket] if bracket > 0 else None


def is_plain_scalar(name: str) -> bool:
    """True for a scalar variable: not a port (``@OUT``), not an array
    element (``a[3]``)."""
    return not name.startswith("@") and "[" not in name


def evaluate_expr(expr: IRNode, environment: Dict[str, int]) -> int:
    """Evaluate an IR expression over a variable/port environment.

    Iterative, so a deep chain stays below the interpreter's recursion
    limit: a pre-order list of the nodes, pushing each node's children
    left to right, is evaluated in reverse, which meets every node right
    after its children, whose values are then on top of a value stack.
    A leaf, and an operator over constants and scalars (the trip-count
    recurrences ``add(i, 1)`` and ``lt(i, 8)``), skip the list."""
    if isinstance(expr, Const):
        return wrap_word(expr.value)
    if isinstance(expr, VarRef):
        return wrap_word(environment.get(expr.name, 0))
    values: List[int] = []
    if isinstance(expr, Op):
        for operand in expr.operands:
            if isinstance(operand, Const):
                values.append(wrap_word(operand.value))
            elif isinstance(operand, VarRef):
                values.append(wrap_word(environment.get(operand.name, 0)))
            else:
                values.clear()
                break
        else:
            return apply_operator(expr.op, values)
    order: List[IRNode] = []
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children())
    for node in reversed(order):
        if isinstance(node, Op):
            split = len(values) - len(node.operands)
            result = apply_operator(node.op, values[split:])
            del values[split:]
            values.append(result)
        elif isinstance(node, Const):
            values.append(wrap_word(node.value))
        elif isinstance(node, VarRef):
            values.append(wrap_word(environment.get(node.name, 0)))
        elif isinstance(node, ArrayRef):
            element = array_element_name(node.name, values.pop())
            values.append(wrap_word(environment.get(element, 0)))
        elif isinstance(node, PortInput):
            values.append(wrap_word(environment.get("@%s" % node.port, 0)))
        else:
            raise TypeError("unexpected IR node %r" % type(node).__name__)
    return values[0]


def expr_variables(expr: IRNode) -> Set[str]:
    """Names of all program variables read by an expression.

    Iterative (explicit stack): deep chain expressions must not hit the
    interpreter recursion limit.
    """
    variables: Set[str] = set()
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, VarRef):
            variables.add(node.name)
            continue
        if isinstance(node, ArrayRef):
            # The concrete element is unknown until runtime; record the
            # array's base name (binding validation, liveness must treat
            # the whole array as read) plus the index expression's reads.
            variables.add(node.name)
        stack.extend(node.children())
    return variables


def expr_size(expr: IRNode) -> int:
    """Number of nodes in an expression tree (explicit-stack walk)."""
    count = 0
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        count += 1
        kind = type(node)
        if kind is Op:
            stack.extend(node.operands)
        elif kind is not Const and kind is not VarRef:
            stack.extend(node.children())
    return count


def structurally_equal(left: IRNode, right: IRNode) -> bool:
    """Structural equality without recursive ``__eq__`` (safe on the ~5k
    node chain expressions the deep-tree tests compile)."""
    stack: List[Tuple[IRNode, IRNode]] = [(left, right)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if isinstance(a, Op) and isinstance(b, Op):
            if a.op != b.op or len(a.operands) != len(b.operands):
                return False
            stack.extend(zip(a.operands, b.operands))
        elif isinstance(a, ArrayRef) and isinstance(b, ArrayRef):
            if a.name != b.name:
                return False
            stack.append((a.index, b.index))
        elif a != b:  # leaves, or nodes of two classes: never a deep compare
            return False
    return True
