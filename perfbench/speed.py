"""Host-speed probe: a fixed pure-Python workload that does not touch the
program under test.

A shared host runs the same code up to twice as fast at one moment as at
another.  Python compile work slows down almost in step with this probe:
their ratio varies about a third as much as either alone.  So the
benchmark times the probe between short blocks of operations and states
every time at the reference speed, ``time * probe_rate / REFERENCE_RATE``.
A change to the program moves the scaled times exactly as it moves the
raw ones; a change in host speed mostly cancels out.
"""

from __future__ import annotations

import time

#: Probe units per second that define the reference speed (about this
#: probe's rate on an unloaded 2.1 GHz x86-64 vCPU with CPython 3.11).
REFERENCE_RATE = 2600.0


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0):
        self.op = op
        self.left = left
        self.right = right
        self.value = value


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node("leaf", value=seed % 97)
    return _Node(
        "+-*&"[seed % 4],
        _build(depth - 1, seed * 7 + 1),
        _build(depth - 1, seed * 13 + 5),
    )


def _evaluate(node: _Node, seen: dict) -> int:
    if node.op == "leaf":
        return node.value
    left = _evaluate(node.left, seen)
    right = _evaluate(node.right, seen)
    key = (node.op, left, right)
    value = seen.get(key)
    if value is None:
        if node.op == "+":
            value = (left + right) & 0xFFFF
        elif node.op == "-":
            value = (left - right) & 0xFFFF
        elif node.op == "*":
            value = (left * right) & 0xFFFF
        else:
            value = left & right
        seen[key] = value
    return value


def probe_unit() -> int:
    """One unit of probe work: build and evaluate a 511-node tree."""
    return _evaluate(_build(8, 12345), {})


def probe_rate(seconds: float) -> float:
    """Probe units per second over about ``seconds`` of wall time."""
    units = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        probe_unit()
        units += 1
        now = time.perf_counter()
        if now >= deadline:
            return units / (now - started)


def scale(rate_before: float, rate_after: float) -> float:
    """Factor that turns a time measured between two probes into a time
    at the reference speed."""
    return (rate_before + rate_after) / 2.0 / REFERENCE_RATE
