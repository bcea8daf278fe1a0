"""Hash-consed immutable tree nodes (Filliâtre and Conchon, 2006).

A constructor returns the existing node when an equal one exists, so
equality is identity and facts derived from a node (its text, per-run
memo entries keyed by it) are computed once per distinct tree.  Nodes
live in one weak-value table keyed by ``(class, *fields)``; children are
interned first, so keys compare them by identity.  A miss takes a lock
and looks again, so threads building the same tree get one node.  Pickle
and ``copy`` rebuild nodes through the constructor.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import FrozenInstanceError
from typing import Any, Dict, Tuple

_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LOCK = threading.Lock()


class HashConsed:
    """Base of interned nodes: a subclass lists its fields in ``_fields``
    and ``__slots__``, their defaults in ``_defaults``, and has ``_render``."""

    __slots__ = ("_text", "__weakref__")
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, Any] = {}

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        if kwargs or len(args) != len(cls._fields):
            values = dict(cls._defaults, **dict(zip(cls._fields, args)), **kwargs)
            if len(args) > len(cls._fields) or values.keys() != set(cls._fields):
                raise TypeError("%s() takes %s" % (cls.__name__, ", ".join(cls._fields)))
            args = tuple([values[name] for name in cls._fields])
        key = (cls,) + args
        node = _TABLE.get(key)
        if node is None:
            with _LOCK:
                node = _TABLE.get(key)
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(cls._fields, args):
                        object.__setattr__(node, name, value)
                    _TABLE[key] = node
        return node

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise FrozenInstanceError("cannot change field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__name__, fields)

    def __str__(self) -> str:
        if not hasattr(self, "_text"):
            object.__setattr__(self, "_text", self._render())
        return self._text
