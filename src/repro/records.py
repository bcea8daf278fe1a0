"""Records: dataclasses whose fields are their serialized form.

A :class:`Record` serializes from its own ``dataclasses`` fields, in
declaration order, so a field added to a record is in its dict form
with no second edit.  The field annotations are also the schema its
``from_dict`` checks a decoded JSON object against.  Like
:mod:`repro.diagnostics`, this module sits below every other ``repro``
package and imports none of them.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, fields
from typing import Callable, Dict, FrozenSet, Tuple


#: Value types ``Record.to_dict`` hands through unchanged.
_PLAIN = frozenset((str, int, float, bool, type(None)))

#: The JSON name of each type a decoded value can have.
_JSON_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean",
    type(None): "null", list: "array", tuple: "array", dict: "object",
}


class SchemaError(TypeError):
    """A dict that does not describe a record: an unknown key, a missing
    field, or a value whose JSON type does not fit its field."""


class _Mismatch(Exception):
    """A value that does not fit its annotation, at ``path`` (``[0]``,
    ``['x']``) inside the field's value."""

    def __init__(self, expected: str, value: object):
        self.expected, self.value, self.path = expected, value, ""


def _expect(value, types: tuple, expected: str):
    if type(value) not in types:
        raise _Mismatch(expected, value)
    return value


def _converter(hint) -> Callable:
    """The function that checks a decoded value against ``hint`` and
    returns it, with arrays as lists or tuples and the object of a class
    with a ``from_dict`` as that class."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        convert = _converter(args[0])
        return lambda value: None if value is None else convert(value)
    if origin in (list, tuple, dict):
        item = _converter(args[1] if origin is dict else args[0])
        return lambda value: _container(origin, item, value)
    if hasattr(hint, "from_dict"):  # a nested record or result
        return lambda value: hint.from_dict(_expect(value, (dict,), "object"))
    accepted, expected = (int, float) if hint is float else (hint,), _JSON_NAMES[hint]
    return lambda value: _expect(value, accepted, expected)


def _container(kind: type, item: Callable, value: object):
    """``value`` as a new list, tuple or dict whose items each fit ``item``."""
    if kind is dict:
        keys = _expect(value, (dict,), "object")
    else:
        keys = range(len(_expect(value, (list, tuple), "array")))
    converted = {}
    for key in keys:
        try:
            converted[key] = item(value[key])
        except _Mismatch as mismatch:
            mismatch.path = "[%r]%s" % (key, mismatch.path)
            raise
    return converted if kind is dict else kind(converted.values())


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Dict[str, Callable], FrozenSet[str]]:
    """Each field's converter, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    return (
        {spec.name: _converter(hints[spec.name]) for spec in fields(cls)},
        frozenset(
            spec.name for spec in fields(cls)
            if spec.default is MISSING and spec.default_factory is MISSING
        ),
    )


def _json_name(value: object) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


class Record:
    """Mixin for a dataclass that serializes from its own fields."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields, in declaration order.  A list or tuple becomes a
        new list, a dict a new dict and a nested record its own dict, so
        the result shares nothing mutable with the record."""
        data = dict(vars(self))
        for name, value in data.items():
            if type(value) in _PLAIN:
                continue
            if isinstance(value, (list, tuple)):
                data[name] = list(value)
            elif isinstance(value, dict):
                data[name] = dict(value)
            elif isinstance(value, Record):
                data[name] = value.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """The record a decoded JSON object describes.  Each value must
        fit its field's annotation (an integer is a number, a boolean is
        not); a field without a default must be present, the others take
        their default when absent.  Anything else -- an unknown key, a
        missing field, a value of another JSON type -- is a
        :class:`SchemaError` naming the record and the field."""
        converters, required = _schema(cls)
        if type(data) is not dict:
            raise SchemaError("%s: expected object, got %s" % (cls.__name__, _json_name(data)))
        unknown, missing = data.keys() - converters.keys(), required - data.keys()
        if unknown or missing:
            raise SchemaError("%s: %s field(s): %s" % (
                cls.__name__, "unknown" if unknown else "missing",
                ", ".join(sorted(map(str, unknown or missing)))))
        values = {}
        for name, value in data.items():
            try:
                values[name] = converters[name](value)
            except _Mismatch as mismatch:
                raise SchemaError("%s.%s%s: expected %s, got %s" % (
                    cls.__name__, name, mismatch.path, mismatch.expected,
                    _json_name(mismatch.value))) from None
        return cls(**values)
