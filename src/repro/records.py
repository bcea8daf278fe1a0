"""Records: dataclasses whose fields are their serialized form.

A :class:`Record` serializes from its own ``dataclasses`` fields, in
declaration order, so a field added to a record is in its dict form
with no second edit.  Like :mod:`repro.diagnostics`, this module sits
below every other ``repro`` package and imports none of them.
"""

from __future__ import annotations

from dataclasses import MISSING, fields


#: Value types ``Record.to_dict`` hands through unchanged.
_PLAIN = frozenset((str, int, float, bool, type(None)))


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
        """The record a :meth:`to_dict` result describes.  A field without
        a default must be in ``data`` (``KeyError`` otherwise); the others
        take their default when absent.  Other keys are ignored, and list
        and dict values are copied."""
        values = {}
        for spec in fields(cls):
            if spec.name in data:
                value = data[spec.name]
                if isinstance(value, list):
                    value = list(value)
                elif isinstance(value, dict):
                    value = dict(value)
                values[spec.name] = value
            elif spec.default is MISSING and spec.default_factory is MISSING:
                raise KeyError(spec.name)
        return cls(**values)
