"""Immutable records: the one base of the engine's value classes.

A record class lists its attributes in ``__slots__`` and the ones that make
up its value in ``_fields``; a slot outside ``_fields`` is a memo or an index
derived from the fields.  ``Record`` sets the fields once, in order, from
``__init__``'s positional and keyword arguments, and gives

* equality between records of the same class whose fields are equal, and a
  hash of the tuple of fields;
* the ``Name(field=value, ...)`` repr;
* ``AttributeError`` on any later set or delete;
* weak references, and copying and pickling that keep every slot.

A class whose fields need normalizing or checking writes its own
``__init__`` and sets them with ``object.__setattr__``.  Nothing here
generates code, so defining a record class costs no more than any class.
"""

from __future__ import annotations

_set = object.__setattr__


def _restore(cls, state: dict):
    """Rebuild a record from the slot values ``__reduce__`` saved."""
    obj = object.__new__(cls)
    for name, value in state.items():
        _set(obj, name, value)
    return obj


class Record:
    __slots__ = ("__weakref__",)
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{type(self).__name__} got unknown or repeated fields {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        state = {name: getattr(self, name)
                 for name in type(self).__slots__ if hasattr(self, name)}
        return _restore, (type(self), state)
