"""Immutable records at tuple cost.

The request path describes each delegated call and each NVMe command
as a small immutable record.  A ``typing.NamedTuple`` is built at tuple
cost, where a frozen dataclass pays one ``object.__setattr__`` per
field.  A bare tuple, though, equals any tuple with the same values,
so ``Tclunk(3) == Tfsync(3)`` would hold.  :func:`record` gives a
NamedTuple class the equality of a frozen dataclass: two records are
equal only if they are of the same class and their compared fields are
equal, and the hash covers the same fields.  Against any other tuple
``==`` is False in both orders, where a bare tuple's reflected ``==``
would answer for it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["record"]


def _other(other):
    """``==`` against an object of another class."""
    return False if isinstance(other, tuple) else NotImplemented


def record(cls=None, *, uncompared: Tuple[str, ...] = ()):
    """Class decorator for a ``NamedTuple`` record (see module doc).

    ``uncompared`` names trailing fields left out of ``==`` and
    ``hash``, like ``field(compare=False)`` on a dataclass.
    """
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    n = len(cls._fields) - len(uncompared)
    if cls._fields[n:] != tuple(uncompared):
        raise TypeError(f"{cls.__name__}: uncompared fields must come last")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return _other(other)
        return self[:n] == other[:n]

    def __hash__(self):
        # tuple's own hash, over the compared fields
        return tuple.__hash__(self[:n])

    def __ne__(self, other):
        equal = __eq__(self, other)
        return equal if equal is NotImplemented else not equal

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls
