"""Frozen records: immutable value classes declared by annotated fields.

``record`` turns a class body of annotated fields, defaults and methods
into a ``collections.namedtuple`` subclass, where a frozen dataclass would
generate and compile its methods' source at import.  The record keeps
the field order, defaults, repr, hashing and immutability of a frozen
dataclass, and like one it equals only records of its own class.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["record"]


# A tuple of another class, a record or not, is unequal: a record is tried
# first against a plain tuple, whose own test would compare the entries.
def _eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    if other.__class__ is self.__class__:
        return tuple.__ne__(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def record(cls):
    """Class decorator: cls as a frozen record of the fields it annotates.

    A field's default is the value the body assigns it, and as in a
    dataclass a field without one may not follow a field with one
    (TypeError).  When the body defines ``__post_init__``, every
    construction calls it, looked up on the class at that time: it checks
    the fields and returns None, or returns the record to keep instead (one
    made by ``_replace``).  ``_replace`` itself builds by ``_make`` and
    checks nothing, so it is for ``__post_init__`` alone.  Methods of the
    body must not call ``super()``: they move to a new class.
    """
    own = vars(cls)
    fields = tuple(cls.__annotations__)
    defaults = [own[f] for f in fields if f in own]
    for f in fields[len(fields) - len(defaults):]:
        if f not in own:
            raise TypeError(f"non-default field {f!r} of {cls.__name__} follows a default")
    base = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    body = {k: v for k, v in own.items() if k not in fields + ("__dict__", "__weakref__")}
    body.update(__slots__=(), __eq__=_eq, __ne__=_ne, __hash__=tuple.__hash__,
                _make=classmethod(tuple.__new__))  # so that a record's own __len__ spares _replace
    if "__post_init__" in own:
        def __new__(kind, *args, **kwargs):
            self = base.__new__(kind, *args, **kwargs)
            kept = self.__post_init__()
            return self if kept is None else kept

        body["__new__"] = __new__
    return type(cls.__name__, (base,), body)
