"""Frozen records: immutable value classes declared by annotated fields.

``record`` turns a class body of annotated fields and methods into a
``collections.namedtuple`` subclass, where a frozen dataclass would
generate and compile its methods' source at import.  The record keeps the
field order, repr, hashing and immutability of a frozen dataclass, with no
field defaults, and like one it equals only records of its own class.
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

    A field has no default: a body that assigns a field a value is refused
    (TypeError), where a namedtuple would silently drop it.  When the body
    defines ``__post_init__``, every construction calls it, looked up on the
    class at that time: it checks the fields and returns None, or returns
    the record to keep instead (one made by ``_replace``).  ``_replace``
    itself builds by ``_make`` and checks nothing, so it is for
    ``__post_init__`` alone.  Methods of the body must not call ``super()``:
    they move to a new class.
    """
    own = vars(cls)
    fields = tuple(cls.__annotations__)
    if given := [f for f in fields if f in own]:
        raise TypeError(f"field {given[0]!r} of {cls.__name__} has a default")
    base = namedtuple(cls.__name__, fields, module=cls.__module__)
    body = {k: v for k, v in own.items() if k not in ("__dict__", "__weakref__")}
    body.update(__slots__=(), __eq__=_eq, __ne__=_ne, __hash__=tuple.__hash__,
                _make=classmethod(tuple.__new__))  # so that a record's own __len__ spares _replace
    if "__post_init__" in own:
        def __new__(kind, *args, **kwargs):
            self = base.__new__(kind, *args, **kwargs)
            kept = self.__post_init__()
            return self if kept is None else kept

        body["__new__"] = __new__
    return type(cls.__name__, (base,), body)
