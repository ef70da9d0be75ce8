"""Frozen value records, and the one verdict shape both halves share.

A record lists its fields in ``__slots__`` and writes its own
``__init__``, storing each field once through ``setfield`` (its
``__setattr__`` refuses assignment).  The base reads the field names
from ``__slots__`` and gives every record:

- ``repr`` as ``Name(field=value, ...)``, unless the class writes its own;
- ``==`` only between instances of the same class with equal fields, so
  a record never equals a tuple;
- ``hash`` as ``hash((field, ...))``, unhashable when a field is;
- refused assignment and deletion (``AttributeError``);
- ``vars()``, ``copy`` and ``pickle`` over the fields.

``OrderedRecord`` adds the four orderings, over the field tuples of two
instances of the same class.  ``json_field`` and ``json_records`` check
the shape of the JSON a record is read from, naming the path of the
first bad entry; loaders call them once reading has failed, so
well-formed input pays nothing.

The methods are written once here rather than generated per class:
generating them as source text and compiling it at every import, as the
standard library's record decorator does, was about a third of the
command line's start-up.  This module imports nothing from the package,
so either half can load it alone.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field past the refusing __setattr__; called once per field in __init__
setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names:
            get = attrgetter(*names)
            # the field tuple; attrgetter returns a bare value for one name
            cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def __dict__(self):
        return dict(zip(self.__slots__, self._values(self)))

    def __reduce__(self):
        return type(self), self._values(self)


class OrderedRecord(Record):
    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) < other._values(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) <= other._values(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) > other._values(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) >= other._values(other)
        return NotImplemented


class Verdict(Record):
    """Boolean outcome plus the first witness when negative."""

    __slots__ = ("ok", "reason", "witness")

    def __init__(self, ok: bool, reason: str | None = None, witness: tuple | None = None):
        setfield(self, "ok", ok)
        setfield(self, "reason", reason)
        setfield(self, "witness", witness)

    def __bool__(self):
        return self.ok


# -- the shape of JSON input ---------------------------------------------------


def json_field(raw: dict, key: str, kind: type, error: type, at: str = ""):
    """``raw[key]``, checked to be there and a JSON list, object or string (``kind``).

    ``at`` is the path of ``raw`` itself, e.g. ``"edges[0]"``; the
    ``error`` raised names the path of the missing or ill-kinded value.
    """
    if key not in raw:
        raise error(f"{at}: missing {key!r}" if at else f"missing {key!r}")
    value = raw[key]
    if not isinstance(value, kind):
        raise error(f"{at}.{key}: expected {_KINDS[kind]}" if at else f"{key}: expected {_KINDS[kind]}")
    return value


def json_records(raw: dict, key: str, fields, error: type, at: str = "") -> list:
    """``raw[key]`` checked to be a list of objects that each have ``fields``."""
    items = json_field(raw, key, list, error, at)
    path = f"{at}.{key}" if at else key
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise error(f"{path}[{n}]: expected an object")
        for field in fields:
            if field not in item:
                raise error(f"{path}[{n}]: missing {field!r}")
    return items


_KINDS = {list: "a list", dict: "an object", str: "a string"}
