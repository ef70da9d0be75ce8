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
instances of the same class.

Every input file format has one schema, a constant beside its loader.
``read`` runs a loader and, only once reading has failed, ``walk``
names the first path that does not fit the schema
(``edges[0].chart[1]: missing 't'``), so well-formed input pays nothing.
The schema holds JSON kinds and required keys only; whether an id names
an arrow, an object or a piece of the same file is the loader's to say.

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


def walk(value, node, error, at: str = ""):
    """Raise ``error`` naming the first path below ``at`` where ``value`` does not fit ``node``.

    A node is ``str`` or ``int`` (a string, an integer), ``None`` (anything),
    ``[S]`` (a list of S; ``[noun, S]`` says ``expected <noun>`` of a value
    that is no list), ``(noun, S1, ..., Sn)`` (a list of exactly n entries,
    the k-th an Sk), ``{key: S, ...}`` (an object with these keys, a key
    written ``"key?"`` optional), ``{str: S}`` (an object with any keys) or
    ``(names, S)`` with ``names`` a frozenset (one of the names if a
    string, else an S).  Recursion follows the schema, not the data.
    """
    if node is None:
        return
    where, prefix = (f"{at}: ", f"{at}.") if at else ("", "")
    if node is str or node is int:
        if type(value) is not node:  # a JSON true is no integer
            raise error(where + ("expected a string" if node is str else "expected an integer"))
    elif isinstance(node, dict):
        if not isinstance(value, dict):
            raise error(f"{where}expected an object")
        if str in node:
            for key, item in value.items():
                walk(item, node[str], error, prefix + key)
            return
        for key in node:
            if not key.endswith("?") and key not in value:
                raise error(f"{where}missing {key!r}")
        for key, sub in node.items():
            key = key.rstrip("?")
            if key in value:
                walk(value[key], sub, error, prefix + key)
    elif isinstance(node, list):
        noun, item = node if len(node) == 2 else ("a list", node[0])
        if not isinstance(value, list):
            raise error(f"{where}expected {noun}")
        for n, entry in enumerate(value if item is not None else ()):
            walk(entry, item, error, f"{at}[{n}]")
    elif isinstance(node[0], frozenset):
        names, other = node
        if not isinstance(value, str):
            walk(value, other, error, at)
        elif value not in names:
            raise error(f"{where}{value!r} is not one of {', '.join(sorted(names))}")
    else:
        noun, *items = node
        if not isinstance(value, list) or len(value) != len(items):
            raise error(f"{where}expected {noun}")
        for n, (entry, item) in enumerate(zip(value, items)):
            walk(entry, item, error, f"{at}[{n}]")


def read(raw, schema, reader, error):
    """``reader(raw)``; once it fails, the first path of ``raw`` that ``schema`` rejects, if any."""
    try:
        return reader(raw)
    except (AttributeError, KeyError, TypeError, ValueError):
        walk(raw, schema, error)
        raise
